package explore

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rbf"
	"repro/internal/space"
)

// source is what a sweep enumerates: a materialised design list, or a
// window of a full factorial that the workers walk in level-index space.
// Exactly one field is set.
type source struct {
	designs []space.Config
	win     *space.Window
}

func (s source) len() int {
	if s.win != nil {
		return s.win.Count
	}
	return len(s.designs)
}

// chunk is one finished chunk as the workers hand it to the collectors:
// designs [start, start+n) of the sweep and their flat score matrix, m
// scores per design in design order. Both are worker scratch, reused for
// the worker's next chunk.
type chunk struct {
	start, n, m int
	scores      []float64
	// cfgs views a list sweep's designs; nil on a window sweep, whose
	// Configs are decoded from win on demand.
	cfgs []space.Config
	win  *space.Window
	// skip marks the rows of a pruning window sweep's pruned subtrees
	// (bit j of skip[j/64]); their scores were never written. It is nil
	// when the sweep does not prune.
	skip []uint64
}

// next returns the first row at or after j that is not marked in skip,
// or c.n when none is left.
func (c *chunk) next(j int) int {
	if c.skip == nil {
		return j
	}
	for ; j < c.n; j = j | 63 + 1 {
		if left := ^c.skip[j>>6] >> (j & 63); left != 0 {
			return min(j+bits.TrailingZeros64(left), c.n)
		}
	}
	return c.n
}

// scoresOf returns design j's scores (worker scratch).
func (c *chunk) scoresOf(j int) []float64 {
	return c.scores[j*c.m : (j+1)*c.m : (j+1)*c.m]
}

// config returns design j's Config. On a window sweep it decodes the
// design from its position, so collectors call it only for candidates
// they keep.
func (c *chunk) config(j int) space.Config {
	if c.cfgs != nil {
		return c.cfgs[j]
	}
	return c.win.Design(c.start + j)
}

// collect streams the source's designs into the collectors, each of
// which takes a whole chunk concurrently under its own lock.
//
// A window sweep whose collectors are all FrontierCollectors prunes: a
// FrontierCollector keeps only non-dominated designs, so a subtree whose
// every design some already scored point dominates need not be scored
// (see worker.scoreWindow). TopK's feasible count needs every score.
// When the one collector of a pruning sweep is seeded
// (FrontierCollector.Seed), its seed vectors start every worker's
// incumbent: that collector drops whatever they beat anyway, but another
// collector of the same sweep would not.
func collect(ctx context.Context, src source, models []core.DynamicsModel, objectives []Objective, opts Options, collectors []Collector) error {
	prune := src.win != nil
	for _, c := range collectors {
		fc, ok := c.(*FrontierCollector)
		if !ok {
			prune = false
			continue
		}
		for _, s := range fc.seedPoints() {
			if len(s) != len(models) {
				return fmt.Errorf("explore: a seed vector holds %d scores for %d objectives", len(s), len(models))
			}
		}
	}
	var seed [][]float64
	if prune && len(collectors) == 1 {
		seed = collectors[0].(*FrontierCollector).seedPoints()
	}
	return evalChunks(ctx, src, models, objectives, opts, prune, seed, func(c *chunk) {
		for _, col := range collectors {
			col.collectChunk(c)
		}
	})
}

// evalKind is the route one model is scored by.
type evalKind uint8

const (
	evalMeanLevels  evalKind = iota // mean objective on a *core.Predictor
	evalMeanLattice                 // mean objective scored from its terms' tables (windows)
	evalTraceLevels                 // trace objective on a *core.Predictor
	evalPredict                     // DynamicsModel.Predict: needs the Config
)

// modelPlan is one model's scoring route, resolved once per sweep.
type modelPlan struct {
	kind  evalKind
	nfeat int // width of the model's encoding (level kinds)
	group int // indexes plan.decls (level kinds)
	// terms indexes plan.terms: the lattice kind's mean terms.
	terms [2]int
	model core.DynamicsModel
	lev   *core.Predictor
	score func([]float64) float64
}

// plan is a sweep's scoring routes. Level-kind models are grouped by
// their level declaration: a design's level indices are resolved once
// per group (decls[g], the widest encoding resolved against it
// width[g]), not once per model.
type plan struct {
	models []modelPlan
	decls  [][][]float64
	width  []int
	// terms are the lattice kind's mean terms, model after model.
	terms []latticeTerm
	// needVec and needDVM say which feature encoding the level kinds
	// share (the plain encoding is a prefix of the DVM one); needCfg that
	// some model is scored from the Config itself.
	needVec, needDVM, needCfg bool
	// bound is the first free digit of the subtrees a pruning window
	// sweep tests (bindPrune), and sub their design count; bound is 0
	// when the sweep does not prune. seed holds the score vectors every
	// pruning worker's incumbent starts from (see collect).
	bound, sub int
	seed       [][]float64
}

// latticeTerm is one core.MeanTerm on a window sweep's lattice route:
// off[q][l] is level l of the window's parameter q as offsets into the
// term network's two tables (rbf.Network.TableOffsets of the level's
// declaration index). A design's offsets sum, in integers, to the table
// indices rbf.Network.PredictTables evaluates.
type latticeTerm struct {
	net    *rbf.Network
	weight float64
	off    [space.NumParams][]tabOff
}

// tabOff is a pair of offsets (or indices) into a network's shared-factor
// table (s) and level table (g).
type tabOff struct{ s, g int }

func newPlan(models []core.DynamicsModel, objectives []Objective) *plan {
	p := &plan{models: make([]modelPlan, len(models))}
	for i, model := range models {
		mp := modelPlan{kind: evalPredict, model: model, score: objectives[i].Score}
		if lp, ok := model.(*core.Predictor); ok {
			mp.kind, mp.lev, mp.nfeat = evalTraceLevels, lp, lp.NumFeatures()
			if objectives[i].mean {
				mp.kind = evalMeanLevels
			}
			mp.group = p.declGroup(lp.DimLevels(), mp.nfeat)
			p.needVec = true
			p.needDVM = p.needDVM || mp.nfeat > space.NumParams
		} else {
			p.needCfg = true
		}
		p.models[i] = mp
	}
	return p
}

// declGroup returns the group of declaration decl, adding one when no
// existing group's declaration is equal, and widens it to nfeat.
func (p *plan) declGroup(decl [][]float64, nfeat int) int {
	g := slices.IndexFunc(p.decls, func(d [][]float64) bool {
		return slices.EqualFunc(d, decl, slices.Equal[[]float64])
	})
	if g < 0 {
		g = len(p.decls)
		p.decls = append(p.decls, decl)
		p.width = append(p.width, 0)
	}
	p.width[g] = max(p.width[g], nfeat)
	return g
}

// levelTables are a window's per-level encodings: for parameter p at
// level index l of the window's space, feat[p][l] is the feature value
// and lvl[g][p][l] its level index against declaration group g. Both are
// built by encoding and resolving real designs (Config.VectorDVMInto,
// rbf.ResolveLevels), so they are bit-identical to what the list path
// computes per design. base holds the encoding of a design whose
// dimensions past the swept parameters (DVM enable and threshold) are
// the window Base's constants; lvl0 its level indices per group.
type levelTables struct {
	feat [space.NumParams][]float64
	lvl  [][space.NumParams][]int
	base [space.MaxFeatures]float64
	lvl0 [][space.MaxFeatures]int
}

func (p *plan) levelTables(w *space.Window) *levelTables {
	t := &levelTables{
		lvl:  make([][space.NumParams][]int, len(p.decls)),
		lvl0: make([][space.MaxFeatures]int, len(p.decls)),
	}
	most := 0
	for q := range w.Levels {
		t.feat[q] = make([]float64, len(w.Levels[q]))
		for g := range t.lvl {
			t.lvl[g][q] = make([]int, len(w.Levels[q]))
		}
		most = max(most, len(w.Levels[q]))
	}
	var lv [space.MaxFeatures]int
	for l := 0; l < most; l++ {
		// Design "every parameter at level l" (clamped to each parameter's
		// own level count) covers level l of every parameter that has one.
		var idx [space.NumParams]int
		for q := range idx {
			idx[q] = min(l, len(w.Levels[q])-1)
		}
		cfg := w.Levels.Design(w.Base, idx)
		x := cfg.VectorDVMInto(t.base[:0])
		for g, decl := range p.decls {
			rbf.ResolveLevels(decl, x[:p.width[g]], lv[:p.width[g]])
			t.lvl0[g] = lv
			for q := range idx {
				t.lvl[g][q][idx[q]] = lv[q]
			}
		}
		for q := range idx {
			t.feat[q][idx[q]] = x[q]
		}
	}
	return t
}

// bindLattice moves a window sweep's mean objectives onto the lattice
// route where it is exact: the model takes the plain encoding (DVM
// features read the window Base's constants, which the tables do not
// offset), every window level lies on its declaration, and every term
// network has both tables. Any other model keeps its route. Only level
// kinds still left need the encoding afterwards.
func (p *plan) bindLattice(w *space.Window, t *levelTables) {
	levels := 0
	for q := range w.Levels {
		levels += len(w.Levels[q])
	}
	for m := range p.models {
		mp := &p.models[m]
		if mp.kind != evalMeanLevels || mp.nfeat != space.NumParams || !onDeclaration(&t.lvl[mp.group]) {
			continue
		}
		terms := mp.lev.MeanTerms()
		if slices.ContainsFunc(terms, func(mt core.MeanTerm) bool {
			s, _ := mt.Net.TableOffsets(0)
			return s == nil
		}) {
			continue
		}
		mp.kind, mp.terms = evalMeanLattice, [2]int{len(p.terms), len(p.terms) + len(terms)}
		for _, mt := range terms {
			lt := latticeTerm{net: mt.Net, weight: mt.Weight}
			flat := make([]tabOff, levels)
			for q, decl := range t.lvl[mp.group] {
				so, vo := mt.Net.TableOffsets(q)
				lt.off[q], flat = flat[:len(decl):len(decl)], flat[len(decl):]
				for l, d := range decl {
					lt.off[q][l] = tabOff{so[d], vo[d]}
				}
			}
			p.terms = append(p.terms, lt)
		}
	}
	p.needVec = slices.ContainsFunc(p.models, func(mp modelPlan) bool {
		return mp.kind == evalMeanLevels || mp.kind == evalTraceLevels
	})
}

// bindPrune lets a window sweep prune subtrees when every model takes
// the lattice route and every term network bounds the same subtrees
// (rbf.Network.BoundDim). A model off the lattice has no finite low
// corner, so no subtree of such a sweep could ever be pruned.
func (p *plan) bindPrune(w *space.Window) {
	if slices.ContainsFunc(p.models, func(mp modelPlan) bool { return mp.kind != evalMeanLattice }) || len(p.terms) == 0 {
		return
	}
	d := p.terms[0].net.BoundDim()
	if d == 0 || slices.ContainsFunc(p.terms, func(lt latticeTerm) bool { return lt.net.BoundDim() != d }) {
		return
	}
	p.bound, p.sub = d, 1
	for q := d; q < space.NumParams; q++ {
		p.sub *= len(w.Levels[q])
	}
}

// onDeclaration reports whether every window level resolved onto the
// declaration.
func onDeclaration(lvl *[space.NumParams][]int) bool {
	for _, ls := range lvl {
		if slices.Contains(ls, -1) {
			return false
		}
	}
	return true
}

// worker is one sweep goroutine's scratch: its chunk's scores, one trace
// buffer per model, the current design's encoding x and its level
// indices per declaration group, each model's view of those indices,
// per lattice term the prefix sums of the current design's table offsets
// (pre[t][q] sums parameters before q; pre[t][NumParams] is the design's
// table indices), and — on window sweeps whose models need one — the
// current design's decoded Config. A pruning worker also keeps its
// incumbent (seeded with plan.seed), a subtree's low corner (lo, one
// score per model), per model the row of the lowest score among the
// designs it scored since the last subtree boundary (best, -1 when
// none), and its chunk's skip bitmap.
type worker struct {
	p      *plan
	scores []float64
	traces [][]float64
	x      [space.MaxFeatures]float64
	lvls   [][space.MaxFeatures]int
	lvl    [][]int
	pre    [][space.NumParams + 1]tabOff
	cfg    space.Config
	inc    incumbent
	lo     []float64
	best   []int
	skip   []uint64
}

func (p *plan) newWorker(chunk int) *worker {
	w := &worker{
		p:      p,
		scores: make([]float64, chunk*len(p.models)),
		traces: make([][]float64, len(p.models)),
		lvls:   make([][space.MaxFeatures]int, len(p.decls)),
		lvl:    make([][]int, len(p.models)),
		pre:    make([][space.NumParams + 1]tabOff, len(p.terms)),
	}
	if p.bound > 0 {
		w.inc = newIncumbent(len(p.models))
		for _, s := range p.seed {
			w.inc.offer(s)
		}
		w.lo = make([]float64, len(p.models))
		w.best = make([]int, len(p.models))
		w.skip = make([]uint64, (chunk+63)/64)
		for m := range w.best {
			w.best[m] = -1
		}
	}
	// Each level-kind model views its group's indices, widened to its own
	// encoding.
	for m, mp := range p.models {
		if mp.kind != evalPredict {
			w.lvl[m] = w.lvls[mp.group][:mp.nfeat]
		}
	}
	return w
}

// score scores the current design (w.x, w.lvls and, for the Predict
// kind, cfg) into s, one entry per model.
func (w *worker) score(s []float64, cfg *space.Config) {
	for m := range w.p.models {
		mp := &w.p.models[m]
		switch mp.kind {
		case evalMeanLevels:
			s[m] = mp.lev.PredictMeanLevels(w.x[:mp.nfeat], w.lvl[m])
		case evalMeanLattice:
			s[m] = w.latticeMean(mp)
		case evalTraceLevels:
			w.traces[m] = mp.lev.PredictVecLevelsInto(w.x[:mp.nfeat], w.lvl[m], w.traces[m])
			s[m] = mp.score(w.traces[m])
		default:
			s[m] = mp.score(mp.model.Predict(*cfg))
		}
	}
}

// latticeMean is PredictMeanLevels' fold (core.Predictor.MeanTerms) on
// the current design's table indices: each term's coefficient is
// PredictTables, PredictLevels' on-level arithmetic. The product is
// converted explicitly, as in PredictMeanLevels, so that no architecture
// fuses it into the sum.
func (w *worker) latticeMean(mp *modelPlan) float64 {
	mean := 0.0
	for t := mp.terms[0]; t < mp.terms[1]; t++ {
		lt, at := &w.p.terms[t], &w.pre[t][space.NumParams]
		mean += float64(lt.net.PredictTables(at.s, at.g) * lt.weight)
	}
	return mean
}

// latticeLow is latticeMean's fold over the low ends of its terms'
// values across the subtree whose free digits start at the plan's bound
// under the current design (rbf.Network.BoundTables at the prefix sums
// before that digit). Each step of the fold is monotone — the product by
// a negative weight in the term's high end — so no design of the subtree
// scores below it, exactly. The product is converted explicitly, as in
// latticeMean, so that no architecture fuses it into the sum.
func (w *worker) latticeLow(mp *modelPlan) float64 {
	low := 0.0
	for t := mp.terms[0]; t < mp.terms[1]; t++ {
		lt, at := &w.p.terms[t], &w.pre[t][w.p.bound]
		lo, hi := lt.net.BoundTables(at.s, at.g)
		if lt.weight < 0 {
			lo = hi
		}
		low += float64(lo * lt.weight)
	}
	return low
}

// dominated reports whether a point of the worker's incumbent beats the
// low corner of the subtree under the current design in every objective,
// so that it dominates every design of the subtree.
func (w *worker) dominated() bool {
	for m := range w.p.models {
		w.lo[m] = w.latticeLow(&w.p.models[m])
	}
	return w.inc.beats(w.lo)
}

// scoreList scores a chunk of a materialised list: each design is
// encoded once and its level indices resolved once per declaration
// group, for every model.
func (w *worker) scoreList(cfgs []space.Config) {
	nm := len(w.p.models)
	for j := range cfgs {
		cfg := &cfgs[j]
		if w.p.needVec {
			if w.p.needDVM {
				cfg.VectorDVMInto(w.x[:0])
			} else {
				cfg.VectorInto(w.x[:0])
			}
			for g, decl := range w.p.decls {
				n := w.p.width[g]
				rbf.ResolveLevels(decl, w.x[:n], w.lvls[g][:n])
			}
		}
		w.score(w.scores[j*nm:(j+1)*nm:(j+1)*nm], cfg)
	}
}

// scoreWindow scores window designs [start, end) in level-index space:
// it seeks the odometer once, then each tick rewrites only the digits
// that changed in x and the level indices. A Config is decoded per design
// only when some model is scored from one. It returns how many designs
// it scored.
//
// A pruning sweep (plan.bound > 0) tests each subtree the chunk holds
// whole — the designs sharing every digit before bound, aligned on the
// window's space — before scoring it. When a point of the worker's
// incumbent (a seed vector, or one the worker already scored in this
// sweep) beats the subtree's low corner in every objective, every
// design of the subtree is dominated: it is marked in the chunk's skip
// bitmap and stepped over with one tick at digit bound-1. At every
// subtree boundary, and at the chunk's end, the incumbent is offered the
// designs the worker scored since the last one that score lowest in
// some objective (offerBest): a few offers per subtree, where offering
// every design would cost more than scoring it once the frontier is
// large.
func (w *worker) scoreWindow(win *space.Window, t *levelTables, start, end int) int {
	nm, n := len(w.p.models), end-start
	w.x = t.base
	for g := range w.lvls {
		w.lvls[g] = t.lvl0[g]
	}
	idx := win.Levels.Seek(win.Offset + start)
	w.setDigits(t, &idx, 0)
	// next is the next row a whole subtree may start at.
	next, prune := n, w.p.bound > 0
	if prune {
		clear(w.skip)
		next = (w.p.sub - (win.Offset+start)%w.p.sub) % w.p.sub
	}
	var cfg *space.Config
	scored := 0
	for j := 0; j < n; {
		if j == next {
			w.offerBest()
			if next += w.p.sub; next <= n && w.dominated() {
				markRows(w.skip, j, next)
				j = next
				w.setDigits(t, &idx, win.Levels.TickAt(&idx, w.p.bound-1))
				continue
			}
		}
		if w.p.needCfg {
			w.cfg = win.Levels.Design(win.Base, idx)
			cfg = &w.cfg
		}
		w.score(w.scores[j*nm:(j+1)*nm:(j+1)*nm], cfg)
		if prune {
			w.track(j)
		}
		scored++
		j++
		w.setDigits(t, &idx, win.Levels.Tick(&idx))
	}
	if prune {
		w.offerBest()
	}
	return scored
}

// track records scored row j as the lowest in each objective where it
// scores below the current best row.
func (w *worker) track(j int) {
	nm := len(w.best)
	for m, b := range w.best {
		if b < 0 || w.scores[j*nm+m] < w.scores[b*nm+m] {
			w.best[m] = j
		}
	}
}

// offerBest offers the incumbent each tracked row and resets the tracking.
func (w *worker) offerBest() {
	nm := len(w.best)
	for m, b := range w.best {
		if b >= 0 {
			w.inc.offer(w.scores[b*nm : (b+1)*nm])
			w.best[m] = -1
		}
	}
}

// markRows sets bits [from, to) of the bitmap, a word at a time.
func markRows(bitmap []uint64, from, to int) {
	for from < to {
		n := min(to-from, 64-from&63)
		bitmap[from>>6] |= ^uint64(0) >> (64 - n) << (from & 63)
		from += n
	}
}

// setDigits rewrites parameters from..NumParams-1 of the current design
// from its level indices idx: the encoding and level indices when some
// model reads them, and every lattice term's offset prefix sums, which
// are exact in integers however they are grouped.
func (w *worker) setDigits(t *levelTables, idx *[space.NumParams]int, from int) {
	if w.p.needVec {
		for q := from; q < space.NumParams; q++ {
			l := idx[q]
			w.x[q] = t.feat[q][l]
			for g := range w.lvls {
				w.lvls[g][q] = t.lvl[g][q][l]
			}
		}
	}
	for i := range w.p.terms {
		off, pre := &w.p.terms[i].off, &w.pre[i]
		for q := from; q < space.NumParams; q++ {
			o := off[q][idx[q]]
			pre[q+1] = tabOff{pre[q].s + o.s, pre[q].g + o.g}
		}
	}
}

// evalChunks shards the source's designs into contiguous chunks claimed
// by workers off an atomic cursor (cheaper than a per-design channel at
// model-query rates of millions per second). emit is called once per
// finished chunk, possibly concurrently; the chunk and everything it
// views are worker scratch reused for the worker's next chunk, so emit
// must copy out what it retains.
//
// Each worker holds its own scratch (see worker), so the steady-state
// sweep performs zero heap allocations per design. A *core.Predictor
// is handed level indices resolved once per design for its whole
// declaration group — or, on a window, read from per-level tables — and
// scores a mean objective in coefficient space, never producing a trace.
// Any other model is scored through Predict on the design's Config.
func evalChunks(ctx context.Context, src source, models []core.DynamicsModel, objectives []Objective, opts Options, prune bool, seed [][]float64, emit func(c *chunk)) error {
	n := src.len()
	workers := opts.workers()
	if workers > n {
		workers = n
	}
	size := min(max(n/(workers*8), 1), 512)
	p := newPlan(models, objectives)
	var tables *levelTables
	// shift moves chunk boundaries onto multiples of size in the window's
	// space; the first chunk is short when the window starts off one.
	shift := 0
	if src.win != nil {
		tables = p.levelTables(src.win)
		p.bindLattice(src.win, tables)
		if prune {
			p.bindPrune(src.win)
			p.seed = seed
		}
		// A pruning sweep tests only the subtrees a chunk holds whole, so
		// its chunks are whole subtrees, aligned as the subtrees are.
		if p.bound > 0 {
			size = (size + p.sub - 1) / p.sub * p.sub
			shift = src.win.Offset % size
		}
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := p.newWorker(size)
			c := &chunk{m: len(models), win: src.win, skip: w.skip}
			for {
				start := int(cursor.Add(int64(size))) - size - shift
				if start >= n || ctx.Err() != nil {
					return
				}
				end := min(start+size, n)
				start = max(start, 0)
				var t0 time.Time
				if opts.ChunkDone != nil {
					t0 = time.Now()
				}
				scored := end - start
				if src.win != nil {
					scored = w.scoreWindow(src.win, tables, start, end)
				} else {
					c.cfgs = src.designs[start:end]
					w.scoreList(c.cfgs)
				}
				c.start, c.n, c.scores = start, end-start, w.scores[:(end-start)*len(models)]
				emit(c)
				if opts.ChunkDone != nil {
					opts.ChunkDone(end-start, scored, time.Since(t0))
				}
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
