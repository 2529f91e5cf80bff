package explore

import (
	"context"
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

// chunkCollector is implemented by the package's own collectors: they
// take a whole chunk under their own lock, so sweeps feed them without a
// shared per-design lock and never decode a Config they would drop.
type chunkCollector interface {
	collectChunk(c *chunk)
}

// collect streams the source's designs into the collectors. The
// package's own collectors take each chunk concurrently under their own
// locks; any other Collector keeps the per-design contract, called under
// one shared lock with the design's Config decoded once for all of them.
func collect(ctx context.Context, src source, models []core.DynamicsModel, objectives []Objective, opts Options, collectors []Collector) error {
	var own []chunkCollector
	var other []Collector
	for _, col := range collectors {
		if cc, ok := col.(chunkCollector); ok {
			own = append(own, cc)
		} else {
			other = append(other, col)
		}
	}
	var mu sync.Mutex
	return evalChunks(ctx, src, models, objectives, opts, func(c *chunk) {
		for _, cc := range own {
			cc.collectChunk(c)
		}
		if len(other) == 0 {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		for j := 0; j < c.n; j++ {
			cand := Candidate{Config: c.config(j), Scores: c.scoresOf(j)}
			for _, col := range other {
				col.Collect(c.start+j, cand)
			}
		}
	})
}

// evalKind is the route one model is scored by: the most specific
// interface the model offers for its objective.
type evalKind uint8

const (
	evalMeanLevels  evalKind = iota // mean objective on a core.LevelPredictor
	evalTraceLevels                 // trace objective on a core.LevelPredictor
	evalMeanVec                     // mean objective on a core.MeanVecPredictor
	evalVec                         // core.VecPredictor
	evalInto                        // core.IntoPredictor: needs the Config
	evalPredict                     // DynamicsModel.Predict: needs the Config
)

// modelPlan is one model's scoring route, resolved once per sweep.
type modelPlan struct {
	kind  evalKind
	nfeat int // width of the model's encoding (vector kinds)
	group int // index into plan.decls (level kinds)
	model core.DynamicsModel
	into  core.IntoPredictor
	vec   core.VecPredictor
	mean  core.MeanVecPredictor
	lev   core.LevelPredictor
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
	// needVec and needDVM say which feature encoding the vector kinds
	// share (the plain encoding is a prefix of the DVM one); needCfg that
	// some model is scored from the Config itself.
	needVec, needDVM, needCfg bool
}

func newPlan(models []core.DynamicsModel, objectives []Objective) *plan {
	p := &plan{models: make([]modelPlan, len(models))}
	for i, model := range models {
		mp := modelPlan{kind: evalPredict, model: model, score: objectives[i].Score}
		if ip, ok := model.(core.IntoPredictor); ok {
			mp.kind, mp.into = evalInto, ip
		}
		if vp, ok := model.(core.VecPredictor); ok {
			mp.kind, mp.vec, mp.nfeat = evalVec, vp, vp.NumFeatures()
			p.needVec = true
			p.needDVM = p.needDVM || mp.nfeat > space.NumParams
		}
		if mvp, ok := model.(core.MeanVecPredictor); ok && objectives[i].mean {
			mp.kind, mp.mean = evalMeanVec, mvp
		}
		if lp, ok := model.(core.LevelPredictor); ok && lp.DimLevels() != nil {
			mp.kind, mp.lev = evalTraceLevels, lp
			if objectives[i].mean {
				mp.kind = evalMeanLevels
			}
			mp.group = p.declGroup(lp.DimLevels(), mp.nfeat)
		}
		p.needCfg = p.needCfg || mp.kind >= evalInto
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

// worker is one sweep goroutine's scratch: its chunk's scores, one trace
// buffer per model, the current design's encoding x and its level
// indices per declaration group, and — on window sweeps whose models
// need one — the current design's decoded Config.
type worker struct {
	p      *plan
	scores []float64
	traces [][]float64
	x      [space.MaxFeatures]float64
	lvls   [][space.MaxFeatures]int
	cfg    space.Config
}

func (p *plan) newWorker(chunk int) *worker {
	return &worker{
		p:      p,
		scores: make([]float64, chunk*len(p.models)),
		traces: make([][]float64, len(p.models)),
		lvls:   make([][space.MaxFeatures]int, len(p.decls)),
	}
}

// score scores the current design (w.x, w.lvls and, for the Config
// kinds, cfg) into s, one entry per model.
func (w *worker) score(s []float64, cfg *space.Config) {
	for m := range w.p.models {
		mp := &w.p.models[m]
		x := w.x[:mp.nfeat]
		var trace []float64
		switch mp.kind {
		case evalMeanLevels:
			s[m] = mp.lev.PredictMeanLevels(x, w.lvls[mp.group][:mp.nfeat])
			continue
		case evalTraceLevels:
			w.traces[m] = mp.lev.PredictVecLevelsInto(x, w.lvls[mp.group][:mp.nfeat], w.traces[m])
			trace = w.traces[m]
		case evalMeanVec:
			s[m] = mp.mean.PredictMeanVec(x)
			continue
		case evalVec:
			w.traces[m] = mp.vec.PredictVecInto(x, w.traces[m])
			trace = w.traces[m]
		case evalInto:
			w.traces[m] = mp.into.PredictInto(*cfg, w.traces[m])
			trace = w.traces[m]
		default:
			trace = mp.model.Predict(*cfg)
		}
		s[m] = mp.score(trace)
	}
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
// only when some model is scored from one.
func (w *worker) scoreWindow(win *space.Window, t *levelTables, start, end int) {
	nm := len(w.p.models)
	w.x = t.base
	for g := range w.lvls {
		w.lvls[g] = t.lvl0[g]
	}
	idx := win.Levels.Seek(win.Offset + start)
	w.setDigits(t, &idx, 0)
	var cfg *space.Config
	for j := 0; j < end-start; j++ {
		if w.p.needCfg {
			w.cfg = win.Levels.Design(win.Base, idx)
			cfg = &w.cfg
		}
		w.score(w.scores[j*nm:(j+1)*nm:(j+1)*nm], cfg)
		w.setDigits(t, &idx, win.Levels.Tick(&idx))
	}
}

// setDigits rewrites parameters from..NumParams-1 of the current design
// from its level indices idx.
func (w *worker) setDigits(t *levelTables, idx *[space.NumParams]int, from int) {
	for q := from; q < space.NumParams; q++ {
		l := idx[q]
		w.x[q] = t.feat[q][l]
		for g := range w.lvls {
			w.lvls[g][q] = t.lvl[g][q][l]
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
// sweep performs zero heap allocations per design. A mean objective on a
// core.MeanVecPredictor is scored in coefficient space and never produces
// a trace; a core.LevelPredictor is handed level indices resolved once
// per design for its whole declaration group — or, on a window, read
// from per-level tables.
func evalChunks(ctx context.Context, src source, models []core.DynamicsModel, objectives []Objective, opts Options, emit func(c *chunk)) error {
	n := src.len()
	workers := opts.workers()
	if workers > n {
		workers = n
	}
	var completed atomic.Int64
	size := min(max(n/(workers*8), 1), 512)
	p := newPlan(models, objectives)
	var tables *levelTables
	if src.win != nil {
		tables = p.levelTables(src.win)
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := p.newWorker(size)
			c := &chunk{m: len(models), win: src.win}
			for {
				start := int(cursor.Add(int64(size))) - size
				if start >= n || ctx.Err() != nil {
					return
				}
				end := min(start+size, n)
				var t0 time.Time
				if opts.ChunkDone != nil {
					t0 = time.Now()
				}
				if src.win != nil {
					w.scoreWindow(src.win, tables, start, end)
				} else {
					c.cfgs = src.designs[start:end]
					w.scoreList(c.cfgs)
				}
				c.start, c.n, c.scores = start, end-start, w.scores[:(end-start)*len(models)]
				emit(c)
				if opts.ChunkDone != nil {
					opts.ChunkDone(end-start, time.Since(t0))
				}
				if opts.Progress != nil {
					opts.Progress(int(completed.Add(int64(end - start))))
				}
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
