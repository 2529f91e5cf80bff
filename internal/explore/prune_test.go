package explore

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/space"
)

// pruneModels trains two Haar predictors on trainedModels' designs
// whose mean objectives conflict in fetch width (the first falls with
// it, the second rises) but agree in ROB and IQ size (both rise), so
// designs with large windows are dominated, and the last three
// parameters — a subtree's free digits — move each a little.
func pruneModels(t testing.TB) (cpi, power core.DynamicsModel) {
	t.Helper()
	fit := func(trace func(x []float64, s int) float64) core.DynamicsModel {
		train, traces := syntheticSet(trace)
		p, err := core.Train(train, traces, core.Options{NumCoefficients: 8})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cpi = fit(func(x []float64, s int) float64 {
		return 3 - 2*x[0] + 1.5*x[1] + x[2] + 0.1*x[8]*float64(s%2)
	})
	power = fit(func(x []float64, s int) float64 {
		return 20 + 60*x[0] + 20*x[1] + 10*x[2] + 2*x[7]
	})
	return cpi, power
}

// countScored returns Options whose ChunkDone sums the designs the sweep
// covered and scored into the returned counters.
func countScored(workers int) (Options, *atomic.Int64, *atomic.Int64) {
	var covered, scored atomic.Int64
	return Options{Workers: workers, ChunkDone: func(c, s int, _ time.Duration) {
		covered.Add(int64(c))
		scored.Add(int64(s))
	}}, &covered, &scored
}

// TestPruneMatchesListSweep holds pruning window sweeps — every collector
// a FrontierCollector — to SweepStream over the materialised window,
// which never prunes: the same frontier byte for byte (as a set when
// exactly tied points may arrive in worker-dependent order), and Seen
// counting every design, pruned or not. The cases are adversarial:
//
//   - conflict: two lattice models whose objectives conflict, so pruning
//     happens, over windows whose Offset and Count are not aligned on
//     the 64-design subtrees, at 1, 2 and 4 workers;
//   - ties: the same models over a space whose suffix and prefix
//     parameters repeat a level, so whole subtrees are exact duplicates
//     of each other and frontier points have exact duplicates, all of
//     which must survive;
//   - flat: a model without an average coefficient scores exactly 0 on
//     the lattice, so no point beats any subtree there and nothing
//     prunes;
//   - mixed: a DVM-feature model keeps the level route, which has no
//     finite low corner, so nothing prunes.
func TestPruneMatchesListSweep(t *testing.T) {
	cases := latticeCases(t)
	byName := func(name string) core.DynamicsModel {
		for _, c := range cases {
			if c.name == name {
				return c.model
			}
		}
		t.Fatalf("no lattice case %q", name)
		return nil
	}
	cpi, power := pruneModels(t)
	train, test := space.TrainLevels(), space.TestLevels()
	tied := train
	tied[1] = []int{96, 96, 160}
	tied[7] = []int{8, 8, 32, 64}
	tied[8] = []int{1, 2, 2, 4}
	unaligned := []space.Window{
		{Levels: train, Offset: 12345, Count: 20011},
		{Levels: train, Offset: 63, Count: 130},
		{Levels: test, Offset: 777, Count: 3001},
	}
	for _, tc := range []struct {
		name    string
		models  []core.DynamicsModel
		windows []space.Window
		prunes  bool
	}{
		{"conflict", []core.DynamicsModel{cpi, power}, append(unaligned, space.Window{Levels: train, Count: train.NumDesigns()}), true},
		{"ties", []core.DynamicsModel{cpi, power}, []space.Window{{Levels: tied, Count: tied.NumDesigns()}, {Levels: tied, Offset: 1000, Count: 9999}}, true},
		{"flat", []core.DynamicsModel{byName("no-average"), power}, unaligned, false},
		{"mixed", []core.DynamicsModel{cpi, power, byName("dvm")}, unaligned, false},
	} {
		objectives := make([]Objective, len(tc.models))
		for i := range objectives {
			objectives[i] = MeanObjective(fmt.Sprint("m", i))
		}
		ties := 0
		for _, w := range tc.windows {
			w.Base = space.Baseline()
			ref := NewFrontierCollector()
			if err := SweepStream(context.Background(), w.Designs(), tc.models, objectives, Options{Workers: 1}, ref); err != nil {
				t.Fatal(err)
			}
			want := ref.Frontier()
			for i := 1; i < len(want); i++ {
				if reflect.DeepEqual(want[i].Scores, want[i-1].Scores) {
					ties++
				}
			}
			for _, workers := range []int{1, 2, 4} {
				name := fmt.Sprintf("%s offset=%d count=%d workers=%d", tc.name, w.Offset, w.Count, workers)
				opts, covered, scored := countScored(workers)
				fc := NewFrontierCollector()
				if err := SweepWindow(context.Background(), w, tc.models, objectives, opts, fc); err != nil {
					t.Fatal(err)
				}
				got := fc.Frontier()
				if workers == 1 && !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: pruned frontier differs from the list sweep's", name)
				}
				if !reflect.DeepEqual(frontierSet(got), frontierSet(want)) {
					t.Fatalf("%s: pruned frontier set differs from the list sweep's", name)
				}
				if fc.Seen() != w.Count || covered.Load() != int64(w.Count) {
					t.Fatalf("%s: Seen %d, covered %d; want every one of %d designs", name, fc.Seen(), covered.Load(), w.Count)
				}
				if pruned := scored.Load() < covered.Load(); pruned != tc.prunes && (w.Count > 1000 || !tc.prunes) {
					t.Fatalf("%s: scored %d of %d designs; want pruning %v", name, scored.Load(), covered.Load(), tc.prunes)
				}
			}
		}
		if tc.name == "ties" && ties == 0 {
			t.Fatal("ties: no frontier held exactly equal score vectors; the case tests nothing")
		}
	}
}

// TestSmallWindowsPrune holds a pruning sweep to chunks cut on subtree
// boundaries: a window too small for full-size chunks, and one that
// starts off a subtree boundary, still prune on one worker, and answer
// byte for byte what the unpruned list sweep does.
func TestSmallWindowsPrune(t *testing.T) {
	cpi, power := pruneModels(t)
	models := []core.DynamicsModel{cpi, power}
	objectives := []Objective{MeanObjective("cpi"), MeanObjective("power")}
	ctx := context.Background()
	for _, w := range []space.Window{
		{Levels: space.TrainLevels(), Base: space.Baseline(), Count: 500},
		{Levels: space.TrainLevels(), Base: space.Baseline(), Offset: 4633, Count: 1000},
	} {
		ref := NewFrontierCollector()
		if err := SweepStream(ctx, w.Designs(), models, objectives, Options{Workers: 1}, ref); err != nil {
			t.Fatal(err)
		}
		opts, covered, scored := countScored(1)
		fc := NewFrontierCollector()
		if err := SweepWindow(ctx, w, models, objectives, opts, fc); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fc.Frontier(), ref.Frontier()) || fc.Seen() != ref.Seen() {
			t.Fatalf("offset %d count %d: pruned frontier (seen %d) differs from the list sweep's (seen %d)", w.Offset, w.Count, fc.Seen(), ref.Seen())
		}
		if covered.Load() != int64(w.Count) || scored.Load() >= covered.Load() {
			t.Errorf("offset %d count %d: scored %d of %d covered designs; want fewer than all %d", w.Offset, w.Count, scored.Load(), covered.Load(), w.Count)
		}
	}
}

// TestPruneOnlyForFrontiers checks the pruning scope: a sweep that also
// feeds a TopK, whose feasible count needs every score, and a list sweep
// score every design; a window sweep into FrontierCollectors alone skips
// some.
func TestPruneOnlyForFrontiers(t *testing.T) {
	cpi, power := pruneModels(t)
	models := []core.DynamicsModel{cpi, power}
	objectives := []Objective{MeanObjective("cpi"), MeanObjective("power")}
	w := space.Window{Levels: space.TrainLevels(), Base: space.Baseline(), Count: 30000}
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		sweep  func(Options) error
		prunes bool
	}{
		{"window+topk", func(o Options) error {
			return SweepWindow(ctx, w, models, objectives, o, NewFrontierCollector(), NewTopK(3, 0, nil))
		}, false},
		{"list", func(o Options) error {
			return SweepStream(ctx, w.Designs(), models, objectives, o, NewFrontierCollector())
		}, false},
		{"window+frontiers", func(o Options) error {
			return SweepWindow(ctx, w, models, objectives, o, NewFrontierCollector(), NewFrontierCollector())
		}, true},
	} {
		opts, covered, scored := countScored(2)
		if err := tc.sweep(opts); err != nil {
			t.Fatal(err)
		}
		if pruned := scored.Load() < covered.Load(); pruned != tc.prunes || covered.Load() != int64(w.Count) {
			t.Errorf("%s: scored %d of %d covered designs (window %d); want pruning %v", tc.name, scored.Load(), covered.Load(), w.Count, tc.prunes)
		}
	}
}

// TestLatticeLowBoundsEverySubtree walks the whole train window and
// requires every design's lattice mean to be at least its subtree's low
// corner (latticeLow at the subtree's first design), for each model, with
// the mean terms' weights as trained, negated and scaled: a negative
// weight must take the term's high end. Trained Haar means have positive
// weights only, so the negated cases are the ones that reach that branch.
func TestLatticeLowBoundsEverySubtree(t *testing.T) {
	cpi, power := pruneModels(t)
	models := []core.DynamicsModel{cpi, power}
	objectives := []Objective{MeanObjective("cpi"), MeanObjective("power")}
	w := space.Window{Levels: space.TrainLevels(), Base: space.Baseline(), Count: space.TrainLevels().NumDesigns()}
	for _, scale := range []float64{1, -1, -0.37} {
		p := newPlan(models, objectives)
		tables := p.levelTables(&w)
		p.bindLattice(&w, tables)
		p.bindPrune(&w)
		if p.bound != 6 || p.sub != 64 {
			t.Fatalf("subtrees from digit %d of %d designs; want 6 and 64", p.bound, p.sub)
		}
		for i := range p.terms {
			p.terms[i].weight *= scale
		}
		wk := p.newWorker(1)
		idx := w.Levels.Seek(0)
		wk.setDigits(tables, &idx, 0)
		low := make([]float64, len(models))
		tight := 0
		for j := 0; j < w.Count; j++ {
			for m := range p.models {
				if j%p.sub == 0 {
					low[m] = wk.latticeLow(&p.models[m])
				}
				v := wk.latticeMean(&p.models[m])
				if v < low[m] {
					t.Fatalf("weights ×%v: design %d model %d scores %v below its subtree's low corner %v", scale, j, m, v, low[m])
				}
				if v == low[m] {
					tight++
				}
			}
			wk.setDigits(tables, &idx, w.Levels.Tick(&idx))
		}
		if tight == 0 {
			t.Errorf("weights ×%v: no design scored its subtree's low corner; the bound is never tight", scale)
		}
	}
}

// TestSeededPruneMatchesUnseeded seeds pruning window sweeps, as a fleet
// shard is seeded with its job's merged frontier, and holds them to the
// unseeded sweep. Seeds are random subsets of the window's true frontier
// scores, mixed with the scores of real designs that frontier dominates:
// neither beats a frontier point, so the frontier must come back byte
// for byte, with Seen and the covered count at every design, and no
// more designs scored than unseeded on one worker. A shard of the window
// seeded with the whole frontier answers its own unseeded frontier less
// exactly the points a seed vector beats in every objective.
func TestSeededPruneMatchesUnseeded(t *testing.T) {
	cpi, power := pruneModels(t)
	models := []core.DynamicsModel{cpi, power}
	objectives := []Objective{MeanObjective("cpi"), MeanObjective("power")}
	train := space.TrainLevels()
	ctx := context.Background()
	rng := mathx.NewRNG(33)
	for _, w := range []space.Window{
		{Levels: train, Count: train.NumDesigns()},
		{Levels: train, Offset: 12345, Count: 20011},
		{Levels: space.TestLevels(), Offset: 777, Count: 3001},
	} {
		w.Base = space.Baseline()
		sweep := func(workers int, seed [][]float64) (*FrontierCollector, int64) {
			t.Helper()
			opts, covered, scored := countScored(workers)
			fc := NewFrontierCollector()
			fc.Seed(seed)
			if err := SweepWindow(ctx, w, models, objectives, opts, fc); err != nil {
				t.Fatal(err)
			}
			if fc.Seen() != w.Count || covered.Load() != int64(w.Count) {
				t.Fatalf("window %d+%d: Seen %d, covered %d; want %d", w.Offset, w.Count, fc.Seen(), covered.Load(), w.Count)
			}
			return fc, scored.Load()
		}
		ref, base := sweep(1, nil)
		want := ref.Frontier()
		// Real designs the frontier dominates: every 499th design of the
		// window, scored by the unpruned list sweep.
		var sample []space.Config
		for i, d := range w.Designs() {
			if i%499 == 0 {
				sample = append(sample, d)
			}
		}
		res, err := SweepContext(ctx, sample, models, objectives, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var dominated [][]float64
		for _, c := range res.Evaluated {
			if slices.ContainsFunc(want, func(f Candidate) bool { return dominatesScores(f.Scores, c.Scores) }) {
				dominated = append(dominated, c.Scores)
			}
		}
		if len(dominated) == 0 || len(want) < 4 {
			t.Fatalf("window %d+%d: %d frontier points, %d dominated samples; the case tests nothing", w.Offset, w.Count, len(want), len(dominated))
		}
		fewer := false
		for trial := range 12 {
			var seed [][]float64
			for _, c := range want {
				if rng.Float64() < 0.4 || trial == 0 {
					seed = append(seed, c.Scores)
				}
			}
			for range trial % 4 {
				seed = append(seed, dominated[rng.Intn(len(dominated))])
			}
			for i := len(seed) - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				seed[i], seed[j] = seed[j], seed[i]
			}
			for _, workers := range []int{1, 2} {
				fc, scored := sweep(workers, seed)
				got := fc.Frontier()
				if workers == 1 && !reflect.DeepEqual(got, want) {
					t.Fatalf("window %d+%d trial %d: seeded frontier differs from the unseeded one", w.Offset, w.Count, trial)
				}
				if !reflect.DeepEqual(frontierSet(got), frontierSet(want)) {
					t.Fatalf("window %d+%d trial %d workers=%d: seeded frontier set differs", w.Offset, w.Count, trial, workers)
				}
				if workers == 1 && scored > base {
					t.Fatalf("window %d+%d trial %d: seeded sweep scored %d designs, unseeded %d", w.Offset, w.Count, trial, scored, base)
				}
				fewer = fewer || scored < base
			}
		}
		if !fewer {
			t.Errorf("window %d+%d: no seed pruned anything the unseeded sweep scored", w.Offset, w.Count)
		}

		// One 2,048-design shard of the window, seeded with the window's
		// whole frontier.
		shard := space.Window{Levels: w.Levels, Base: w.Base, Offset: w.Offset + w.Count/3, Count: 2048}
		seed := make([][]float64, len(want))
		for i, c := range want {
			seed[i] = c.Scores
		}
		alone := NewFrontierCollector()
		seeded := NewFrontierCollector()
		seeded.Seed(seed)
		for _, fc := range []*FrontierCollector{alone, seeded} {
			if err := SweepWindow(ctx, shard, models, objectives, Options{Workers: 1}, fc); err != nil {
				t.Fatal(err)
			}
		}
		wantShard := slices.DeleteFunc(alone.Frontier(), func(c Candidate) bool {
			return slices.ContainsFunc(seed, func(s []float64) bool { return below(s, c.Scores) })
		})
		if got := seeded.Frontier(); !reflect.DeepEqual(got, wantShard) {
			t.Fatalf("window %d+%d: seeded shard kept %d points, want its %d unbeaten ones", w.Offset, w.Count, len(got), len(wantShard))
		}
	}
}

// TestSeedRejectsWidthMismatch: a seed vector with a score per objective
// is the sweep's contract; any other width is an error, not a silent
// prefix comparison.
func TestSeedRejectsWidthMismatch(t *testing.T) {
	cpi, power := pruneModels(t)
	fc := NewFrontierCollector()
	fc.Seed([][]float64{{1}})
	w := space.Window{Levels: space.TrainLevels(), Base: space.Baseline(), Count: 100}
	err := SweepWindow(context.Background(), w, []core.DynamicsModel{cpi, power},
		[]Objective{MeanObjective("cpi"), MeanObjective("power")}, Options{Workers: 1}, fc)
	if err == nil {
		t.Fatal("a one-score seed vector on a two-objective sweep was accepted")
	}
}
