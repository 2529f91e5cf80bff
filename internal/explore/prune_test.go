package explore

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
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
