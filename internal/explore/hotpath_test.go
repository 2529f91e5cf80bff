package explore

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/space"
)

// trainedModels fits two real predictors on a small synthetic set — one
// on the plain encoding and one on the DVM encoding, so the pair spans
// two level declarations — and hot-path tests exercise the sweep's
// scratch-reusing level routes through genuine wavelet/RBF inference.
func trainedModels(t testing.TB) []core.DynamicsModel {
	t.Helper()
	train, traces := syntheticSet(func(x []float64, s int) float64 {
		v := 1 + 2*x[0]
		if s >= 16 && s < 32 {
			v += 3 * x[4]
		}
		return v
	})
	p, err := core.Train(train, traces, core.Options{NumCoefficients: 8})
	if err != nil {
		t.Fatal(err)
	}
	dvm, err := core.Train(train, traces, core.Options{NumCoefficients: 8, UseDVMFeatures: true})
	if err != nil {
		t.Fatal(err)
	}
	return []core.DynamicsModel{p, dvm}
}

// syntheticSet draws trainedModels' 100 training designs and gives each a
// 64-sample trace whose sample s is trace(design features, s).
func syntheticSet(trace func(x []float64, s int) float64) ([]space.Config, [][]float64) {
	rng := mathx.NewRNG(40)
	train := space.LHS(100, space.TrainLevels(), space.Baseline(), rng)
	traces := make([][]float64, len(train))
	for i, cfg := range train {
		x := cfg.Vector()
		tr := make([]float64, 64)
		for s := range tr {
			tr[s] = trace(x, s)
		}
		traces[i] = tr
	}
	return train, traces
}

// predictOnly hides a *core.Predictor behind core.DynamicsModel, so
// sweeps score it through the allocating Predict route.
type predictOnly struct{ m core.DynamicsModel }

func (p predictOnly) Predict(cfg space.Config) []float64 { return p.m.Predict(cfg) }

// TestSweepScratchPathMatchesReference is the old-vs-new property test:
// the scratch-reusing engine must score every design like the reference
// sequential loop over DynamicsModel.Predict. Trace objectives (worst
// case) match it exactly. A mean objective on a predictor matches
// PredictMean exactly and the trace mean to rounding; with the level
// route hidden, it is the trace mean again.
func TestSweepScratchPathMatchesReference(t *testing.T) {
	models := trainedModels(t)
	fallback := make([]core.DynamicsModel, len(models))
	for i, m := range models {
		fallback[i] = predictOnly{m: m}
	}
	objectives := []Objective{MeanObjective("cpi"), WorstCaseObjective("cpi_peak")}
	rng := mathx.NewRNG(41)
	designs := space.Random(700, space.TestLevels(), space.Baseline(), rng)

	// Reference: the definitional path, one Predict per (design, model).
	want := make([][]float64, len(designs))
	for i, cfg := range designs {
		want[i] = make([]float64, len(models))
		for m, model := range models {
			want[i][m] = objectives[m].Score(model.Predict(cfg))
		}
	}
	meanModel, ok := models[0].(*core.Predictor)
	if !ok {
		t.Fatalf("model 0 is %T, want a *core.Predictor", models[0])
	}

	for _, tc := range []struct {
		name   string
		models []core.DynamicsModel
	}{
		{"levels", models}, {"predict-only", fallback},
	} {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			res, err := SweepContext(context.Background(), designs, tc.models, objectives, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i, cfg := range designs {
				for m := range tc.models {
					got, exact := res.Evaluated[i].Scores[m], want[i][m]
					if m == 0 && tc.name == "levels" {
						exact = meanModel.PredictMean(cfg)
						if math.Abs(got-want[i][m]) > 1e-15*math.Abs(want[i][m]) {
							t.Fatalf("%s/workers=%d: design %d mean %v, trace mean %v", tc.name, workers, i, got, want[i][m])
						}
					}
					if got != exact {
						t.Fatalf("%s/workers=%d: design %d objective %d = %v, want %v",
							tc.name, workers, i, m, got, exact)
					}
				}
			}
		}
	}
}

// TestSweepSteadyStateAllocs asserts the tentpole's zero-allocation
// contract: amortised over a large sweep, the per-design allocation count
// on the streaming path is (indistinguishable from) zero — only per-sweep
// setup (goroutines, worker scratch, collector retention) allocates.
func TestSweepSteadyStateAllocs(t *testing.T) {
	models := trainedModels(t)
	objectives := []Objective{MeanObjective("cpi"), WorstCaseObjective("cpi_peak")}
	rng := mathx.NewRNG(42)
	const n = 8192
	designs := space.Random(n, space.TestLevels(), space.Baseline(), rng)
	ctx := context.Background()

	allocs := testing.AllocsPerRun(3, func() {
		top := NewTopK(8, 0, nil)
		if err := SweepStream(ctx, designs, models, objectives, Options{Workers: 1}, top); err != nil {
			t.Fatal(err)
		}
	})
	if perDesign := allocs / n; perDesign > 0.01 {
		t.Errorf("streaming sweep allocates %.4f/design (%.0f total), want ≤0.01", perDesign, allocs)
	}
}

// TestInstrumentedSweepSteadyStateAllocs re-proves the zero-alloc
// contract with the observability hooks attached the way cmd/dsed
// attaches them: a ChunkDone observer feeding pre-registered obs
// histograms and a counter. Instrumentation must not buy its
// latency signal with per-design garbage.
func TestInstrumentedSweepSteadyStateAllocs(t *testing.T) {
	models := trainedModels(t)
	objectives := []Objective{MeanObjective("cpi"), WorstCaseObjective("cpi_peak")}
	rng := mathx.NewRNG(43)
	const n = 8192
	designs := space.Random(n, space.TestLevels(), space.Baseline(), rng)
	ctx := context.Background()

	reg := obs.NewRegistry(nil)
	chunkMS := reg.Histogram("dsed_explore_chunk_ms", "", obs.LatencyMSBuckets)
	chunkN := reg.Histogram("dsed_explore_chunk_designs", "", obs.SizeBuckets)
	covered := reg.Counter("dsed_explore_designs_covered_total", "")
	opts := Options{
		Workers: 1,
		ChunkDone: func(designs, _ int, elapsed time.Duration) {
			chunkN.Observe(float64(designs))
			chunkMS.Observe(float64(elapsed.Microseconds()) / 1000)
			covered.Add(int64(designs))
		},
	}

	allocs := testing.AllocsPerRun(3, func() {
		top := NewTopK(8, 0, nil)
		if err := SweepStream(ctx, designs, models, objectives, opts, top); err != nil {
			t.Fatal(err)
		}
	})
	if perDesign := allocs / n; perDesign > 0.01 {
		t.Errorf("instrumented sweep allocates %.4f/design (%.0f total), want ≤0.01", perDesign, allocs)
	}
	if chunkMS.Count() == 0 || chunkN.Count() == 0 {
		t.Errorf("chunk observer never fired")
	}
	// AllocsPerRun sweeps once more than it averages over.
	if got := covered.Value(); got != 4*n {
		t.Errorf("chunks covered %v designs over 4 sweeps, want %d", got, 4*n)
	}
}

// TestWindowSweepSteadyStateAllocs extends the zero-alloc contract to
// the window source: enumerating designs into worker scratch instead of
// reading a materialised list must not cost a per-design allocation.
func TestWindowSweepSteadyStateAllocs(t *testing.T) {
	models := trainedModels(t)
	objectives := []Objective{MeanObjective("cpi"), WorstCaseObjective("cpi_peak")}
	const n = 8192
	w := space.Window{Levels: space.TrainLevels(), Base: space.Baseline(), Offset: 4321, Count: n}
	ctx := context.Background()

	var completed int
	opts := Options{
		Workers:   1,
		ChunkDone: func(covered, _ int, _ time.Duration) { completed += covered },
	}
	allocs := testing.AllocsPerRun(3, func() {
		completed = 0
		top := NewTopK(8, 0, nil)
		if err := SweepWindow(ctx, w, models, objectives, opts, top, NewFrontierCollector()); err != nil {
			t.Fatal(err)
		}
	})
	if perDesign := allocs / n; perDesign > 0.01 {
		t.Errorf("window sweep allocates %.4f/design (%.0f total), want ≤0.01", perDesign, allocs)
	}
	if completed != n {
		t.Errorf("progress reached %d, want %d", completed, n)
	}
}

// TestPruningWindowSweepSteadyStateAllocs is the zero-alloc contract on
// a pruning window sweep: two lattice models into a FrontierCollector
// alone, so subtree tests, skips and the worker's incumbent run on the
// hot path. The sweep must prune, and every design must still count.
func TestPruningWindowSweepSteadyStateAllocs(t *testing.T) {
	cpi, power := pruneModels(t)
	models := []core.DynamicsModel{cpi, power}
	objectives := []Objective{MeanObjective("cpi"), MeanObjective("power")}
	const n = 65536
	w := space.Window{Levels: space.TrainLevels(), Base: space.Baseline(), Offset: 4321, Count: n}
	ctx := context.Background()
	opts, covered, scored := countScored(1)
	allocs := testing.AllocsPerRun(3, func() {
		if err := SweepWindow(ctx, w, models, objectives, opts, NewFrontierCollector()); err != nil {
			t.Fatal(err)
		}
	})
	if perDesign := allocs / n; perDesign > 0.01 {
		t.Errorf("pruning window sweep allocates %.4f/design (%.0f total), want ≤0.01", perDesign, allocs)
	}
	if covered.Load() != 4*n || scored.Load() >= covered.Load() {
		t.Errorf("4 sweeps covered %d designs and scored %d; want %d covered and fewer scored", covered.Load(), scored.Load(), 4*n)
	}
}

// TestWindowWorstCaseSweepSteadyStateAllocs is the zero-alloc contract
// on the window source's trace route: worst-case objectives make both
// predictors write a whole trace (PredictVecLevelsInto) into worker
// scratch.
func TestWindowWorstCaseSweepSteadyStateAllocs(t *testing.T) {
	models := trainedModels(t)
	objectives := []Objective{WorstCaseObjective("cpi_peak"), WorstCaseObjective("dvm_peak")}
	const n = 8192
	w := space.Window{Levels: space.TrainLevels(), Base: space.Baseline(), Offset: 777, Count: n}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(3, func() {
		if err := SweepWindow(ctx, w, models, objectives, Options{Workers: 1}, NewTopK(8, 0, nil), NewFrontierCollector()); err != nil {
			t.Fatal(err)
		}
	})
	if perDesign := allocs / n; perDesign > 0.01 {
		t.Errorf("worst-case window sweep allocates %.4f/design (%.0f total), want ≤0.01", perDesign, allocs)
	}
}

// TestCollectorSnapshotsDuringSweep polls every snapshot method of TopK
// and FrontierCollector from another goroutine while SweepWindow and
// SweepStream collect into them. Under -race it proves the collectors'
// own locks cover chunk collection and snapshots; the polled sweeps must
// still answer exactly what unpolled ones do.
func TestCollectorSnapshotsDuringSweep(t *testing.T) {
	models := trainedModels(t)
	objectives := []Objective{MeanObjective("cpi"), WorstCaseObjective("cpi_peak")}
	w := space.Window{Levels: space.TestLevels(), Base: space.Baseline(), Count: space.TestLevels().NumDesigns()}
	designs := w.Designs()
	ctx := context.Background()
	opts := Options{Workers: runtime.GOMAXPROCS(0)}
	for _, tc := range []struct {
		name  string
		sweep func(cols ...Collector) error
	}{
		{"window", func(cols ...Collector) error { return SweepWindow(ctx, w, models, objectives, opts, cols...) }},
		{"list", func(cols ...Collector) error { return SweepStream(ctx, designs, models, objectives, opts, cols...) }},
	} {
		wantTop, wantFront := NewTopK(5, 0, nil), NewFrontierCollector()
		if err := tc.sweep(wantTop, wantFront); err != nil {
			t.Fatal(err)
		}
		top, fc := NewTopK(5, 0, nil), NewFrontierCollector()
		stop, done := make(chan struct{}), make(chan struct{})
		var polls int
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n := top.Seen(); n > w.Count || top.Feasible() > w.Count || len(top.Results()) > 5 || len(top.entries()) > 5 {
					t.Errorf("%s: top-K snapshot out of bounds (seen %d)", tc.name, n)
				}
				if n := fc.Seen(); n > w.Count {
					t.Errorf("%s: frontier saw %d of %d designs", tc.name, n, w.Count)
				}
				_ = fc.Frontier()
				polls++
			}
		}()
		err := tc.sweep(top, fc)
		close(stop)
		<-done
		if err != nil {
			t.Fatal(err)
		}
		if polls == 0 {
			t.Errorf("%s: the snapshot reader never ran", tc.name)
		}
		if !reflect.DeepEqual(top.entries(), wantTop.entries()) || !reflect.DeepEqual(frontierSet(fc.Frontier()), frontierSet(wantFront.Frontier())) {
			t.Errorf("%s: a polled sweep answered differently from an unpolled one", tc.name)
		}
	}
}

// TestCollectorsCopyScratchScores proves collectors own their retained
// scores: corrupting the caller's Scores buffer after Collect must not
// change what the collector reports, and snapshots taken mid-collection
// must not be disturbed by later evictions recycling buffers.
func TestCollectorsCopyScratchScores(t *testing.T) {
	scratch := make([]float64, 2)
	offer := func(c Collector, i int, a, b float64) {
		scratch[0], scratch[1] = a, b
		c.Collect(i, Candidate{Scores: scratch})
		scratch[0], scratch[1] = -999, -999 // simulate worker reuse
	}

	top := NewTopK(2, 0, nil)
	offer(top, 0, 5, 1)
	offer(top, 1, 3, 1)
	offer(top, 2, 4, 1) // evicts 5, reuses its buffer
	got := top.Results()
	if got[0].Scores[0] != 3 || got[1].Scores[0] != 4 {
		t.Errorf("TopK results corrupted by scratch reuse: %v", got)
	}

	fc := NewFrontierCollector()
	offer(fc, 0, 5, 5)
	offer(fc, 1, 1, 9)
	snap := fc.Frontier()
	offer(fc, 2, 4, 4) // evicts (5,5); its buffer goes to the free list
	offer(fc, 3, 2, 2) // evicts (4,4); reuses a recycled buffer
	if len(snap) != 2 || snap[0].Scores[0] != 1 || snap[1].Scores[0] != 5 {
		t.Errorf("mid-sweep snapshot disturbed by later evictions: %v", snap)
	}
	final := fc.Frontier()
	if len(final) != 2 || final[0].Scores[0] != 1 || final[1].Scores[0] != 2 {
		t.Errorf("frontier corrupted by scratch reuse: %v", final)
	}
}
