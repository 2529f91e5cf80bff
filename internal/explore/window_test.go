package explore

import (
	"context"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/rbf"
	"repro/internal/space"
	"repro/internal/wavelet"
)

// tieModel is a VecPredictor whose trace ignores the last two swept
// parameters, so designs that differ only there score exactly alike and
// a frontier over two tieModels holds many exactly equal score vectors.
type tieModel struct{ w [space.NumParams]float64 }

func (m tieModel) Predict(cfg space.Config) []float64 { return m.PredictInto(cfg, nil) }

func (m tieModel) PredictInto(cfg space.Config, dst []float64) []float64 {
	return m.PredictVecInto(cfg.Vector(), dst)
}

func (m tieModel) NumFeatures() int { return space.NumParams }

func (m tieModel) PredictVecInto(x []float64, dst []float64) []float64 {
	v := 0.0
	for j := 0; j < space.NumParams-2; j++ {
		v += m.w[j] * x[j]
	}
	dst = append(dst[:0], v, v+1, v)
	return dst
}

var _ core.VecPredictor = tieModel{}

// indexCase is one models/objectives pairing of the exactness matrix.
type indexCase struct {
	name       string
	models     []core.DynamicsModel
	objectives []Objective
	// dvmBase also sweeps every window over a base with DVM enabled.
	dvmBase bool
}

// indexCases builds the exactness matrix's model pairings: the paper's
// Haar predictor beside a GlobalANN, all three objective kinds, DVM-feature
// models (a second level declaration), daub4 (several networks with a
// nonzero basis mean), a predictor with its own declaration (train levels
// only, so test levels resolve off-level), a model that only offers
// Predict, and a tie-heavy pair.
func indexCases(t *testing.T) []indexCase {
	t.Helper()
	base := trainedModels(t)
	train, traces := syntheticSet(func(x []float64, s int) float64 {
		v := 1 + 2*x[0]
		if s >= 16 && s < 32 {
			v += 3 * x[4]
		}
		return v + 0.5*x[7]*float64(s%4)
	})
	fit := func(opts core.Options) core.DynamicsModel {
		t.Helper()
		opts.NumCoefficients = 8
		p, err := core.Train(train, traces, opts)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// The train levels' own encodings: test-only levels fall off this
	// declaration and take the networks' on-the-fly factors.
	trainOnly := make([][]float64, space.NumParams)
	tl := space.TrainLevels()
	for p := range trainOnly {
		for l := range tl[p] {
			var idx [space.NumParams]int
			idx[p] = l
			trainOnly[p] = append(trainOnly[p], tl.Design(space.Baseline(), idx).Vector()[p])
		}
	}
	dvm := fit(core.Options{UseDVMFeatures: true})
	plain := fit(core.Options{})
	return []indexCase{
		{
			name:       "haar+globalANN",
			models:     base,
			objectives: []Objective{MeanObjective("cpi"), WorstCaseObjective("cpi_peak")},
		},
		{
			name:       "objectives",
			models:     []core.DynamicsModel{plain, plain, plain},
			objectives: []Objective{MeanObjective("mean"), WorstCaseObjective("worst"), ExceedanceObjective("hot", 2.5)},
		},
		{
			name:       "dvm",
			models:     []core.DynamicsModel{dvm, plain, dvm},
			objectives: []Objective{MeanObjective("dvm"), MeanObjective("plain"), WorstCaseObjective("dvm_peak")},
			dvmBase:    true,
		},
		{
			name: "daub4+own-levels",
			models: []core.DynamicsModel{
				fit(core.Options{Wavelet: wavelet.Daubechies4{}}),
				fit(core.Options{RBF: rbf.Options{DimLevels: trainOnly}}),
			},
			objectives: []Objective{MeanObjective("daub4"), MeanObjective("own")},
		},
		{
			name:       "predict-only",
			models:     []core.DynamicsModel{predictOnly{m: plain}, plain},
			objectives: []Objective{MeanObjective("fallback"), WorstCaseObjective("peak")},
		},
		{
			name: "ties",
			models: []core.DynamicsModel{
				tieModel{w: [space.NumParams]float64{3, 1, 0.5, 0.25, 2, 0.125, 1.5}},
				tieModel{w: [space.NumParams]float64{-3, 0.5, 1, 0.5, -2, 0.25, 1}},
			},
			objectives: []Objective{MeanObjective("a"), MeanObjective("b")},
		},
	}
}

// definitionalScore scores one design the way a single model call does,
// without the sweep engine: a mean objective on a MeanVecPredictor in
// coefficient space on the model's own encoding, anything else through
// Predict.
func definitionalScore(m core.DynamicsModel, obj Objective, cfg space.Config) float64 {
	if mp, ok := m.(core.MeanVecPredictor); ok && obj.mean {
		return mp.PredictMeanVec(cfg.VectorDVM()[:mp.NumFeatures()])
	}
	return obj.Score(m.Predict(cfg))
}

// frontierSet renders a frontier as a sorted list of (scores, config)
// keys: the order-free view for sweeps whose exactly tied points arrive
// in worker-dependent order.
func frontierSet(cands []Candidate) []string {
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = fmt.Sprintf("%v|%+v", c.Scores, c.Config)
	}
	sort.Strings(out)
	return out
}

// TestSweepWindowMatchesSweepStream holds the window source — the
// level-index path — to the list source over the materialised window,
// byte for byte, and both to the definitional per-model scores: TopK
// entries with their indices and counters, and frontier Configs, scores
// and order. Exactly tied frontier points arrive in worker-dependent
// order, so a tied frontier's order is compared on one worker only. The
// matrix spans train and test windows (on test the window's level index
// is not the declaration's: test Fetch 8 is declaration index 2),
// unaligned offsets and ragged tails, one and all workers, and the model
// pairings of indexCases.
func TestSweepWindowMatchesSweepStream(t *testing.T) {
	ctx := context.Background()
	train, test := space.TrainLevels(), space.TestLevels()
	windows := []space.Window{
		{Levels: test, Offset: 0, Count: test.NumDesigns()},
		{Levels: test, Offset: 777, Count: 3001},
		{Levels: train, Offset: 12345, Count: 20011},
		{Levels: train, Offset: train.NumDesigns() - 1000, Count: 1000},
		{Levels: train, Offset: 513, Count: 1},
	}
	dvmOn := space.Baseline()
	dvmOn.DVM = true
	tiedFrontiers := 0
	for _, tc := range indexCases(t) {
		bases := []space.Config{space.Baseline()}
		if tc.dvmBase {
			bases = append(bases, dvmOn)
		}
		for _, b := range bases {
			for _, w := range windows {
				w.Base = b
				designs := w.Designs()
				for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
					name := fmt.Sprintf("%s dvm=%v levels=%d offset=%d count=%d workers=%d",
						tc.name, b.DVM, w.Levels.NumDesigns(), w.Offset, w.Count, workers)
					opts := Options{Workers: workers}
					cons := []Constraint{{Objective: 1, Max: 4}}
					wantTop, wantFront := NewTopK(7, 0, cons), NewFrontierCollector()
					if err := SweepStream(ctx, designs, tc.models, tc.objectives, opts, wantTop, wantFront); err != nil {
						t.Fatal(err)
					}
					gotTop, gotFront := NewTopK(7, 0, cons), NewFrontierCollector()
					if err := SweepWindow(ctx, w, tc.models, tc.objectives, opts, gotTop, gotFront); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gotTop.Entries(), wantTop.Entries()) ||
						gotTop.Seen() != wantTop.Seen() || gotTop.Feasible() != wantTop.Feasible() {
						t.Fatalf("%s: window top-K differs from the list sweep", name)
					}
					got, want := gotFront.Frontier(), wantFront.Frontier()
					tied := false
					for i := 1; i < len(want); i++ {
						tied = tied || reflect.DeepEqual(want[i].Scores, want[i-1].Scores)
					}
					if (workers == 1 || !tied) && !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: window frontier differs from the list sweep", name)
					}
					if !reflect.DeepEqual(frontierSet(got), frontierSet(want)) || gotFront.Seen() != w.Count {
						t.Fatalf("%s: window frontier set differs from the list sweep", name)
					}
					for _, e := range gotTop.Entries() {
						checkDefinitional(t, name, tc, e.Candidate)
						if e.Candidate.Config != designs[e.Index] {
							t.Fatalf("%s: top-K entry %d carries the wrong Config", name, e.Index)
						}
					}
					for i, c := range got {
						checkDefinitional(t, name, tc, c)
						if i > 0 && reflect.DeepEqual(c.Scores, got[i-1].Scores) {
							tiedFrontiers++
						}
					}
				}
			}
		}
	}
	if tiedFrontiers == 0 {
		t.Error("no frontier held exactly equal score vectors; the tie case tests nothing")
	}
}

// checkDefinitional holds one collected candidate's scores to the
// definitional per-model scoring of its Config.
func checkDefinitional(t *testing.T, name string, tc indexCase, c Candidate) {
	t.Helper()
	for m, model := range tc.models {
		if want := definitionalScore(model, tc.objectives[m], c.Config); c.Scores[m] != want {
			t.Fatalf("%s: objective %d of %v = %v, definitional %v", name, m, c.Config, c.Scores[m], want)
		}
	}
}

func TestSweepWindowValidation(t *testing.T) {
	models := trainedModels(t)
	objectives := []Objective{MeanObjective("cpi"), WorstCaseObjective("cpi_peak")}
	test := space.TestLevels()
	for _, w := range []space.Window{
		{Levels: test, Count: 0},
		{Levels: test, Offset: test.NumDesigns(), Count: 1},
	} {
		if err := SweepWindow(context.Background(), w, models, objectives, Options{}, NewFrontierCollector()); err == nil {
			t.Errorf("window offset %d count %d accepted", w.Offset, w.Count)
		}
	}
	w := space.Window{Levels: test, Count: 1}
	if err := SweepWindow(context.Background(), w, models, objectives[:1], Options{}); err == nil {
		t.Error("mismatched models and objectives accepted")
	}
}

// TestFrontierAnswerPin pins one sweep's answer bit for bit: the frontier
// of two synthetic Haar predictors under two mean objectives over the
// whole test factorial, as its point count and an FNV-1a hash of every
// point's %.17g scores in frontier order. The first is trainedModels'
// wavelet predictor; the second is trained on the same designs with a
// trace that falls as fetch width and L2 size grow, so the objectives conflict and
// the frontier has many points. Speed work must not move it silently.
// FMA fusion differs between architectures, so the pin holds on amd64
// only.
//
// To re-pin after a deliberate change in arithmetic: run
//
//	go test -run TestFrontierAnswerPin -v ./internal/explore
//
// on amd64, copy the reported count and hash into wantPoints and
// wantHash, and say in the change's notes why the answer moved.
func TestFrontierAnswerPin(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("answer pinned on amd64; %s may fuse multiply-adds differently", runtime.GOARCH)
	}
	const (
		wantPoints = 142
		wantHash   = uint64(0xd3268fbb5bb6bc9c)
	)
	train, traces := syntheticSet(func(x []float64, s int) float64 {
		v := 80 - 60*x[0] - 10*x[4] + 10*x[6]
		if s%8 < 3 {
			v += 5 * x[7]
		}
		return v
	})
	power, err := core.Train(train, traces, core.Options{NumCoefficients: 8})
	if err != nil {
		t.Fatal(err)
	}
	models := []core.DynamicsModel{trainedModels(t)[0], power}
	objectives := []Objective{MeanObjective("cpi"), MeanObjective("power")}
	test := space.TestLevels()
	fc := NewFrontierCollector()
	w := space.Window{Levels: test, Base: space.Baseline(), Count: test.NumDesigns()}
	if err := SweepWindow(context.Background(), w, models, objectives, Options{}, fc); err != nil {
		t.Fatal(err)
	}
	frontier := fc.Frontier()
	h := fnv.New64a()
	for _, c := range frontier {
		for _, s := range c.Scores {
			fmt.Fprintf(h, "%.17g\n", s)
		}
	}
	t.Logf("frontier: %d points, hash %#x", len(frontier), h.Sum64())
	if len(frontier) != wantPoints || h.Sum64() != wantHash {
		t.Errorf("frontier has %d points, hash %#x; pinned %d points, hash %#x", len(frontier), h.Sum64(), wantPoints, wantHash)
	}
}
