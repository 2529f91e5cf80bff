package explore

import (
	"context"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/space"
)

// TestSweepWindowMatchesSweepStream holds the window source to the list
// source: a SweepWindow must hand TopK and FrontierCollector exactly the
// candidates and indices SweepStream hands them over the materialised
// window — across both Table 2 spaces, offsets that are not
// chunk-aligned, a ragged tail, and one or all workers.
func TestSweepWindowMatchesSweepStream(t *testing.T) {
	models := trainedModels(t)
	objectives := []Objective{MeanObjective("cpi"), WorstCaseObjective("cpi_peak")}
	cons := []Constraint{{Objective: 1, Max: 4}}
	ctx := context.Background()
	train, test := space.TrainLevels(), space.TestLevels()
	for _, w := range []space.Window{
		{Levels: test, Base: space.Baseline(), Offset: 0, Count: test.NumDesigns()},
		{Levels: test, Base: space.Baseline(), Offset: 777, Count: 3001},
		{Levels: train, Base: space.Baseline(), Offset: 12345, Count: 20011},
		{Levels: train, Base: space.Baseline(), Offset: train.NumDesigns() - 1000, Count: 1000},
		{Levels: train, Base: space.Baseline(), Offset: 513, Count: 1},
	} {
		designs := w.Designs()
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			name := fmt.Sprintf("levels=%d offset=%d count=%d workers=%d", w.Levels.NumDesigns(), w.Offset, w.Count, workers)
			opts := Options{Workers: workers}
			wantTop, wantFront := NewTopK(7, 0, cons), NewFrontierCollector()
			if err := SweepStream(ctx, designs, models, objectives, opts, wantTop, wantFront); err != nil {
				t.Fatal(err)
			}
			gotTop, gotFront := NewTopK(7, 0, cons), NewFrontierCollector()
			if err := SweepWindow(ctx, w, models, objectives, opts, gotTop, gotFront); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotTop.Entries(), wantTop.Entries()) ||
				gotTop.Seen() != wantTop.Seen() || gotTop.Feasible() != wantTop.Feasible() {
				t.Errorf("%s: window top-K differs from the materialised sweep", name)
			}
			if !reflect.DeepEqual(gotFront.Frontier(), wantFront.Frontier()) || gotFront.Seen() != wantFront.Seen() {
				t.Errorf("%s: window frontier differs from the materialised sweep", name)
			}
			if gotFront.Seen() != w.Count {
				t.Errorf("%s: window sweep saw %d designs, want %d", name, gotFront.Seen(), w.Count)
			}
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
