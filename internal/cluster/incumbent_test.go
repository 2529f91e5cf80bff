package cluster

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/mathx"
	"repro/internal/space"
	"repro/internal/wire"
)

// resolveLattice trains, once per test, two Haar predictors whose mean
// objectives conflict in fetch width and agree in window sizes, so a
// window sweep over them takes the lattice route and prunes.
func resolveLattice(t *testing.T) ModelResolver {
	t.Helper()
	rng := mathx.NewRNG(40)
	train := space.LHS(100, space.TrainLevels(), space.Baseline(), rng)
	fit := func(trace func(x []float64, s int) float64) core.DynamicsModel {
		traces := make([][]float64, len(train))
		for i, cfg := range train {
			x := cfg.Vector()
			traces[i] = make([]float64, 64)
			for s := range traces[i] {
				traces[i][s] = trace(x, s)
			}
		}
		p, err := core.Train(train, traces, core.Options{NumCoefficients: 8})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	models := map[string]core.DynamicsModel{
		"CPI":   fit(func(x []float64, s int) float64 { return 3 - 2*x[0] + 1.5*x[1] + x[2] + 0.1*x[8]*float64(s%2) }),
		"Power": fit(func(x []float64, s int) float64 { return 20 + 60*x[0] + 20*x[1] + 10*x[2] + 2*x[7] }),
	}
	return func(_ context.Context, benchmark, metric string) (core.DynamicsModel, error) {
		if m, ok := models[metric]; ok && benchmark == "gcc" {
			return m, nil
		}
		return nil, fmt.Errorf("unknown model %s/%s", benchmark, metric)
	}
}

// TestSeededShardsMergeToLoneAnswer is the exactness property of shard
// incumbents: a frontier job's window shards, each evaluated on Local
// with a random prefix of the true frontier's scores as its incumbent
// (the merged frontier is at every moment dominated by, or part of, the
// true one), merge byte for byte to the one-window answer with every
// design evaluated, while scoring fewer designs than unseeded shards.
// The coordinator's own seeding, through Run, lands on the same answer.
func TestSeededShardsMergeToLoneAnswer(t *testing.T) {
	ctx := context.Background()
	resolve := resolveLattice(t)
	q := Query{
		Kind:       wire.JobPareto,
		Benchmark:  "gcc",
		Objectives: []wire.ObjectiveSpec{{Metric: "CPI"}, {Metric: "Power"}},
		Space:      wire.SpaceSpec{Space: "train", Offset: 4321, Count: 40000},
	}
	w, ok := q.Window(Shard{Count: q.Space.Count})
	if !ok {
		t.Fatal("the query names no window")
	}
	lone := q.NewCollector()
	models, objectives, err := q.Resolve(ctx, nil, resolve)
	if err != nil {
		t.Fatal(err)
	}
	if err := explore.SweepWindow(ctx, w, models, objectives, explore.Options{Workers: 1}, lone); err != nil {
		t.Fatal(err)
	}
	want, _ := Snapshot(lone)
	if len(want) < 4 {
		t.Fatalf("the true frontier has %d points; the case tests nothing", len(want))
	}

	var scored atomic.Int64
	local := NewLocal("local", resolve)
	local.Workers = 1
	local.ChunkDone = func(_, s int, _ time.Duration) { scored.Add(int64(s)) }
	// run evaluates the job shard by shard, each seeded with the vectors
	// incumbent picks, and merges the partials in order.
	run := func(size int, incumbent func() [][]float64) ([]explore.Candidate, int, int64) {
		t.Helper()
		scored.Store(0)
		merged := q.NewCollector()
		evaluated := 0
		for start := 0; start < q.Space.Count; start += size {
			s := Shard{Start: start, Count: min(size, q.Space.Count-start), Incumbent: incumbent()}
			p, err := local.Evaluate(ctx, q, s)
			if err != nil {
				t.Fatal(err)
			}
			evaluated += p.Evaluated
			for _, ic := range p.Candidates {
				merged.Collect(ic.Index, ic.Candidate)
			}
		}
		got, _ := Snapshot(merged)
		return got, evaluated, scored.Load()
	}
	rng := mathx.NewRNG(14)
	prefix := func() [][]float64 {
		out := make([][]float64, rng.Intn(len(want)+1))
		for i := range out {
			out[i] = want[i].Scores
		}
		return out
	}
	for _, size := range []int{1000, 2048, 4096} {
		_, _, fresh := run(size, func() [][]float64 { return nil })
		for trial := range 4 {
			got, evaluated, seeded := run(size, prefix)
			if evaluated != q.Space.Count || !reflect.DeepEqual(got, want) {
				t.Fatalf("shards of %d, trial %d: merged %d points over %d designs; want the lone %d over %d",
					size, trial, len(got), evaluated, len(want), q.Space.Count)
			}
			if seeded > fresh {
				t.Fatalf("shards of %d, trial %d: seeded shards scored %d designs, fresh ones %d", size, trial, seeded, fresh)
			}
		}
		if _, _, full := run(size, func() [][]float64 { return IncumbentOf(want) }); full >= fresh {
			t.Errorf("shards of %d: seeded with the true frontier they scored %d designs, fresh %d", size, full, fresh)
		}
	}

	coord := newTestCoordinator(t, []Transport{local}, Options{ShardSize: 1024, Parallelism: 2})
	res, err := coord.Run(ctx, q, q.Space.Count, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != q.Space.Count || !reflect.DeepEqual(res.Candidates, want) {
		t.Fatalf("the seeding coordinator merged %d points over %d designs; want the lone %d", len(res.Candidates), res.Evaluated, len(want))
	}
}

// TestIncumbentOfSpreadsAlongTheFirstObjective: at most MaxIncumbent
// vectors, evenly spaced by rank, both extremes included, and the whole
// frontier when it is that small.
func TestIncumbentOfSpreadsAlongTheFirstObjective(t *testing.T) {
	frontier := func(n int) []explore.Candidate {
		out := make([]explore.Candidate, n)
		for i := range out {
			out[i].Scores = []float64{float64(i), float64(n - i)}
		}
		return out
	}
	for _, tc := range []struct {
		n    int
		want []float64 // first scores
	}{
		{0, []float64{}},
		{1, []float64{0}},
		{5, []float64{0, 1, 2, 3, 4}},
		{16, []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
		{31, []float64{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30}},
		{100, []float64{0, 6, 13, 19, 26, 33, 39, 46, 52, 59, 66, 72, 79, 85, 92, 99}},
	} {
		got := IncumbentOf(frontier(tc.n))
		firsts := make([]float64, len(got))
		for i, p := range got {
			firsts[i] = p[0]
		}
		if !reflect.DeepEqual(firsts, tc.want) {
			t.Errorf("IncumbentOf(%d points) picks %v, want %v", tc.n, firsts, tc.want)
		}
	}
}
