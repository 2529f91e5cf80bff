package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/space"
)

// simTrainer is the production registry.Trainer: it simulates one
// benchmark's LHS training designs once on the worker pool and fits one
// wavelet-RBF predictor per metric from the shared traces. Simulation
// and model options derive from Spec, so what is trained is exactly what
// the manifest records.
type simTrainer struct {
	Spec registry.Spec
	// Workers bounds simulation parallelism (0 = GOMAXPROCS).
	Workers int
	// Log receives training progress lines; nil silences them.
	Log *log.Logger
}

func (t *simTrainer) logf(format string, args ...any) {
	if t.Log != nil {
		t.Log.Printf(format, args...)
	}
}

// TrainBenchmark implements registry.Trainer. The design sample is
// deterministic in the spec's seed, so every benchmark (and every
// restart) trains on the same design points.
func (t *simTrainer) TrainBenchmark(ctx context.Context, benchmark string, metrics []sim.Metric) (map[sim.Metric]*core.Predictor, error) {
	rng := mathx.NewRNG(t.Spec.Seed)
	designs, err := space.SampleDesignContext(ctx, t.Spec.Train, space.TrainLevels(), space.Baseline(), t.Spec.Candidates, rng)
	if err != nil {
		return nil, fmt.Errorf("dsed: sampling %s training set: %w", benchmark, err)
	}
	jobs := make([]sim.Job, len(designs))
	for i, d := range designs {
		jobs[i] = sim.Job{Config: d, Benchmark: benchmark}
	}
	start := time.Now()
	simOpts := sim.Options{Instructions: t.Spec.Instructions, Samples: t.Spec.Samples}
	traces, err := sim.SweepContext(ctx, jobs, simOpts, t.Workers)
	if err != nil {
		return nil, fmt.Errorf("dsed: simulating %s training set: %w", benchmark, err)
	}
	t.logf("simulated %d training designs of %s in %v", len(designs), benchmark, time.Since(start).Round(time.Millisecond))

	out := make(map[sim.Metric]*core.Predictor, len(metrics))
	for _, metric := range metrics {
		series := make([][]float64, len(traces))
		for i, tr := range traces {
			series[i] = tr.Series(metric)
		}
		start := time.Now()
		p, err := core.Train(designs, series, core.Options{NumCoefficients: t.Spec.Coefficients})
		if err != nil {
			return nil, fmt.Errorf("dsed: training %s/%s: %w", benchmark, metric, err)
		}
		out[metric] = p
		t.logf("trained %s/%s (%d networks) in %v", benchmark, metric, p.NumNetworks(), time.Since(start).Round(time.Millisecond))
	}
	return out, nil
}
