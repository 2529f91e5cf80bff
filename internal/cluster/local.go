package cluster

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/obs"
)

// ModelResolver resolves the predictor scoring one (benchmark, metric)
// pair — the Local transport's seam to a registry store, a fixture, or
// any other model source.
type ModelResolver func(ctx context.Context, benchmark, metric string) (core.DynamicsModel, error)

// Local is an in-process Transport: shards run directly on the exploration
// engine with no sockets or serialisation. A peer schedules itself through
// one (over its own registry), so the shards it places on itself cost no
// HTTP round trip and no job-table entry; it also gives the coordinator
// deterministic -race coverage. Results are tagged exactly like HTTP
// results, so the two transports are interchangeable answer-for-answer.
type Local struct {
	name    string
	resolve ModelResolver
	// Workers bounds the in-process engine's parallelism per shard
	// (0 = GOMAXPROCS).
	Workers int
	// WarmFunc, when set, handles Warm calls (e.g. registry pre-training)
	// and reports how many training runs the call itself triggered.
	WarmFunc func(ctx context.Context, benchmarks []string) (int, error)
	// Tracer, when set, records each shard's phase:train, phase:predict
	// and phase:merge spans under the caller's span (the coordinator's
	// dispatch span), the phases a worker's shard job records. They land
	// in the tracer's own store, so a Partial from Local carries no Spans.
	Tracer *obs.Tracer
	// ChunkDone, when set, observes every evaluation chunk
	// (explore.Options.ChunkDone).
	ChunkDone func(designs int, elapsed time.Duration)
}

// NewLocal builds an in-process worker over a model source.
func NewLocal(name string, resolve ModelResolver) *Local {
	return &Local{name: name, resolve: resolve}
}

// Name implements Transport.
func (l *Local) Name() string { return l.name }

// Warm implements Transport.
func (l *Local) Warm(ctx context.Context, benchmarks []string) (int, error) {
	if l.WarmFunc == nil {
		return 0, nil
	}
	return l.WarmFunc(ctx, benchmarks)
}

// build resolves the query's objectives against the model source.
func (l *Local) build(ctx context.Context, q Query) ([]core.DynamicsModel, []explore.Objective, error) {
	if len(q.Objectives) == 0 {
		return nil, nil, fmt.Errorf("cluster: query has no objectives")
	}
	models := make([]core.DynamicsModel, len(q.Objectives))
	objectives := make([]explore.Objective, len(q.Objectives))
	for i, spec := range q.Objectives {
		obj, err := spec.Build()
		if err != nil {
			return nil, nil, err
		}
		m, err := l.resolve(ctx, q.Benchmark, spec.Metric)
		if err != nil {
			return nil, nil, err
		}
		models[i], objectives[i] = m, obj
	}
	return models, objectives, nil
}

// sweep streams the shard through the collector: a pinned shard's
// designs, or the window a design-less shard names on the query's space.
func (l *Local) sweep(ctx context.Context, q Query, s Shard, col explore.Collector) error {
	trainCtx, span := l.Tracer.Start(ctx, "phase:train")
	models, objectives, err := l.build(trainCtx, q)
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	span.End()
	if err != nil {
		return err
	}
	_, span = l.Tracer.Start(ctx, "phase:predict")
	defer span.End()
	opts := explore.Options{Workers: l.Workers, ChunkDone: l.ChunkDone}
	if s.Designs != nil {
		return explore.SweepStream(ctx, s.Designs, models, objectives, opts, col)
	}
	w, ok := q.Window(s)
	if !ok {
		return fmt.Errorf("cluster: shard [%d,%d) has no designs and its space %q names no window", s.Start, s.Start+s.Count, q.Space.Space)
	}
	return explore.SweepWindow(ctx, w, models, objectives, opts, col)
}

// Pareto implements Transport.
func (l *Local) Pareto(ctx context.Context, q Query, s Shard) (*Partial, error) {
	fc := explore.NewFrontierCollector()
	if err := l.sweep(ctx, q, s, fc); err != nil {
		return nil, err
	}
	_, span := l.Tracer.Start(ctx, "phase:merge")
	defer span.End()
	return &Partial{
		Evaluated:  fc.Seen(),
		Feasible:   fc.Seen(),
		Candidates: indexed(fc.Frontier(), s.Start),
	}, nil
}

// Sweep implements Transport.
func (l *Local) Sweep(ctx context.Context, q Query, s Shard) (*Partial, error) {
	top := explore.NewTopK(q.TopK, q.Objective, q.Constraints)
	if err := l.sweep(ctx, q, s, top); err != nil {
		return nil, err
	}
	_, span := l.Tracer.Start(ctx, "phase:merge")
	defer span.End()
	return &Partial{
		Evaluated:  top.Seen(),
		Feasible:   top.Feasible(),
		Candidates: indexed(top.Results(), s.Start),
	}, nil
}

var _ Transport = (*Local)(nil)
