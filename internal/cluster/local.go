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

// Evaluate implements Transport: the shard streams through the query's
// collector — a pinned shard's designs, or the window a design-less
// shard names on the query's space.
func (l *Local) Evaluate(ctx context.Context, q Query, s Shard) (*Partial, error) {
	models, objectives, err := q.Resolve(ctx, l.Tracer, l.resolve)
	if err != nil {
		return nil, err
	}
	col := q.NewCollector()
	_, span := l.Tracer.Start(ctx, "phase:predict")
	opts := explore.Options{Workers: l.Workers, ChunkDone: l.ChunkDone}
	if s.Designs != nil {
		err = explore.SweepStream(ctx, s.Designs, models, objectives, opts, col)
	} else if w, ok := q.Window(s); ok {
		err = explore.SweepWindow(ctx, w, models, objectives, opts, col)
	} else {
		err = fmt.Errorf("cluster: shard [%d,%d) has no designs and its space %q names no window", s.Start, s.Start+s.Count, q.Space.Space)
	}
	span.End()
	if err != nil {
		return nil, err
	}
	_, span = l.Tracer.Start(ctx, "phase:merge")
	defer span.End()
	answer, feasible, _ := Snapshot(col)
	return &Partial{Evaluated: col.Seen(), Feasible: feasible, Candidates: indexed(answer, s.Start)}, nil
}

var _ Transport = (*Local)(nil)
