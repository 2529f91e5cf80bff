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

// Local is the in-process evaluator: shards run directly on the
// exploration engine with no sockets or serialisation. A daemon runs
// every sweep through one over its own registry: its own jobs (Sweep)
// and, as a peer, its shards (Evaluate), those it places on itself and
// those other peers POST to /v1/shards. It also gives the coordinator
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
	// dispatch span, or the one a /v1/shards request carries). They land
	// in the tracer's own store, so a Partial from Local carries no Spans.
	Tracer *obs.Tracer
	// ChunkDone, when set, observes every evaluation chunk
	// (explore.Options.ChunkDone).
	ChunkDone func(covered, scored int, elapsed time.Duration)
	// Stall, when positive, makes this worker a deliberate straggler
	// (fault injection for hedged dispatch): after each chunk, a sweep
	// worker waits Stall per design the chunk covered, pruned ones
	// included, or until the sweep's context ends, and ChunkDone sees
	// the chunk last its stall longer. Scoring, so every answer, is
	// untouched.
	Stall time.Duration
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

// Evaluate implements Transport: it resolves the query's models, then
// sweeps the shard into the query's collector (Sweep) — seeded on a
// frontier job with the shard's incumbent, so the sweep prunes against
// it from its first subtree and the partial leaves out the candidates
// it beats — and reads the partial answer back under a "phase:merge"
// span.
func (l *Local) Evaluate(ctx context.Context, q Query, s Shard) (*Partial, error) {
	models, objectives, err := q.Resolve(ctx, l.Tracer, l.resolve)
	if err != nil {
		return nil, err
	}
	col := q.NewCollector()
	if fc, ok := col.(*explore.FrontierCollector); ok {
		fc.Seed(s.Incumbent)
	}
	if err := l.Sweep(ctx, q, s, models, objectives, col); err != nil {
		return nil, err
	}
	_, span := l.Tracer.Start(ctx, "phase:merge")
	defer span.End()
	answer, feasible := Snapshot(col)
	return &Partial{Evaluated: col.Seen(), Feasible: feasible, Candidates: indexed(answer, s.Start)}, nil
}

// Sweep streams shard s of q through col under a "phase:predict" span:
// a pinned shard's designs, or the window a design-less shard names on
// the query's space. models and objectives are q's, resolved.
func (l *Local) Sweep(ctx context.Context, q Query, s Shard, models []core.DynamicsModel, objectives []explore.Objective, col Collector) error {
	_, span := l.Tracer.Start(ctx, "phase:predict")
	defer span.End()
	opts := explore.Options{Workers: l.Workers, ChunkDone: l.ChunkDone}
	if l.Stall > 0 {
		opts.ChunkDone = l.stall(ctx)
	}
	if s.Designs != nil {
		return explore.SweepStream(ctx, s.Designs, models, objectives, opts, col)
	}
	if w, ok := q.Window(s); ok {
		return explore.SweepWindow(ctx, w, models, objectives, opts, col)
	}
	return fmt.Errorf("cluster: shard [%d,%d) has no designs and its space %q names no window", s.Start, s.Start+s.Count, q.Space.Space)
}

// stall is a straggling sweep's ChunkDone: it holds the worker Stall
// per covered design, or until ctx ends, then observes the chunk as
// lasting its stall longer.
func (l *Local) stall(ctx context.Context) func(covered, scored int, elapsed time.Duration) {
	return func(covered, scored int, elapsed time.Duration) {
		wait := time.Duration(covered) * l.Stall
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
		case <-t.C:
		}
		t.Stop()
		if l.ChunkDone != nil {
			l.ChunkDone(covered, scored, elapsed+wait)
		}
	}
}

var _ Transport = (*Local)(nil)
