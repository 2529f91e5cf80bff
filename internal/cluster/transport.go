package cluster

import (
	"context"
	"fmt"

	"repro/internal/explore"
	"repro/internal/obs"
	"repro/internal/space"
	"repro/internal/wire"
)

// Query is the worker-independent part of a distributed sweep: which
// benchmark's models score the designs and under which objectives, plus
// the selection rule for top-K sweeps. The design points themselves arrive
// per shard.
type Query struct {
	Benchmark  string
	Objectives []wire.ObjectiveSpec
	// Space is the job's design selector, when the design list came from
	// one. A shard of a named, unsampled space travels as a window on it
	// (wire.SpaceSpec.Window) instead of as pinned designs; the zero value
	// pins every shard.
	Space wire.SpaceSpec
	// TopK, Objective and Constraints apply to Sweep shards only.
	TopK        int
	Objective   int
	Constraints []explore.Constraint
}

// Shard is one contiguous range of a sweep's design list.
type Shard struct {
	// Start is the shard's offset in the full design list; transports tag
	// returned candidates with Start-relative indexes so merged top-K
	// tie-breaking is deterministic no matter which worker ran the shard.
	Start   int
	Designs []space.Config
}

// Partial is one shard's contribution to a distributed sweep.
type Partial struct {
	// Evaluated must equal the shard size; the coordinator treats a
	// short count as a worker fault and re-dispatches the shard.
	Evaluated int
	// Feasible counts shard candidates satisfying every constraint
	// (top-K sweeps; equals Evaluated for Pareto shards).
	Feasible int
	// Candidates is the shard's frontier (Pareto) or its best-first
	// top K (Sweep).
	Candidates []IndexedCandidate
	// Spans carries the worker's trace spans for the shard (nil from
	// transports that do not trace); the coordinator imports them into
	// its own trace store so a job's tree spans the whole fleet.
	Spans []obs.Span
}

// IndexedCandidate tags a candidate with a global, transport-independent
// index (shard start + rank) used for deterministic merge tie-breaking.
type IndexedCandidate struct {
	Index int
	explore.Candidate
}

// indexed tags a shard's result candidates relative to its start offset.
func indexed(cands []explore.Candidate, start int) []IndexedCandidate {
	out := make([]IndexedCandidate, len(cands))
	for i, c := range cands {
		out[i] = IndexedCandidate{Index: start + i, Candidate: c}
	}
	return out
}

// WorkerRejection is a worker's deterministic 4xx verdict on the request
// itself (unknown benchmark or metric, malformed shard, oversized body).
// The request — not the worker — is at fault, so the coordinator neither
// retries the shard elsewhere nor books the worker a failure, and a
// serving layer forwards Status to the client unchanged.
type WorkerRejection struct {
	Worker string
	Status int
	Msg    string
}

func (e *WorkerRejection) Error() string {
	return fmt.Sprintf("cluster: worker %s rejected the request (status %d): %s", e.Worker, e.Status, e.Msg)
}

// WorkerBusy is a worker's own retryable verdict — a 429 from a full job
// table, say. The worker is alive and the request is fine; it simply has
// no capacity right now. The coordinator spills the shard to another
// worker like a transport failure, but books it in its own column: a
// fleet that is merely saturated must not read as a fleet that is sick.
type WorkerBusy struct {
	Worker string
	Status int
	Msg    string
}

func (e *WorkerBusy) Error() string {
	return fmt.Sprintf("cluster: worker %s is busy (status %d): %s", e.Worker, e.Status, e.Msg)
}

// Transport is the coordinator's view of one worker. Implementations must
// be safe for concurrent use: the coordinator dispatches many shards to
// the same worker at once.
//
// Two implementations exist: Local runs shards in-process through the
// exploration engine (deterministic -race tests, single-binary fallback),
// and HTTP speaks the dsed JSON wire format to a remote daemon.
type Transport interface {
	// Name identifies the worker in placement, logs and health reports.
	// Names must be unique within a coordinator.
	Name() string
	// Healthy probes the worker's liveness.
	Healthy(ctx context.Context) error
	// Warm pre-places models for the benchmarks on the worker, returning
	// how many training runs this warm itself triggered there (an
	// already-warm benchmark costs zero), so a coordinator can sum the
	// fleet's actual cost per call.
	Warm(ctx context.Context, benchmarks []string) (trainings int, err error)
	// Pareto evaluates the shard and returns its Pareto frontier.
	Pareto(ctx context.Context, q Query, s Shard) (*Partial, error)
	// Sweep evaluates the shard and returns its feasible top K.
	Sweep(ctx context.Context, q Query, s Shard) (*Partial, error)
}
