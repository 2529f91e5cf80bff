package cluster

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/obs"
	"repro/internal/space"
	"repro/internal/wire"
)

// Query is the worker-independent part of a distributed job: its kind,
// which benchmark's models score the designs and under which
// objectives, plus the selection rule of a top-K job. The design points
// themselves arrive per shard.
type Query struct {
	// Kind picks the job's reduction (see NewCollector); the zero value
	// is a frontier job.
	Kind       wire.JobKind
	Benchmark  string
	Objectives []wire.ObjectiveSpec
	// Space is the job's design selector, when the design list came from
	// one. A shard of a named, unsampled space travels as a window on it
	// (wire.SpaceSpec.Window) instead of as pinned designs; the zero value
	// pins every shard.
	Space wire.SpaceSpec
	// TopK (default 10), Objective and Constraints apply to sweeps only.
	TopK        int
	Objective   int
	Constraints []explore.Constraint
}

// QueryOf builds the distributed query of a validated job spec. The
// query carries the spec's space selector, so shards of a named,
// unsampled space travel as windows. An unnamed space is the train
// space, named explicitly here because a Query treats an unnamed space
// as pinned.
func QueryOf(spec wire.JobSpec) Query {
	q := Query{
		Kind:        spec.Kind,
		Benchmark:   spec.Benchmark,
		Objectives:  spec.Objectives,
		Space:       spec.SpaceSpec,
		TopK:        spec.TopK,
		Objective:   spec.Objective,
		Constraints: make([]explore.Constraint, len(spec.Constraints)),
	}
	for i, c := range spec.Constraints {
		q.Constraints[i] = explore.Constraint{Objective: c.Objective, Max: c.Max}
	}
	if q.Space.Space == "" && len(q.Space.Designs) == 0 {
		q.Space.Space = "train"
	}
	return q
}

// Collector is a job kind's mergeable reduction: what a shard, a
// merged fleet job and a single daemon's job fold their designs into.
// Only Query.NewCollector makes one; Snapshot reads it back.
type Collector interface {
	explore.Collector
	Seen() int
}

// NewCollector is the one place a job kind picks its reduction: a sweep
// keeps the feasible top K by q.Objective under q.Constraints, any other
// kind the Pareto frontier. It returns the concrete explore collector,
// never a wrapper: the engine hands its own collectors whole chunks and
// decodes a Config only for the designs they keep, and feeds anything
// else one design at a time under a shared lock.
func (q Query) NewCollector() Collector {
	if q.Kind != wire.JobSweep {
		return explore.NewFrontierCollector()
	}
	if q.TopK <= 0 {
		q.TopK = 10
	}
	return explore.NewTopK(q.TopK, q.Objective, q.Constraints)
}

// Snapshot reads the answer of a collector from Query.NewCollector, the
// inverse of its kind-to-collector mapping: the top K best first or the
// frontier; how many designs were feasible (0 on a frontier, where
// feasibility has no meaning); and, for a top K, its candidates with
// their original design indices, which tie-breaking needs for a resumed
// job to stay bit-identical (nil on a frontier, whose merge is
// index-independent). Any other collector is a programming error and
// panics.
func Snapshot(c Collector) (answer []explore.Candidate, feasible int, indexed []IndexedCandidate) {
	switch c := c.(type) {
	case *explore.FrontierCollector:
		return c.Frontier(), 0, nil
	case *explore.TopK:
		entries := c.Entries()
		answer = make([]explore.Candidate, len(entries))
		indexed = make([]IndexedCandidate, len(entries))
		for i, e := range entries {
			answer[i] = e.Candidate
			indexed[i] = IndexedCandidate{Index: e.Index, Candidate: e.Candidate}
		}
		return answer, c.Feasible(), indexed
	}
	panic(fmt.Sprintf("cluster: Snapshot of a %T, which Query.NewCollector never returns", c))
}

// Resolve resolves the query's objectives against a model source — one
// model and one exploration objective per objective spec — under a
// "phase:train" span of tracer (nil records none): on-demand training is
// the phase that dominates a cold job's latency.
func (q Query) Resolve(ctx context.Context, tracer *obs.Tracer, resolve ModelResolver) (models []core.DynamicsModel, objectives []explore.Objective, err error) {
	ctx, span := tracer.Start(ctx, "phase:train")
	defer func() {
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		span.End()
	}()
	if len(q.Objectives) == 0 {
		return nil, nil, wire.ErrNoObjectives
	}
	models = make([]core.DynamicsModel, len(q.Objectives))
	objectives = make([]explore.Objective, len(q.Objectives))
	for i, spec := range q.Objectives {
		obj, err := spec.Build()
		if err != nil {
			return nil, nil, err
		}
		m, err := resolve(ctx, q.Benchmark, spec.Metric)
		if err != nil {
			return nil, nil, err
		}
		models[i], objectives[i] = m, obj
	}
	return models, objectives, nil
}

// Shard is one contiguous range [Start, Start+Count) of a sweep's design
// list.
type Shard struct {
	// Start is the shard's offset in the full design list; transports tag
	// returned candidates with Start-relative indexes so merged top-K
	// tie-breaking is deterministic no matter which worker ran the shard.
	Start int
	Count int
	// Designs holds the shard's designs for a pinned space (an explicit
	// list or an LHS sample) and is nil for a named, unsampled space,
	// whose shard is a window on Query.Space (see Query.Window).
	Designs []space.Config
}

// Window returns the factorial window shard s names on the query's
// space. ok is false unless the query names an unsampled space; such a
// shard must carry its designs.
func (q Query) Window(s Shard) (w space.Window, ok bool) {
	spec, ok := q.Space.Window(s.Start, s.Count)
	if !ok {
		return space.Window{}, false
	}
	return spec.FactorialWindow()
}

// Partial is one shard's contribution to a distributed sweep.
type Partial struct {
	// Evaluated must equal the shard size; the coordinator treats a
	// short count as a worker fault and re-dispatches the shard.
	Evaluated int
	// Feasible counts shard candidates satisfying every constraint
	// (top-K sweeps; 0 on frontier shards).
	Feasible int
	// Candidates is the shard's frontier or its best-first top K.
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
// Two implementations exist, interchangeable answer for answer: Local
// runs shards in-process through the exploration engine (a peer's
// transport to itself, and deterministic -race tests), and HTTP speaks
// the dsed JSON wire format to a remote daemon.
type Transport interface {
	// Name identifies the worker in placement, logs and health reports.
	// Names must be unique within a coordinator.
	Name() string
	// Warm pre-places models for the benchmarks on the worker, returning
	// how many training runs this warm itself triggered there (an
	// already-warm benchmark costs zero), so a coordinator can sum the
	// fleet's actual cost per call.
	Warm(ctx context.Context, benchmarks []string) (trainings int, err error)
	// Evaluate scores the shard's designs and returns its partial answer
	// under the query's kind: the shard's frontier or its feasible top K.
	Evaluate(ctx context.Context, q Query, s Shard) (*Partial, error)
}
