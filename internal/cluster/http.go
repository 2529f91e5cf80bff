package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/wire"
	"repro/pkg/dsedclient"
)

// HTTP is a Transport over the daemon's versioned /v1 API, built on the
// shared typed client (pkg/dsedclient) so the coordinator speaks to
// workers exactly like any other consumer. A shard becomes a job of the
// query's kind — an [offset, count) window when the query's space is
// named and unsampled, pinned designs otherwise (see shardSpace). The
// transport submits the job, follows its stream, and hands the
// coordinator the final partial, so a worker's own progress plumbing is
// exercised on every shard. Warm drives /v1/warm.
type HTTP struct {
	c *dsedclient.Client
}

// NewHTTP builds a transport for the worker at base (e.g. "host:8090" or
// "http://host:8090"). client nil means http.DefaultClient. The client
// retries transient worker verdicts once with a short backoff; the
// coordinator's own cross-worker retry remains the real failover.
func NewHTTP(base string, client *http.Client) *HTTP {
	opts := []dsedclient.Option{
		dsedclient.WithRetries(1),
		dsedclient.WithBackoff(50 * time.Millisecond),
	}
	if client != nil {
		opts = append(opts, dsedclient.WithHTTPClient(client))
	}
	return &HTTP{c: dsedclient.New(base, opts...)}
}

// Name implements Transport; workers are named by their base URL.
func (h *HTTP) Name() string { return h.c.Base() }

// Warm implements Transport.
func (h *HTTP) Warm(ctx context.Context, benchmarks []string) (int, error) {
	resp, err := h.c.WarmScoped(ctx, benchmarks, wire.ScopeLocal)
	if err != nil {
		return 0, h.classify(err)
	}
	return resp.Trainings, nil
}

// classify maps a client error onto the coordinator's fault model: a
// worker's deterministic 4xx verdict is a WorkerRejection (the request,
// not the worker, is at fault — forward it instead of retrying across
// the fleet). Verdicts the worker itself marks retryable — 429 from a
// full job table, say — are transient load, not a judgement on the
// request or on the worker's health: they become WorkerBusy, which
// spills the shard to another worker but is accounted apart from
// transport failures.
func (h *HTTP) classify(err error) error {
	var ae *dsedclient.APIError
	if errors.As(err, &ae) && ae.Status >= 400 && ae.Status < 500 {
		if ae.Retryable {
			return &WorkerBusy{Worker: h.Name(), Status: ae.Status, Msg: ae.Message}
		}
		return &WorkerRejection{Worker: h.Name(), Status: ae.Status, Msg: ae.Message}
	}
	return fmt.Errorf("cluster: worker %s: %w", h.Name(), err)
}

// shardSpace is the wire selector of one shard. A shard of a named,
// unsampled space is a window on it, a few dozen bytes that the worker
// resolves to exactly the designs the coordinator carved; Shard.Start is
// relative to the job's own list, which Window composes with the job's
// offset. Anything else pins the shard's designs explicitly.
func shardSpace(q Query, s Shard) wire.SpaceSpec {
	if w, ok := q.Space.Window(s.Start, s.Count); ok {
		return w
	}
	specs := make([]wire.ConfigSpec, len(s.Designs))
	for i, c := range s.Designs {
		specs[i] = wire.SpecFromConfig(c)
	}
	return wire.SpaceSpec{Designs: specs}
}

// Evaluate implements Transport.
func (h *HTTP) Evaluate(ctx context.Context, q Query, s Shard) (*Partial, error) {
	constraints := make([]wire.Constraint, len(q.Constraints))
	for i, c := range q.Constraints {
		constraints[i] = wire.Constraint{Objective: c.Objective, Max: c.Max}
	}
	spec := wire.JobSpec{Kind: q.Kind, SweepRequest: wire.SweepRequest{
		Benchmark:   q.Benchmark,
		Objectives:  q.Objectives,
		SpaceSpec:   shardSpace(q, s),
		TopK:        q.TopK,
		Objective:   q.Objective,
		Constraints: constraints,
		// Shards must evaluate where they land: without the local scope a
		// symmetric peer would re-distribute its shard to the fleet,
		// recursing forever.
		Scope: wire.ScopeLocal,
	}}
	final, _, err := h.c.Run(ctx, spec.Request(), nil)
	if err != nil {
		return nil, h.classify(err)
	}
	return &Partial{
		Evaluated:  final.Evaluated,
		Feasible:   final.Feasible,
		Candidates: fromWire(final.Candidates, s.Start),
		Spans:      final.Spans,
	}, nil
}

// fromWire expands wire candidates, tagging them exactly like Local does.
func fromWire(cands []wire.Candidate, start int) []IndexedCandidate {
	out := make([]IndexedCandidate, len(cands))
	for i, c := range cands {
		out[i] = IndexedCandidate{Index: start + i, Candidate: c.ToExplore()}
	}
	return out
}

var _ Transport = (*HTTP)(nil)
