package main

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/space"
	"repro/internal/wire"
)

// This file is the serving side of the async job API shared by a single
// daemon and a peer: the /v1/jobs/{id} route family (status, NDJSON
// stream, cancel), the submit glue, and the cadence on which every job
// attaches its partial answer to its progress snapshots.

// jobAPI embeds the job table into a serving layer.
type jobAPI struct {
	jobs *api.Manager
	tel  *telemetry
}

// handleJobs serves GET /v1/jobs: the job table, newest first, filtered
// by ?state=, ?benchmark= and ?kind=, page-bounded by ?limit=. Results
// stay behind GET /v1/jobs/{id}.
func (a *jobAPI) handleJobs(w http.ResponseWriter, r *http.Request) {
	if !api.RequireGet(w, r) {
		return
	}
	q := r.URL.Query()
	f := api.ListFilter{
		State:     api.JobState(q.Get("state")),
		Benchmark: q.Get("benchmark"),
		Kind:      wire.JobKind(q.Get("kind")),
	}
	switch f.State {
	case "", api.StateRunning, api.StateDone, api.StateFailed, api.StateCanceled:
	default:
		api.WriteError(w, r, http.StatusBadRequest, "unknown state %q (running, done, failed, canceled)", f.State)
		return
	}
	switch f.Kind {
	case "", wire.JobSweep, wire.JobPareto:
	default:
		api.WriteError(w, r, http.StatusBadRequest, "unknown kind %q (sweep, pareto)", f.Kind)
		return
	}
	if s := q.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			api.WriteError(w, r, http.StatusBadRequest, "limit must be a positive integer, got %q", s)
			return
		}
		f.Limit = n
	}
	jobs := a.jobs.List(f)
	api.WriteJSON(w, r, http.StatusOK, map[string]any{
		"jobs":  jobs,
		"count": len(jobs),
	})
}

// handleJob serves GET (status + result) and DELETE (cancel) on
// /v1/jobs/{id}.
func (a *jobAPI) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch r.Method {
	case http.MethodGet:
		job, err := a.jobs.Get(id)
		if err != nil {
			api.WriteError(w, r, http.StatusNotFound, "%v", err)
			return
		}
		api.WriteJSON(w, r, http.StatusOK, job.Status(true))
	case http.MethodDelete:
		job, err := a.jobs.Cancel(id)
		if err != nil {
			api.WriteError(w, r, http.StatusNotFound, "%v", err)
			return
		}
		api.WriteJSON(w, r, http.StatusOK, job.Status(false))
	default:
		api.WriteError(w, r, http.StatusMethodNotAllowed, "use GET to poll or DELETE to cancel")
	}
}

// handleJobStream serves GET /v1/jobs/{id}/stream: NDJSON, one
// cumulative snapshot per line, ending with the final update. A reader
// passes ?from_seq= (the last Seq it saw, or 0 for every retained line)
// and gets the retained updates after that point replayed first; past
// the retention horizon, or without the parameter, it is primed with the
// latest cumulative snapshot, whose counters are current (a fleet job's
// may lack candidates until the next cadence point, see
// streamInterval).
func (a *jobAPI) handleJobStream(w http.ResponseWriter, r *http.Request) {
	if !api.RequireGet(w, r) {
		return
	}
	if !api.Negotiable(r, api.ContentNDJSON) {
		api.WriteError(w, r, http.StatusNotAcceptable, "the job stream answers %s", api.ContentNDJSON)
		return
	}
	job, err := a.jobs.Get(r.PathValue("id"))
	if err != nil {
		api.WriteError(w, r, http.StatusNotFound, "%v", err)
		return
	}
	from := -1
	if s := r.URL.Query().Get("from_seq"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			api.WriteError(w, r, http.StatusBadRequest, "from_seq must be a non-negative integer, got %q", s)
			return
		}
		from = n
	}
	replay, updates, unsubscribe := job.SubscribeFrom(from)
	defer unsubscribe()
	w.Header().Set("Content-Type", api.ContentNDJSON)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	emit := func(u api.Update) (done bool) {
		// Pooled buffered encoding: one allocation-free marshal and a
		// single Write per NDJSON line, so a sweep streaming snapshots
		// at shard rate does not allocate per update.
		if err := api.EncodeJSON(w, u); err != nil {
			return true // client went away mid-line; it can resume
		}
		if flusher != nil {
			flusher.Flush()
		}
		return u.Final
	}
	for _, u := range replay {
		if emit(u) {
			return
		}
	}
	for {
		select {
		case u, ok := <-updates:
			if !ok {
				return
			}
			if emit(u) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// submit starts a decoded submission's job and answers 202 Accepted
// with the job's initial status and a Location pointing at the poll
// route; a full job table is the structured 429.
func (a *jobAPI) submit(w http.ResponseWriter, r *http.Request, spec wire.JobSpec, designs int, run api.RunFunc) {
	// The job detaches from the request context on purpose (one
	// impatient client must not abort shared work), but its identity
	// must not detach with it: re-inject the request ID and the span
	// context of a client's traceparent, so the job's spans join the
	// client's trace and one request ID threads the whole fan-out.
	reqID := api.RequestID(r.Context())
	parent, hasParent := obs.SpanFromContext(r.Context())
	inner := run
	run = func(ctx context.Context, pub api.Publisher) (any, api.Update, error) {
		if reqID != "" {
			ctx = api.WithRequestID(ctx, reqID)
		}
		if hasParent {
			ctx = obs.ContextWithSpan(ctx, parent)
		}
		return inner(ctx, pub)
	}
	job, err := a.jobs.Start(spec.Kind, spec.Benchmark, designs, run)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, api.ErrTooManyJobs) {
			status = http.StatusTooManyRequests
		}
		api.WriteError(w, r, status, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	api.WriteJSON(w, r, http.StatusAccepted, job.Status(false))
}

// decodeJob decodes and validates a submission, or a shard when shard
// is set, of the given kind and resolves its early designs. The kind
// picks the strict decode target, so a field of the other kind's body is
// a 400, and so is the local scope that once marked a shard. An
// incumbent is a 400 naming /v1/shards on a submission, and on a shard
// other than a frontier window, whose sweep is the only one that prunes.
// A malformed request fails here, before a job exists, and never
// triggers an on-demand training run. It writes the 4xx itself and
// reports whether the request survived.
func decodeJob(w http.ResponseWriter, r *http.Request, kind wire.JobKind, shard bool) (wire.JobSpec, []space.Config, bool) {
	req := wire.NewJobRequest(kind)
	if !api.DecodePost(w, r, req) {
		return wire.JobSpec{}, nil, false
	}
	spec := req.Spec()
	if spec.Incumbent != nil {
		if !shard {
			api.WriteError(w, r, http.StatusBadRequest, "incumbent is not a job field: a peer seeds a fleet shard at POST /v1/shards")
			return wire.JobSpec{}, nil, false
		}
		if _, window := spec.FactorialWindow(); kind != wire.JobPareto || !window {
			api.WriteError(w, r, http.StatusBadRequest, "incumbent seeds only a frontier shard over a window of a named space at POST /v1/shards")
			return wire.JobSpec{}, nil, false
		}
	}
	if err := req.Validate(); err != nil {
		api.WriteError(w, r, http.StatusBadRequest, "%v", err)
		return wire.JobSpec{}, nil, false
	}
	if spec.Scope == wire.ScopeLocal {
		api.WriteError(w, r, http.StatusBadRequest, "scope %q is not a job scope: a peer runs a fleet shard at POST /v1/shards", spec.Scope)
		return wire.JobSpec{}, nil, false
	}
	early, err := spec.ResolveEarly()
	if err != nil {
		api.WriteError(w, r, http.StatusBadRequest, "%v", err)
		return wire.JobSpec{}, nil, false
	}
	return spec, early, true
}

// jobResult is the payload GET /v1/jobs/{id} serves once a job is done,
// built from its final update: the kind's response shape, plus the
// distribution's accounting on a fleet job.
func jobResult(spec wire.JobSpec, u api.Update, fleet bool) any {
	if spec.Kind == wire.JobSweep {
		resp := wire.SweepResponse{Benchmark: spec.Benchmark, Objectives: u.Objectives, Evaluated: u.Evaluated,
			Feasible: u.Feasible, ElapsedMS: u.ElapsedMS, Candidates: u.Candidates}
		if fleet {
			return wire.ClusterSweepResponse{SweepResponse: resp, Workers: u.Workers, Shards: u.Shards, Retries: u.Retries}
		}
		return resp
	}
	resp := wire.ParetoResponse{Benchmark: spec.Benchmark, Objectives: u.Objectives, Evaluated: u.Evaluated,
		ElapsedMS: u.ElapsedMS, Frontier: u.Candidates}
	if fleet {
		return wire.ClusterParetoResponse{ParetoResponse: resp, Workers: u.Workers, Shards: u.Shards, Retries: u.Retries}
	}
	return resp
}

// streamInterval paces every job's partial answers: a local job's
// ticker publishes one snapshot per interval, and a fleet job, which
// publishes counters at every merged shard, attaches its merged answer
// to at most one merge per interval. Coarse enough that encoding the
// answer never competes with evaluation, fine enough that a human
// watching the stream sees the frontier grow.
const streamInterval = 100 * time.Millisecond
