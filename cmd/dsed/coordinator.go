package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/explore"
	"repro/internal/space"
	"repro/internal/wire"
)

// coordServer is the serving layer of coordinator mode (-workers /
// -coordinator): it owns no models and runs no simulations — requests are
// partitioned across the worker fleet through a cluster.Coordinator and
// the partial answers merged. The sweep endpoints accept exactly the wire
// format of a single worker's routes, so a client scales from one daemon
// to a fleet by changing the URL. Exploration runs as async /v1 jobs
// whose streams carry partial frontiers merged shard-by-shard from the
// workers; the legacy /cluster/* routes are blocking shims over the same
// jobs. The fleet itself is live: workers join through POST
// /v1/register, renew through POST /v1/heartbeat, and /v1/healthz
// reports the membership table.
type coordServer struct {
	coord   *cluster.Coordinator
	ttl     time.Duration
	started time.Time
	stats   *httpStats
	reqLog  *log.Logger
	tel     *telemetry
	jobAPI
}

// newCoordServer wires the coordinator's serving layer. tel is the
// daemon's observability plane (nil builds a private one, for tests) —
// pass the same telemetry whose tracer went into cluster.Options, or
// the dispatch spans and job roots land in different stores.
func newCoordServer(ctx context.Context, coord *cluster.Coordinator, ttl time.Duration, reqLog *log.Logger, tel *telemetry) *coordServer {
	if tel == nil {
		tel = newTelemetry("coordinator")
	}
	return &coordServer{
		coord:   coord,
		ttl:     ttl,
		started: time.Now(),
		stats:   newHTTPStats(tel.reg),
		reqLog:  reqLog,
		tel:     tel,
		jobAPI: jobAPI{
			jobs: api.NewManager(api.ManagerOptions{
				ErrorStatus: clusterStatus,
				BaseContext: ctx,
				Obs:         tel.reg,
			}),
			tel: tel,
		},
	}
}

// Handler routes the coordinator's endpoints behind the same
// request-ID / logging / metrics middleware as a worker: the /v1
// surface plus the legacy shims.
func (s *coordServer) Handler() http.Handler {
	mux := http.NewServeMux()
	known := make(map[string]bool)
	reg := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, h)
		known[pattern] = true
	}
	reg("/v1/healthz", negotiated(s.handleHealthz))
	reg("/v1/metrics", negotiated(s.handleMetrics))
	reg("/v1/metricsz", s.tel.handleMetricsz)
	reg("/v1/warm", negotiated(s.handleWarm))
	reg("/v1/register", negotiated(s.handleRegister))
	reg("/v1/heartbeat", negotiated(s.handleHeartbeat))
	reg("/v1/sweeps", negotiated(s.handleSweepSubmit))
	reg("/v1/pareto", negotiated(s.handleParetoSubmit))
	reg("/v1/jobs", negotiated(s.handleJobs))
	reg("/v1/jobs/{id}", negotiated(s.handleJob))
	reg("/v1/jobs/{id}/stream", s.handleJobStream)
	reg("/v1/jobs/{id}/trace", negotiated(s.tel.handleJobTrace))
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
		api.WriteError(w, r, http.StatusNotFound, "no such /v1 route %q", r.URL.Path)
	})
	reg("/healthz", deprecated("/v1/healthz", s.handleHealthz))
	reg("/metrics", deprecated("/v1/metrics", s.handleMetrics))
	reg("/warm", deprecated("/v1/warm", s.handleWarm))
	reg("/register", deprecated("/v1/register", s.handleRegister))
	reg("/heartbeat", deprecated("/v1/heartbeat", s.handleHeartbeat))
	reg("/cluster/sweep", deprecated("/v1/sweeps", s.handleSweep))
	reg("/cluster/pareto", deprecated("/v1/pareto", s.handlePareto))
	return instrument(mux, s.stats, known, s.reqLog)
}

// workerProbeTimeout bounds the per-worker /healthz probe so one hung
// worker cannot stall the coordinator's own liveness answer.
const workerProbeTimeout = 2 * time.Second

func (s *coordServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), workerProbeTimeout)
	defer cancel()
	health := s.coord.Health(ctx)
	probes := make(map[string]error, len(health))
	for _, h := range health {
		probes[h.Name] = h.Err
	}
	members := s.coord.Members()
	workers := make([]map[string]any, len(members))
	status := "ok"
	for i, m := range members {
		err, probed := probes[m.Name]
		entry := map[string]any{
			"name":   m.Name,
			"ok":     probed && err == nil,
			"static": m.Static,
			// failures are transport faults and timeouts (a sick worker);
			// rejections are the worker's deterministic 4xx verdicts on
			// bad requests — never evidence against the worker itself;
			// busy counts its retryable 429 at-capacity verdicts, so an
			// operator can tell a saturated fleet from a sick one.
			"failures":    m.Failures,
			"rejections":  m.Rejections,
			"busy":        m.Busy,
			"capacity":    m.Capacity,
			"inflight":    m.Inflight,
			"shards_done": m.ShardsDone,
		}
		if m.EWMAPerDesignMS > 0 {
			entry["ewma_ms_per_design"] = m.EWMAPerDesignMS
		}
		if !m.Static {
			entry["since_heartbeat_seconds"] = m.SinceSeen.Seconds()
		}
		if len(m.Benchmarks) > 0 {
			entry["benchmarks"] = m.Benchmarks
		}
		// The heartbeat-advertised per-benchmark running job counts: the
		// load signal behind future spill decisions, surfaced here so an
		// operator can already see which worker is drowning in what.
		if len(m.QueueDepths) > 0 {
			entry["queue_depths"] = m.QueueDepths
		}
		if err != nil {
			entry["error"] = err.Error()
			status = "degraded"
		}
		workers[i] = entry
	}
	issued, won, wasted := s.coord.HedgeStats()
	writeJSON(w, r, http.StatusOK, map[string]any{
		"status":         status,
		"mode":           "coordinator",
		"uptime_seconds": time.Since(s.started).Seconds(),
		// The placement policy this coordinator schedules with (-policy)
		// and its lifetime hedged-dispatch totals: issued speculative
		// attempts, hedges whose answer merged first, hedges that bought
		// nothing.
		"policy": s.coord.PolicyName(),
		"hedges": map[string]int{
			"issued": issued,
			"won":    won,
			"wasted": wasted,
		},
		"retries":     s.coord.Retries(),
		"ttl_seconds": s.ttl.Seconds(),
		"members":     len(members),
		"workers":     workers,
	})
}

// handleRegister joins a worker to the fleet (or renews one already
// present — registration is idempotent). The worker's advertised address
// becomes its transport and its membership name.
func (s *coordServer) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req wire.RegisterRequest
	if !decodePost(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		httpError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	t := cluster.NewHTTP(req.Addr, nil)
	added, err := s.coord.Join(t, cluster.MemberInfo{Capacity: req.Capacity, Benchmarks: req.Benchmarks, QueueDepths: req.QueueDepths})
	if err != nil {
		httpError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	if added && s.reqLog != nil {
		s.reqLog.Printf("membership: worker %s joined (%d trained benchmarks advertised)", t.Name(), len(req.Benchmarks))
	}
	writeJSON(w, r, http.StatusOK, wire.RegisterResponse{
		Worker:     t.Name(),
		Workers:    len(s.coord.Workers()),
		TTLSeconds: s.ttl.Seconds(),
	})
}

// handleHeartbeat renews a worker's lease and refreshes its advertised
// inventory. Unknown workers answer 404 — the re-register signal.
func (s *coordServer) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req wire.HeartbeatRequest
	if !decodePost(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		httpError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	name := cluster.NewHTTP(req.Addr, nil).Name()
	if err := s.coord.Heartbeat(name, cluster.MemberInfo{Capacity: req.Capacity, Benchmarks: req.Benchmarks, QueueDepths: req.QueueDepths}); err != nil {
		if errors.Is(err, cluster.ErrUnknownMember) {
			httpError(w, r, http.StatusNotFound, "%v", err)
			return
		}
		httpError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, r, http.StatusOK, wire.HeartbeatResponse{
		Worker:     name,
		Workers:    len(s.coord.Workers()),
		TTLSeconds: s.ttl.Seconds(),
	})
}

func (s *coordServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	writeJSON(w, r, http.StatusOK, map[string]any{
		"mode":           "coordinator",
		"uptime_seconds": time.Since(s.started).Seconds(),
		"retries":        s.coord.Retries(),
		"endpoints":      s.stats.snapshot(),
	})
}

// handleWarm places each benchmark's models on its consistent-hash home
// workers ahead of the first sweep.
func (s *coordServer) handleWarm(w http.ResponseWriter, r *http.Request) {
	var req wire.WarmRequest
	if !decodePost(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		httpError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	start := time.Now()
	res := s.coord.Warm(r.Context(), req.Benchmarks)
	// Only a total failure is an error status; a partially warmed fleet
	// is reported like a degraded sweep — the successful placements
	// stand, with the failures itemised.
	if res.Workers > 0 && len(res.Errors) == res.Workers {
		err := errors.Join(res.Errors...)
		httpError(w, r, clusterStatus(err), "%v", err)
		return
	}
	errStrings := make([]string, len(res.Errors))
	for i, e := range res.Errors {
		errStrings[i] = e.Error()
	}
	writeJSON(w, r, http.StatusOK, wire.WarmResponse{
		Benchmarks: req.Benchmarks,
		Trainings:  res.Trainings,
		ElapsedMS:  float64(time.Since(start).Microseconds()) / 1000,
		Errors:     errStrings,
	})
}

// clusterQuery builds the distributed query of a validated request;
// exactly one of sweep and pareto is non-nil. The query carries the
// request's space selector, so shards of a named, unsampled space travel
// as windows. An unnamed space is the train space, named explicitly here
// because cluster.Query treats an unnamed space as pinned.
func clusterQuery(sweep *wire.SweepRequest, pareto *wire.ParetoRequest) cluster.Query {
	var q cluster.Query
	if sweep != nil {
		q = cluster.Query{
			Benchmark:   sweep.Benchmark,
			Objectives:  sweep.Objectives,
			Space:       sweep.SpaceSpec,
			TopK:        sweep.TopK,
			Objective:   sweep.Objective,
			Constraints: make([]explore.Constraint, len(sweep.Constraints)),
		}
		for i, c := range sweep.Constraints {
			q.Constraints[i] = explore.Constraint{Objective: c.Objective, Max: c.Max}
		}
	} else {
		q = cluster.Query{Benchmark: pareto.Benchmark, Objectives: pareto.Objectives, Space: pareto.SpaceSpec}
	}
	if q.Space.Space == "" && len(q.Space.Designs) == 0 {
		q.Space.Space = "train"
	}
	return q
}

// fleetSegments resolves a distributed job's space to its size and the
// segments its coordinator still has to carve once the ranges in ledger
// (nil on a fresh job) are merged. Owner and coordinator modes, fresh and
// adopted jobs, all take this one path. An unsampled named space stays a
// count: its shards travel as windows on it, so the owner never
// materialises it. An explicit list or a sample is resolved (a sample is
// drawn, stopping if ctx ends) and its segments pinned.
func fleetSegments(ctx context.Context, sp wire.SpaceSpec, early []space.Config, ledger []wire.ShardRange) (int, []cluster.Segment, error) {
	if w, ok := sp.FactorialWindow(); ok {
		return w.Count, cluster.SegmentsAfter(w.Count, ledger), nil
	}
	designs, err := sp.ResolveLate(ctx, early)
	if err != nil {
		return 0, nil, err
	}
	return len(designs), cluster.Pin(cluster.SegmentsAfter(len(designs), ledger), designs), nil
}

// objectiveNames labels the specs through the same Build path a worker
// uses. Validate ran first and calls Build itself, so a failure here is
// drift between the two and must not pass silently as an empty name.
func objectiveNames(specs []wire.ObjectiveSpec) []string {
	objectives := make([]explore.Objective, len(specs))
	for i, spec := range specs {
		obj, err := spec.Build()
		if err != nil {
			panic(fmt.Sprintf("dsed: objective %d passed Validate but failed Build: %v", i, err))
		}
		objectives[i] = obj
	}
	return wire.ObjectiveNames(objectives)
}

// submitSweep decodes, validates and starts a distributed top-K job.
// The shared wire validation keeps the coordinator's verdicts identical
// to a worker's, and kills a request the homogeneous fleet would
// deterministically reject before any shard fans out.
func (s *coordServer) submitSweep(w http.ResponseWriter, r *http.Request) *api.Job {
	var req wire.SweepRequest
	if !decodePost(w, r, &req) {
		return nil
	}
	if err := req.Validate(); err != nil {
		httpError(w, r, http.StatusBadRequest, "%v", err)
		return nil
	}
	early, err := req.ResolveEarly()
	if err != nil {
		httpError(w, r, http.StatusBadRequest, "%v", err)
		return nil
	}
	return s.startJob(w, r, api.JobSweep, req.Benchmark, len(early), s.runSweep(req, early))
}

func (s *coordServer) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	if job := s.submitSweep(w, r); job != nil {
		s.submitted(w, r, job)
	}
}

// handleSweep is the legacy blocking /cluster/sweep shim over the job.
func (s *coordServer) handleSweep(w http.ResponseWriter, r *http.Request) {
	if job := s.submitSweep(w, r); job != nil {
		s.await(w, r, job)
	}
}

// runSweep is the coordinator's top-K job body: the distributed sweep
// publishes the merged feasible top-K after every shard — partial
// results flowing worker → coordinator → client at shard granularity
// (a shard's partial is the smallest mergeable unit).
func (s *coordServer) runSweep(req wire.SweepRequest, early []space.Config) api.RunFunc {
	return func(ctx context.Context, pub api.Publisher) (any, api.Update, error) {
		ctx, jobSpan := startJobSpan(s.tel, ctx, "job:sweep", pub, req.Benchmark)
		defer jobSpan.End()
		q := clusterQuery(&req, nil)
		designs, segments, err := fleetSegments(ctx, req.SpaceSpec, early, nil)
		if err != nil {
			return nil, api.Update{}, err
		}
		names := objectiveNames(req.Objectives)
		start := time.Now()
		res, err := s.coord.SweepResumeObserved(ctx, q, segments, cluster.Seed{}, func(p cluster.Progress) {
			u := api.Update{
				Evaluated:  p.Evaluated,
				Designs:    designs,
				Feasible:   p.Feasible,
				Shards:     p.Shards,
				Workers:    p.Workers,
				Worker:     p.Worker,
				Delta:      p.Delta,
				Objectives: names,
			}
			// The partial payload is serialised per subscriber; skip
			// building it when nobody streams this job.
			if pub.Streaming() {
				u.Candidates = wire.ToCandidates(p.Candidates)
			}
			pub.Publish(u)
		})
		if err != nil {
			return nil, api.Update{}, err
		}
		resp := wire.ClusterSweepResponse{
			SweepResponse: wire.SweepResponse{
				Benchmark:  req.Benchmark,
				Objectives: names,
				Evaluated:  res.Evaluated,
				Feasible:   res.Feasible,
				ElapsedMS:  float64(time.Since(start).Microseconds()) / 1000,
				Candidates: wire.ToCandidates(res.Candidates),
			},
			Workers: len(s.coord.Workers()),
			Shards:  res.Shards,
			Retries: res.Retries,
		}
		final := api.Update{
			Evaluated:  res.Evaluated,
			Designs:    designs,
			Feasible:   res.Feasible,
			Shards:     res.Shards,
			Retries:    res.Retries,
			Workers:    resp.Workers,
			Objectives: names,
			Candidates: resp.Candidates,
			ElapsedMS:  resp.ElapsedMS,
		}
		jobSpan.End()
		final.Spans = s.tel.traces.Spans(jobSpan.Context().TraceID)
		return resp, final, nil
	}
}

// submitPareto is submitSweep for distributed frontier jobs.
func (s *coordServer) submitPareto(w http.ResponseWriter, r *http.Request) *api.Job {
	var req wire.ParetoRequest
	if !decodePost(w, r, &req) {
		return nil
	}
	if err := req.Validate(); err != nil {
		httpError(w, r, http.StatusBadRequest, "%v", err)
		return nil
	}
	early, err := req.ResolveEarly()
	if err != nil {
		httpError(w, r, http.StatusBadRequest, "%v", err)
		return nil
	}
	return s.startJob(w, r, api.JobPareto, req.Benchmark, len(early), s.runPareto(req, early))
}

func (s *coordServer) handleParetoSubmit(w http.ResponseWriter, r *http.Request) {
	if job := s.submitPareto(w, r); job != nil {
		s.submitted(w, r, job)
	}
}

// handlePareto is the legacy blocking /cluster/pareto shim over the job.
func (s *coordServer) handlePareto(w http.ResponseWriter, r *http.Request) {
	if job := s.submitPareto(w, r); job != nil {
		s.await(w, r, job)
	}
}

// runPareto is the coordinator's frontier job body: every merged shard
// publishes the cumulative partial frontier.
func (s *coordServer) runPareto(req wire.ParetoRequest, early []space.Config) api.RunFunc {
	return func(ctx context.Context, pub api.Publisher) (any, api.Update, error) {
		ctx, jobSpan := startJobSpan(s.tel, ctx, "job:pareto", pub, req.Benchmark)
		defer jobSpan.End()
		q := clusterQuery(nil, &req)
		designs, segments, err := fleetSegments(ctx, req.SpaceSpec, early, nil)
		if err != nil {
			return nil, api.Update{}, err
		}
		names := objectiveNames(req.Objectives)
		start := time.Now()
		res, err := s.coord.ParetoResumeObserved(ctx, q, segments, cluster.Seed{}, func(p cluster.Progress) {
			u := api.Update{
				Evaluated:  p.Evaluated,
				Designs:    designs,
				Shards:     p.Shards,
				Workers:    p.Workers,
				Worker:     p.Worker,
				Delta:      p.Delta,
				Objectives: names,
			}
			if pub.Streaming() {
				u.Candidates = wire.ToCandidates(p.Candidates)
			}
			pub.Publish(u)
		})
		if err != nil {
			return nil, api.Update{}, err
		}
		resp := wire.ClusterParetoResponse{
			ParetoResponse: wire.ParetoResponse{
				Benchmark:  req.Benchmark,
				Objectives: names,
				Evaluated:  res.Evaluated,
				ElapsedMS:  float64(time.Since(start).Microseconds()) / 1000,
				Frontier:   wire.ToCandidates(res.Frontier),
			},
			Workers: len(s.coord.Workers()),
			Shards:  res.Shards,
			Retries: res.Retries,
		}
		final := api.Update{
			Evaluated:  res.Evaluated,
			Designs:    designs,
			Shards:     res.Shards,
			Retries:    res.Retries,
			Workers:    resp.Workers,
			Objectives: names,
			Candidates: resp.Frontier,
			ElapsedMS:  resp.ElapsedMS,
		}
		jobSpan.End()
		final.Spans = s.tel.traces.Spans(jobSpan.Context().TraceID)
		return resp, final, nil
	}
}

// clusterStatus maps a distribution failure onto an HTTP status: a
// worker's deterministic 4xx rejection is forwarded unchanged (the
// cluster answers exactly like a single daemon), the client cancelling is
// not a fleet fault, and everything else is a gateway error (the fleet,
// not the coordinator, failed the request).
func clusterStatus(err error) int {
	var rejected *cluster.WorkerRejection
	if errors.As(err, &rejected) {
		return rejected.Status
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadGateway
}
