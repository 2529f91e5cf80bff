package main

import (
	"context"
	"errors"
	"hash/fnv"
	"log"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/explore"
	"repro/internal/gossip"
	"repro/internal/obs"
	"repro/internal/space"
	"repro/internal/wire"
	"repro/pkg/dsedclient"
)

// This file is peer mode (-peers): the leaderless control plane. A peer
// is a full worker (it owns models and evaluates designs) that also
// carries a coordinator and a gossip membership table, so any node in
// the fleet accepts POST /v1/sweeps and coordinates that job across
// whoever the gossip view says is alive. There is no distinguished
// coordinator to lose: a running job's recoverable state — spec, latest
// merged cumulative snapshot, shard ledger — is pushed to f replicas
// after every merged shard, and when the fleet agrees the owner is dead
// the first alive replica adopts the job, re-dispatching only the
// unfinished segments (internal/cluster resume seam). Because snapshots
// are cumulative and the collectors associative, the adopted job's
// answer is exactly the one the dead owner would have produced.

// replicaTTL bounds how long a replica entry survives without a fresh
// push or a Done notice — a backstop against owners that vanished
// before the fleet formed an opinion about them.
const replicaTTL = 30 * time.Minute

// gossipTimeout bounds one anti-entropy exchange; a peer that cannot
// answer a tiny digest POST this fast is as good as unreachable.
const gossipTimeout = 2 * time.Second

// replicateTimeout bounds one replication push per replica.
const replicateTimeout = 2 * time.Second

// peerOptions carries peer-mode flags: the coordinator knobs plus the
// replication factor. The heartbeat interval doubles as the gossip
// round interval.
type peerOptions struct {
	coordOptions
	replicate int
}

// peerServer is the serving layer of peer mode. It shares the worker's
// Server (registry, job table, telemetry) so local-scope shards and
// fleet-scope jobs live in one job table behind one /v1 surface.
type peerServer struct {
	srv   *Server
	self  string
	seeds []string
	coord *cluster.Coordinator
	table *gossip.Table

	repFactor int
	interval  time.Duration
	replicas  *replicaTable
	adopted   *obs.Counter
	logger    *log.Logger

	clientsMu sync.Mutex
	clients   map[string]*dsedclient.Client
}

// newPeerServer wires a worker into a symmetric peer: a coordinator
// over an initially-empty fleet (membership arrives from gossip, not
// registration) and a gossip table aged at the -heartbeat interval.
func newPeerServer(srv *Server, self string, peers []string, opts peerOptions, logger *log.Logger) (*peerServer, error) {
	interval := opts.heartbeat
	if interval <= 0 {
		interval = 5 * time.Second
	}
	if opts.replicate <= 0 {
		opts.replicate = 1
	}
	placement, err := cluster.PolicyByName(opts.policy)
	if err != nil {
		return nil, err
	}
	coord, err := cluster.New(nil, cluster.Options{
		ShardSize:       opts.shardSize,
		TargetShardTime: time.Duration(opts.targetShardMS) * time.Millisecond,
		HeartbeatTTL:    missedHeartbeats * interval,
		Policy:          placement,
		HedgeFactor:     opts.hedgeFactor,
		Obs:             srv.tel.reg,
		Tracer:          srv.tel.tracer,
	})
	if err != nil {
		return nil, err
	}
	table := gossip.New(gossip.Options{
		Self: self,
		// Suspicion after two silent rounds, death after three: fast
		// enough that adoption beats a human noticing, slow enough that
		// one dropped exchange does not orphan anything.
		SuspectAfter: 2 * interval,
		DeadAfter:    3 * interval,
		Obs:          srv.tel.reg,
	})
	return &peerServer{
		srv:       srv,
		self:      self,
		seeds:     peers,
		coord:     coord,
		table:     table,
		repFactor: opts.replicate,
		interval:  interval,
		replicas:  &replicaTable{entries: make(map[string]replicaEntry)},
		// Registered eagerly so the series exists at zero: an operator
		// alerting on adoption should see the counter before the first
		// death, not after.
		adopted: srv.tel.reg.Counter("dsed_jobs_adopted_total",
			"Orphaned jobs adopted from dead owners, by reason.",
			obs.Label{Key: "reason", Value: "owner-dead"}),
		logger:  logger,
		clients: make(map[string]*dsedclient.Client),
	}, nil
}

func (ps *peerServer) tel() *telemetry { return ps.srv.tel }

func (ps *peerServer) logf(format string, args ...any) {
	if ps.logger != nil {
		ps.logger.Printf(format, args...)
	}
}

// client returns the cached typed client for a peer address. No client
// retries: the gossip/replication loops have their own cadence, and the
// coordinator's cross-worker retry is the real failover.
func (ps *peerServer) client(addr string) *dsedclient.Client {
	ps.clientsMu.Lock()
	defer ps.clientsMu.Unlock()
	if c, ok := ps.clients[addr]; ok {
		return c
	}
	c := dsedclient.New(addr,
		dsedclient.WithRetries(0),
		dsedclient.WithHTTPClient(&http.Client{Timeout: 5 * time.Second}))
	ps.clients[addr] = c
	return c
}

// Handler routes the peer's surface: the full worker surface, the
// fleet-scope sweep/pareto/warm dispatch, the gossip and replication
// seams, and job routes that follow a job to wherever it lives now.
func (ps *peerServer) Handler() http.Handler {
	s := ps.srv
	mux := http.NewServeMux()
	known := make(map[string]bool)
	reg := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, h)
		known[pattern] = true
	}
	reg("/v1/healthz", negotiated(ps.handleHealthz))
	reg("/v1/benchmarks", negotiated(s.handleBenchmarks))
	reg("/v1/metrics", negotiated(s.handleMetrics))
	reg("/v1/metricsz", s.tel.handleMetricsz)
	reg("/v1/predict", negotiated(s.handlePredict))
	reg("/v1/warm", negotiated(ps.handleWarm))
	reg("/v1/sweeps", negotiated(ps.handleSweepSubmit))
	reg("/v1/pareto", negotiated(ps.handleParetoSubmit))
	reg("/v1/gossip", negotiated(ps.handleGossip))
	// The literal route wins over /v1/jobs/{id}, so "replicate" is not a
	// reachable job ID.
	reg("/v1/jobs/replicate", negotiated(ps.handleReplicate))
	reg("/v1/jobs", negotiated(s.handleJobs))
	reg("/v1/jobs/{id}", negotiated(ps.routeJob(s.handleJob)))
	reg("/v1/jobs/{id}/stream", ps.routeJob(s.handleJobStream))
	reg("/v1/jobs/{id}/trace", negotiated(ps.routeJob(s.tel.handleJobTrace)))
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
		api.WriteError(w, r, http.StatusNotFound, "no such /v1 route %q", r.URL.Path)
	})
	reg("/healthz", deprecated("/v1/healthz", ps.handleHealthz))
	reg("/benchmarks", deprecated("/v1/benchmarks", s.handleBenchmarks))
	reg("/metrics", deprecated("/v1/metrics", s.handleMetrics))
	reg("/predict", deprecated("/v1/predict", s.handlePredict))
	reg("/warm", deprecated("/v1/warm", ps.handleWarm))
	reg("/sweep", deprecated("/v1/sweeps", ps.handleSweepBlocking))
	reg("/pareto", deprecated("/v1/pareto", ps.handleParetoBlocking))
	return instrument(mux, s.stats, known, s.reqLog)
}

func (ps *peerServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	members := ps.table.Snapshot()
	peers := make([]map[string]any, len(members))
	alive := 0
	for i, m := range members {
		if m.State == wire.GossipAlive {
			alive++
		}
		entry := map[string]any{
			"addr":        m.Addr,
			"state":       m.State,
			"incarnation": m.Incarnation,
			"beat":        m.Beat,
		}
		if m.Capacity != 0 {
			entry["capacity"] = m.Capacity
		}
		if len(m.Benchmarks) > 0 {
			entry["benchmarks"] = m.Benchmarks
		}
		if len(m.QueueDepths) > 0 {
			entry["queue_depths"] = m.QueueDepths
		}
		peers[i] = entry
	}
	writeJSON(w, r, http.StatusOK, map[string]any{
		"status":             "ok",
		"mode":               "peer",
		"self":               ps.self,
		"uptime_seconds":     time.Since(ps.srv.started).Seconds(),
		"alive_peers":        alive,
		"replication_factor": ps.repFactor,
		"replicated_jobs":    ps.replicas.size(),
		"peers":              peers,
		"trainings":          ps.srv.store.Trainings(),
		"models":             ps.srv.modelInfos(),
	})
}

// handleGossip answers one push-pull anti-entropy exchange: merge the
// sender's digest, count the contact as liveness evidence for them, and
// send our digest back.
func (ps *peerServer) handleGossip(w http.ResponseWriter, r *http.Request) {
	var req wire.GossipRequest
	if !decodePost(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		httpError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	ps.table.Merge(req.Entries)
	ps.table.Witness(req.From)
	writeJSON(w, r, http.StatusOK, wire.GossipResponse{From: ps.self, Entries: ps.table.Digest()})
}

// handleReplicate accepts a job's latest recoverable state from its
// owner. Stale pushes (Seq behind what we hold) are ignored; a Done
// notice retires the entry.
func (ps *peerServer) handleReplicate(w http.ResponseWriter, r *http.Request) {
	var req wire.ReplicateRequest
	if !decodePost(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		httpError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Done {
		ps.replicas.retire(req)
	} else {
		ps.replicas.put(req)
	}
	writeJSON(w, r, http.StatusOK, wire.ReplicateResponse{JobID: req.JobID, Seq: req.Seq})
}

// routeJob follows a job to wherever it lives now. A job in the local
// table serves locally. A job we hold a replica of redirects to its
// owner while the owner lives, and to the presumed adopter once the
// fleet declares the owner dead; clients follow the 307 with the method
// and body intact. In the adoption window — owner dead, successor (us)
// not yet started — the answer is a retryable 503, which the client's
// stream resume machinery rides out. A finished job's tombstone keeps
// redirecting to whoever finished it, so late trace/result fetches
// through a non-owner peer don't 404 the moment the job completes.
func (ps *peerServer) routeJob(local http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if _, err := ps.srv.jobs.Get(id); err == nil {
			local(w, r)
			return
		}
		st, ok := ps.replicas.get(id)
		if !ok {
			local(w, r) // the standard 404 envelope
			return
		}
		if st.Done {
			if ps.table.State(st.Owner) != wire.GossipDead {
				redirectTo(w, r, st.Owner)
				return
			}
			local(w, r) // finished and its holder is gone: nothing to serve
			return
		}
		if ps.table.State(st.Owner) != wire.GossipDead {
			redirectTo(w, r, st.Owner)
			return
		}
		if next := ps.successor(st); next != "" && next != ps.self {
			redirectTo(w, r, next)
			return
		}
		api.WriteError(w, r, http.StatusServiceUnavailable,
			"job %s lost its owner %s; adoption pending — retry", id, st.Owner)
	}
}

func redirectTo(w http.ResponseWriter, r *http.Request, addr string) {
	http.Redirect(w, r, "http://"+addr+r.URL.RequestURI(), http.StatusTemporaryRedirect)
}

// submitSweep decodes and validates a sweep, then starts it at the
// request's scope: a local-scope request is a shard another peer placed
// here and runs on this node's own models; anything else is a
// fleet-scope job this peer owns, coordinates, and replicates.
func (ps *peerServer) submitSweep(w http.ResponseWriter, r *http.Request) *api.Job {
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
	if req.Scope == wire.ScopeLocal {
		return ps.srv.startJob(w, r, api.JobSweep, req.Benchmark, len(early), ps.srv.runSweep(req, early))
	}
	job := fleetJob{kind: api.JobSweep, sweep: &req}
	return ps.srv.startJob(w, r, api.JobSweep, req.Benchmark, len(early), ps.runFleet(job, early, nil))
}

func (ps *peerServer) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	if job := ps.submitSweep(w, r); job != nil {
		ps.srv.submitted(w, r, job)
	}
}

func (ps *peerServer) handleSweepBlocking(w http.ResponseWriter, r *http.Request) {
	if job := ps.submitSweep(w, r); job != nil {
		ps.srv.await(w, r, job)
	}
}

// submitPareto is submitSweep for frontier jobs.
func (ps *peerServer) submitPareto(w http.ResponseWriter, r *http.Request) *api.Job {
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
	if req.Scope == wire.ScopeLocal {
		return ps.srv.startJob(w, r, api.JobPareto, req.Benchmark, len(early), ps.srv.runPareto(req, early))
	}
	job := fleetJob{kind: api.JobPareto, pareto: &req}
	return ps.srv.startJob(w, r, api.JobPareto, req.Benchmark, len(early), ps.runFleet(job, early, nil))
}

func (ps *peerServer) handleParetoSubmit(w http.ResponseWriter, r *http.Request) {
	if job := ps.submitPareto(w, r); job != nil {
		ps.srv.submitted(w, r, job)
	}
}

func (ps *peerServer) handleParetoBlocking(w http.ResponseWriter, r *http.Request) {
	if job := ps.submitPareto(w, r); job != nil {
		ps.srv.await(w, r, job)
	}
}

// handleWarm trains locally at local scope, and places models across
// the gossip-built fleet otherwise (same partial-failure policy as the
// coordinator's warm).
func (ps *peerServer) handleWarm(w http.ResponseWriter, r *http.Request) {
	var req wire.WarmRequest
	if !decodePost(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		httpError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Scope == wire.ScopeLocal {
		ps.srv.warmLocal(w, r, req)
		return
	}
	start := time.Now()
	res := ps.coord.Warm(r.Context(), req.Benchmarks)
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

// fleetJob is one distributed job's spec in replicable form: exactly
// one of sweep/pareto is set, with the design list still in
// seed-deterministic resolvable form so an adopter rebuilds the
// identical list.
type fleetJob struct {
	kind   api.JobKind
	sweep  *wire.SweepRequest
	pareto *wire.ParetoRequest
}

func (f fleetJob) benchmark() string {
	if f.sweep != nil {
		return f.sweep.Benchmark
	}
	return f.pareto.Benchmark
}

func (f fleetJob) objectives() []wire.ObjectiveSpec {
	if f.sweep != nil {
		return f.sweep.Objectives
	}
	return f.pareto.Objectives
}

func (f fleetJob) replicaKind() string {
	if f.sweep != nil {
		return wire.ReplicaSweep
	}
	return wire.ReplicaPareto
}

func (f fleetJob) query() cluster.Query { return clusterQuery(f.sweep, f.pareto) }

func (f fleetJob) resolve(ctx context.Context, early []space.Config) ([]space.Config, error) {
	if f.sweep != nil {
		return f.sweep.ResolveLate(ctx, early)
	}
	return f.pareto.ResolveLate(ctx, early)
}

// runFleet is the peer's distributed job body, serving both fresh jobs
// (resume nil: one segment, empty seed) and adopted ones (segments are
// the complement of the dead owner's shard ledger, the seed its latest
// merged snapshot). Every merged shard publishes the cumulative partial
// and pushes the job's recoverable state to its replicas.
func (ps *peerServer) runFleet(job fleetJob, early []space.Config, resume *wire.ReplicateRequest) api.RunFunc {
	return func(ctx context.Context, pub api.Publisher) (any, api.Update, error) {
		var jobSpan *obs.ActiveSpan
		if resume == nil {
			ctx, jobSpan = startJobSpan(ps.tel(), ctx, "job:"+string(job.kind), pub, job.benchmark())
		} else {
			// Adoption splices into the dead owner's trace: import its
			// replicated spans, parent an "adopt" span under its root, and
			// bind the job to the same trace ID, so GET /v1/jobs/{id}/trace
			// shows one tree spanning both nodes.
			ctx = ps.spliceOwnerTrace(ctx, pub.JobID(), resume)
			ctx, jobSpan = ps.tel().tracer.Start(ctx, "adopt")
			jobSpan.SetAttr("job_id", pub.JobID())
			jobSpan.SetAttr("benchmark", job.benchmark())
			jobSpan.SetAttr("owner", resume.Owner)
			jobSpan.SetAttr("reason", "owner-dead")
			ps.tel().traces.Bind(pub.JobID(), jobSpan.Context().TraceID)
		}
		defer jobSpan.End()
		q := job.query()
		designs, err := job.resolve(ctx, early)
		if err != nil {
			return nil, api.Update{}, err
		}
		names := objectiveNames(job.objectives())
		segments := []cluster.Segment{{Designs: designs}}
		var seed cluster.Seed
		var ledger []wire.ShardRange
		if resume != nil {
			segments = cluster.SegmentsAfter(designs, resume.Ledger)
			seed = seedFromReplica(resume)
			ledger = append(ledger, resume.Ledger...)
		}
		rep := ps.newReplicator(pub.JobID(), job, len(designs), jobSpan.Context(), ledger)
		go rep.run()
		defer rep.finish()
		// The opening snapshot: a subscriber sees the job's shape — and on
		// an adopted job the inherited cumulative counters — before the
		// first newly merged shard lands.
		pub.Publish(api.Update{
			Designs:    len(designs),
			Objectives: names,
			Evaluated:  seed.Evaluated,
			Feasible:   seed.Feasible,
			Shards:     seed.Shards,
		})
		// Replicate before the first dispatch, not after the first merge:
		// an owner that dies mid-first-shard must already have left the
		// spec (and, on adoption, the inherited state) at its replicas.
		rep.pushSeed(seed, pub.Seq())
		start := time.Now()
		observer := func(p cluster.Progress) {
			u := api.Update{
				Evaluated:  p.Evaluated,
				Designs:    len(designs),
				Feasible:   p.Feasible,
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
			rep.push(p, pub.Seq())
		}
		if job.kind == api.JobSweep {
			res, err := ps.coord.SweepResumeObserved(ctx, q, segments, seed, observer)
			if err != nil {
				return nil, api.Update{}, err
			}
			resp := wire.ClusterSweepResponse{
				SweepResponse: wire.SweepResponse{
					Benchmark:  job.benchmark(),
					Objectives: names,
					Evaluated:  res.Evaluated,
					Feasible:   res.Feasible,
					ElapsedMS:  float64(time.Since(start).Microseconds()) / 1000,
					Candidates: wire.ToCandidates(res.Candidates),
				},
				Workers: len(ps.coord.Workers()),
				Shards:  res.Shards,
				Retries: res.Retries,
			}
			final := api.Update{
				Evaluated:  res.Evaluated,
				Designs:    len(designs),
				Feasible:   res.Feasible,
				Shards:     res.Shards,
				Retries:    res.Retries,
				Workers:    resp.Workers,
				Objectives: names,
				Candidates: resp.Candidates,
				ElapsedMS:  resp.ElapsedMS,
			}
			jobSpan.End()
			final.Spans = ps.tel().traces.Spans(jobSpan.Context().TraceID)
			return resp, final, nil
		}
		res, err := ps.coord.ParetoResumeObserved(ctx, q, segments, seed, observer)
		if err != nil {
			return nil, api.Update{}, err
		}
		resp := wire.ClusterParetoResponse{
			ParetoResponse: wire.ParetoResponse{
				Benchmark:  job.benchmark(),
				Objectives: names,
				Evaluated:  res.Evaluated,
				ElapsedMS:  float64(time.Since(start).Microseconds()) / 1000,
				Frontier:   wire.ToCandidates(res.Frontier),
			},
			Workers: len(ps.coord.Workers()),
			Shards:  res.Shards,
			Retries: res.Retries,
		}
		final := api.Update{
			Evaluated:  res.Evaluated,
			Designs:    len(designs),
			Shards:     res.Shards,
			Retries:    res.Retries,
			Workers:    resp.Workers,
			Objectives: names,
			Candidates: resp.Frontier,
			ElapsedMS:  resp.ElapsedMS,
		}
		jobSpan.End()
		final.Spans = ps.tel().traces.Spans(jobSpan.Context().TraceID)
		return resp, final, nil
	}
}

// spliceOwnerTrace rebuilds the dead owner's trace context from the
// replicated excerpt: import its spans (synthesizing the root if the
// excerpt was truncated past it), bind the job to the owner's trace,
// and return a context parented under the owner's root span.
func (ps *peerServer) spliceOwnerTrace(ctx context.Context, jobID string, st *wire.ReplicateRequest) context.Context {
	sc, ok := obs.ParseTraceparent(st.Traceparent)
	if !ok {
		return ctx
	}
	spans := st.Spans
	haveRoot := false
	for _, sp := range spans {
		if sp.SpanID == sc.SpanID {
			haveRoot = true
			break
		}
	}
	if !haveRoot {
		spans = append(append([]obs.Span(nil), spans...), obs.Span{
			TraceID: sc.TraceID,
			SpanID:  sc.SpanID,
			Name:    "job:" + st.Kind,
			Node:    st.Owner,
			Attrs:   map[string]string{"job_id": jobID},
		})
	}
	ps.tel().tracer.Import(spans)
	ps.tel().traces.Bind(jobID, sc.TraceID)
	return obs.ContextWithSpan(ctx, sc)
}

// seedFromReplica lifts a replicated snapshot into the resume seed,
// restoring original design indices (top-K tie-breaking depends on
// them; frontier candidates carry -1 and ignore it).
func seedFromReplica(st *wire.ReplicateRequest) cluster.Seed {
	out := cluster.Seed{Evaluated: st.Evaluated, Feasible: st.Feasible, Shards: st.Shards}
	for _, sc := range st.Snapshot {
		out.Candidates = append(out.Candidates, cluster.IndexedCandidate{
			Index:     sc.Index,
			Candidate: sc.Candidate.ToExplore(),
		})
	}
	return out
}

// replicaSnapshot converts one Progress into the replicated snapshot
// form: indexed entries for top-K (tie-breaking), index-free (-1)
// candidates for frontiers (merging is index-independent there).
func replicaSnapshot(p cluster.Progress) []wire.SnapshotCandidate {
	if p.Indexed != nil {
		out := make([]wire.SnapshotCandidate, len(p.Indexed))
		for i, ic := range p.Indexed {
			out[i] = wire.SnapshotCandidate{
				Index:     ic.Index,
				Candidate: wire.ToCandidates([]explore.Candidate{ic.Candidate})[0],
			}
		}
		return out
	}
	cands := wire.ToCandidates(p.Candidates)
	out := make([]wire.SnapshotCandidate, len(cands))
	for i, c := range cands {
		out[i] = wire.SnapshotCandidate{Index: -1, Candidate: c}
	}
	return out
}

// replicator pushes one job's recoverable state to its replicas.
// Publishing happens under the coordinator's merge lock, so push only
// records the newest payload; a dedicated goroutine does the HTTP sends
// and coalesces bursts (newest wins — replicas only keep the latest
// anyway).
type replicator struct {
	ps      *peerServer
	jobID   string
	job     fleetJob
	designs int
	root    obs.SpanContext

	mu     sync.Mutex
	ledger []wire.ShardRange
	latest *wire.ReplicateRequest

	notify chan struct{}
	quit   chan struct{}
	once   sync.Once
}

func (ps *peerServer) newReplicator(jobID string, job fleetJob, designs int, root obs.SpanContext, ledger []wire.ShardRange) *replicator {
	return &replicator{
		ps:      ps,
		jobID:   jobID,
		job:     job,
		designs: designs,
		root:    root,
		ledger:  ledger,
		notify:  make(chan struct{}, 1),
		quit:    make(chan struct{}),
	}
}

// push records the post-merge state as the newest replication payload.
// It runs under the coordinator's merge lock and must not block.
func (r *replicator) push(p cluster.Progress, seq int) {
	r.mu.Lock()
	r.ledger = wire.AddRange(r.ledger, wire.ShardRange{Start: p.ShardStart, Count: p.ShardLen})
	req := wire.ReplicateRequest{
		JobID:     r.jobID,
		Kind:      r.job.replicaKind(),
		Owner:     r.ps.self,
		Benchmark: r.job.benchmark(),
		Designs:   r.designs,
		Seq:       seq,
		Sweep:     r.job.sweep,
		Pareto:    r.job.pareto,
		Evaluated: p.Evaluated,
		Feasible:  p.Feasible,
		Shards:    p.Shards,
		Snapshot:  replicaSnapshot(p),
		Ledger:    append([]wire.ShardRange(nil), r.ledger...),
	}
	r.latest = &req
	r.mu.Unlock()
	select {
	case r.notify <- struct{}{}:
	default:
	}
}

// pushSeed records the job's pre-first-merge state (the spec plus, on
// an adopted job, the inherited snapshot and ledger) so the job
// survives an owner that dies before any new shard lands.
func (r *replicator) pushSeed(seed cluster.Seed, seq int) {
	snapshot := make([]wire.SnapshotCandidate, len(seed.Candidates))
	for i, ic := range seed.Candidates {
		snapshot[i] = wire.SnapshotCandidate{
			Index:     ic.Index,
			Candidate: wire.ToCandidates([]explore.Candidate{ic.Candidate})[0],
		}
	}
	r.mu.Lock()
	req := wire.ReplicateRequest{
		JobID:     r.jobID,
		Kind:      r.job.replicaKind(),
		Owner:     r.ps.self,
		Benchmark: r.job.benchmark(),
		Designs:   r.designs,
		Seq:       seq,
		Sweep:     r.job.sweep,
		Pareto:    r.job.pareto,
		Evaluated: seed.Evaluated,
		Feasible:  seed.Feasible,
		Shards:    seed.Shards,
		Snapshot:  snapshot,
		Ledger:    append([]wire.ShardRange(nil), r.ledger...),
	}
	r.latest = &req
	r.mu.Unlock()
	select {
	case r.notify <- struct{}{}:
	default:
	}
}

// finish retires the job at its replicas (any outcome): the entry must
// not outlive the job, or a later owner death would resurrect it. The
// send happens on the replicator goroutine so a dead replica's timeout
// never delays the job's own final update.
func (r *replicator) finish() {
	r.once.Do(func() { close(r.quit) })
}

// run ships payloads until finish closes quit, then the newest state
// and the Done notice. It deliberately does not watch the job's context:
// a cancelled job must be retired at its replicas too, and on completion
// the job context is cancelled right after finish, so a select over both
// would drop the notice about half the time.
func (r *replicator) run() {
	for {
		select {
		case <-r.quit:
			r.sendLatest()
			r.send(wire.ReplicateRequest{JobID: r.jobID, Owner: r.ps.self, Done: true})
			return
		case <-r.notify:
			r.sendLatest()
		}
	}
}

// sendLatest ships the newest recorded payload, attaching the trace
// excerpt here — off the merge lock — because span serialization is the
// expensive part of the push.
func (r *replicator) sendLatest() {
	r.mu.Lock()
	req := r.latest
	r.latest = nil
	r.mu.Unlock()
	if req == nil {
		return
	}
	req.Traceparent = r.root.Traceparent()
	spans := r.ps.tel().traces.Spans(r.root.TraceID)
	if len(spans) > wire.MaxReplicatedSpans {
		spans = spans[:wire.MaxReplicatedSpans]
	}
	req.Spans = spans
	r.send(*req)
}

// send pushes one payload to the job's current replica set. Replicas
// ride inside the payload so every holder agrees on the adoption order
// without an election.
func (r *replicator) send(req wire.ReplicateRequest) {
	req.Replicas = r.ps.pickReplicas(r.jobID)
	for _, addr := range req.Replicas {
		ctx, cancel := context.WithTimeout(context.Background(), replicateTimeout)
		_, err := r.ps.client(addr).Replicate(ctx, req)
		cancel()
		if err != nil {
			r.ps.logf("replicate: job %s -> %s: %v", req.JobID, addr, err)
		}
	}
}

// pickReplicas chooses f alive peers for a job by rendezvous hashing
// (fnv over jobID|addr): stable for one job while the fleet holds
// still, spread across peers over many jobs.
func (ps *peerServer) pickReplicas(jobID string) []string {
	var cands []string
	for _, e := range ps.table.Alive() {
		if e.Addr != ps.self {
			cands = append(cands, e.Addr)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		hi, hj := replicaRank(jobID, cands[i]), replicaRank(jobID, cands[j])
		if hi != hj {
			return hi < hj
		}
		return cands[i] < cands[j]
	})
	if len(cands) > ps.repFactor {
		cands = cands[:ps.repFactor]
	}
	return cands
}

func replicaRank(jobID, addr string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(jobID))
	h.Write([]byte{'|'})
	h.Write([]byte(addr))
	return h.Sum32()
}

// loop drives the peer's periodic round: advertise, gossip, age,
// project membership, adopt orphans. One immediate round lets a small
// fleet converge before the first interval elapses.
func (ps *peerServer) loop(ctx context.Context) {
	ps.round(ctx)
	tick := time.NewTicker(ps.interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			ps.round(ctx)
		}
	}
}

func (ps *peerServer) round(ctx context.Context) {
	inventory := ps.srv.store.Trained()
	if len(inventory) > wire.MaxInventoryBenchmarks {
		inventory = inventory[:wire.MaxInventoryBenchmarks]
	}
	ps.table.SetLocalInfo(ps.srv.workers, inventory, ps.srv.QueueDepths())
	if target := ps.gossipTarget(); target != "" {
		ps.exchange(ctx, target)
	}
	ps.table.Sweep()
	ps.syncGossipMembership()
	ps.adoptOrphans(ctx)
	ps.replicas.expire(replicaTTL)
}

// gossipTarget picks a random peer to exchange digests with: the
// configured seeds keep a partitioned node probing, the table keeps a
// grown fleet mixing.
func (ps *peerServer) gossipTarget() string {
	seen := map[string]bool{ps.self: true}
	var cands []string
	for _, a := range ps.seeds {
		if !seen[a] {
			seen[a] = true
			cands = append(cands, a)
		}
	}
	for _, e := range ps.table.Snapshot() {
		if e.State == wire.GossipDead || seen[e.Addr] {
			continue
		}
		seen[e.Addr] = true
		cands = append(cands, e.Addr)
	}
	if len(cands) == 0 {
		return ""
	}
	return cands[rand.Intn(len(cands))]
}

func (ps *peerServer) exchange(ctx context.Context, target string) {
	ctx, cancel := context.WithTimeout(ctx, gossipTimeout)
	defer cancel()
	resp, err := ps.client(target).Gossip(ctx, wire.GossipRequest{From: ps.self, Entries: ps.table.Digest()})
	if err != nil {
		ps.table.NoteRound(false)
		return
	}
	ps.table.Merge(resp.Entries)
	ps.table.Witness(target)
	ps.table.NoteRound(true)
}

// syncGossipMembership projects the gossip view onto the coordinator's
// member table — the one sanctioned seam between the two planes (the
// memberseam lint rule flags Join/Heartbeat/Leave anywhere else in peer
// code). Alive peers, self included, become schedulable members with
// their gossiped inventory; anything suspect or dead leaves the
// scheduling fleet immediately, even though adoption waits for the
// stronger dead verdict.
func (ps *peerServer) syncGossipMembership() {
	known := make(map[string]bool)
	for _, m := range ps.coord.Members() {
		known[m.Name] = true
	}
	for _, e := range ps.table.Snapshot() {
		name := "http://" + e.Addr
		info := cluster.MemberInfo{Capacity: e.Capacity, Benchmarks: e.Benchmarks, QueueDepths: e.QueueDepths}
		if e.State == wire.GossipAlive {
			if known[name] {
				if err := ps.coord.Heartbeat(name, info); err != nil {
					ps.logf("membership: heartbeat %s: %v", name, err)
				}
				continue
			}
			if _, err := ps.coord.Join(cluster.NewHTTP(e.Addr, nil), info); err != nil {
				ps.logf("membership: join %s: %v", name, err)
				continue
			}
			ps.logf("membership: peer %s joined the scheduling fleet", e.Addr)
			continue
		}
		if known[name] && ps.coord.Leave(name) {
			ps.logf("membership: peer %s left the scheduling fleet (%s)", e.Addr, e.State)
		}
	}
}

// adoptOrphans scans the replica table for jobs whose owner the fleet
// has declared dead and adopts the ones this node is first in line for.
// The death verdict is double-checked with one direct probe first: a
// CPU-starved peer can miss enough gossip rounds to be declared dead
// while still running its jobs, and adopting a running job would fork
// it. A probed-alive owner defers adoption until it either refutes its
// death through gossip or stops answering for real.
func (ps *peerServer) adoptOrphans(ctx context.Context) {
	for _, st := range ps.replicas.snapshot() {
		if st.Done || ps.table.State(st.Owner) != wire.GossipDead {
			continue
		}
		if ps.successor(st) != ps.self {
			continue
		}
		if ps.ownerAnswers(ctx, st.Owner) {
			ps.logf("adopt: job %s: dead-listed owner %s still answers; deferring", st.JobID, st.Owner)
			continue
		}
		ps.adopt(st)
	}
}

// ownerAnswers is the direct liveness probe behind the adoption guard.
func (ps *peerServer) ownerAnswers(ctx context.Context, addr string) bool {
	ctx, cancel := context.WithTimeout(ctx, gossipTimeout)
	defer cancel()
	return ps.client(addr).Healthy(ctx) == nil
}

// successor is the replicated adoption order's verdict: the first
// address in the replica list the fleet has not declared dead. Every
// replica holds the same list, so the fleet converges on one adopter
// without coordination — but only the hard dead verdict may skip a
// peer's turn. A suspicion is one starved gossip round away from being
// wrong, and skipping on it lets two replicas each conclude they are
// first in line and fork the job; deferring costs at most the
// suspect→dead aging window.
func (ps *peerServer) successor(st wire.ReplicateRequest) string {
	for _, addr := range st.Replicas {
		if addr == st.Owner {
			continue
		}
		if addr == ps.self {
			return addr
		}
		if state := ps.table.State(addr); state == wire.GossipAlive || state == wire.GossipSuspect {
			return addr
		}
	}
	return ""
}

// adopt restarts an orphaned job from its replicated state under its
// original ID: the design list rebuilds deterministically from the
// spec, the ledger's complement is what still runs, and the job's seq
// continues where the owner's left off so resuming streams stay
// monotone.
func (ps *peerServer) adopt(st wire.ReplicateRequest) {
	ps.replicas.drop(st.JobID)
	var job fleetJob
	var early []space.Config
	var err error
	switch st.Kind {
	case wire.ReplicaSweep:
		job = fleetJob{kind: api.JobSweep, sweep: st.Sweep}
		early, err = st.Sweep.ResolveEarly()
	case wire.ReplicaPareto:
		job = fleetJob{kind: api.JobPareto, pareto: st.Pareto}
		early, err = st.Pareto.ResolveEarly()
	default:
		return
	}
	if err != nil {
		ps.logf("adopt: job %s spec no longer resolves: %v", st.JobID, err)
		return
	}
	resume := st
	if _, err := ps.srv.jobs.StartAdopted(st.JobID, job.kind, st.Benchmark, st.Designs, st.Seq, ps.runFleet(job, early, &resume)); err != nil {
		ps.logf("adopt: job %s: %v", st.JobID, err)
		return
	}
	ps.adopted.Inc()
	ps.logf("adopted job %s from dead owner %s (%d/%d designs already merged)",
		st.JobID, st.Owner, wire.RangesTotal(st.Ledger), st.Designs)
}

// replicaEntry is one held replica with its local arrival time (for the
// TTL backstop).
type replicaEntry struct {
	state wire.ReplicateRequest
	seen  time.Time
}

// replicaTable holds the jobs this node is a replica for.
type replicaTable struct {
	mu      sync.Mutex
	entries map[string]replicaEntry
}

// put upserts a payload, ignoring pushes older than what we hold (Seq
// orders them; an adopter's pushes continue the owner's sequence) and
// any push for a job already retired — a Done verdict is final, and a
// straggling state push must not resurrect a finished job.
func (t *replicaTable) put(req wire.ReplicateRequest) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur, ok := t.entries[req.JobID]; ok && (cur.state.Done || req.Seq < cur.state.Seq) {
		return
	}
	t.entries[req.JobID] = replicaEntry{state: req, seen: time.Now()}
}

// retire replaces a job's replica state with a routing tombstone: the
// job finished at req.Owner, can never be adopted again, and late
// lookups through this peer redirect there instead of 404ing.
func (t *replicaTable) retire(req wire.ReplicateRequest) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entries[req.JobID] = replicaEntry{
		state: wire.ReplicateRequest{JobID: req.JobID, Owner: req.Owner, Done: true},
		seen:  time.Now(),
	}
}

func (t *replicaTable) get(id string) (wire.ReplicateRequest, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	return e.state, ok
}

func (t *replicaTable) drop(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.entries, id)
}

func (t *replicaTable) snapshot() []wire.ReplicateRequest {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]wire.ReplicateRequest, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, e.state)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	return out
}

func (t *replicaTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

func (t *replicaTable) expire(ttl time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cutoff := time.Now().Add(-ttl)
	for id, e := range t.entries {
		if e.seen.Before(cutoff) {
			delete(t.entries, id)
		}
	}
}
