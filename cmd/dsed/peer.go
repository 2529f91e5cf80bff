package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
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

// peerOptions carries the fleet flags: shard sizing and hedging for the
// jobs this peer owns, the gossip round interval
// (-heartbeat), and the replication factor.
type peerOptions struct {
	shardSize     int
	targetShardMS int
	heartbeat     time.Duration
	hedgeFactor   float64
	replicate     int
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
	// local is this peer's own scheduling member: its shards run in
	// process (see newSelfWorker).
	local cluster.Transport

	repFactor int
	interval  time.Duration
	replicas  *replicaTable
	adopted   *obs.Counter
	logger    *log.Logger

	clientsMu sync.Mutex
	clients   map[string]*dsedclient.Client
	// syncMu serialises syncGossipMembership.
	syncMu sync.Mutex
}

// newPeerServer wires a daemon into a symmetric peer: a coordinator over
// an initially empty fleet (membership arrives from gossip) and a gossip
// table aged at the -heartbeat interval.
func newPeerServer(srv *Server, self string, peers []string, opts peerOptions, logger *log.Logger) (*peerServer, error) {
	interval := opts.heartbeat
	if interval <= 0 {
		interval = 5 * time.Second
	}
	if opts.replicate <= 0 {
		opts.replicate = 1
	}
	coord, err := cluster.New(nil, cluster.Options{
		ShardSize:       opts.shardSize,
		TargetShardTime: time.Duration(opts.targetShardMS) * time.Millisecond,
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
		local:     newSelfWorker(srv, "http://"+self),
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

// Handler routes the peer's surface: the single daemon's route table
// with fleet-scope healthz/warm/sweeps/pareto, job routes that follow a
// job to wherever it lives now, and the gossip and replication seams.
func (ps *peerServer) Handler() http.Handler {
	s := ps.srv
	return s.routes(map[string]http.HandlerFunc{
		"/v1/healthz": negotiated(ps.handleHealthz),
		"/v1/warm":    negotiated(ps.handleWarm),
		"/v1/sweeps":  negotiated(ps.handleSubmit(wire.JobSweep)),
		"/v1/pareto":  negotiated(ps.handleSubmit(wire.JobPareto)),
		"/v1/gossip":  negotiated(ps.handleGossip),
		// The literal route wins over /v1/jobs/{id}, so "replicate" is
		// not a reachable job ID.
		"/v1/jobs/replicate":   negotiated(ps.handleReplicate),
		"/v1/jobs/{id}":        negotiated(ps.routeJob(s.handleJob)),
		"/v1/jobs/{id}/stream": ps.routeJob(s.handleJobStream),
		"/v1/jobs/{id}/trace":  negotiated(ps.routeJob(s.tel.handleJobTrace)),
	})
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
// sender's digest, count the contact as liveness evidence for them,
// project the merged view onto the scheduling fleet, and send our digest
// back. Projecting before answering keeps the fleet in step with what
// /v1/healthz reports, instead of a -heartbeat behind it.
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
	ps.syncGossipMembership()
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

// handleSubmit starts a job of the given kind at the request's scope: a
// local-scope request is a shard another peer placed here and runs on
// this node's own models; anything else is a fleet-scope job this peer
// owns, coordinates, and replicates.
func (ps *peerServer) handleSubmit(kind wire.JobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		spec, early, ok := decodeJob(w, r, kind)
		if !ok {
			return
		}
		run := ps.runFleet(spec, early, nil)
		if spec.Scope == wire.ScopeLocal {
			run = ps.srv.runLocal(spec, early)
		}
		ps.srv.submit(w, r, spec, len(early), run)
	}
}

// handleWarm trains locally at local scope, and places models across
// the gossip-built fleet otherwise: only a total failure is an error
// status; a partial warm itemises its failures beside the placements
// that stand.
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

// fleetSegments resolves a distributed job's space to its size and the
// segments its owner still has to carve once the ranges in ledger (nil
// on a fresh job) are merged. Fresh and adopted jobs take this one path.
// An unsampled named space stays a count: its shards travel as windows
// on it, so the owner never materialises it. An explicit list or a
// sample is resolved (a sample is drawn, stopping if ctx ends) and its
// segments pinned.
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

// clusterStatus maps a distribution failure onto an HTTP status: a
// worker's deterministic 4xx rejection is forwarded unchanged (the
// cluster answers exactly like a single daemon), the client cancelling is
// not a fleet fault, and everything else is a gateway error (the fleet,
// not the owner, failed the request).
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

// runFleet is the peer's distributed job body, for either kind, serving
// both fresh jobs (resume nil: one segment, empty seed) and adopted ones
// (segments are the complement of the dead owner's shard ledger, the
// seed its latest merged snapshot). Every merged shard publishes the
// cumulative partial and pushes the job's recoverable state to its
// replicas. spec keeps the design list in seed-deterministic resolvable
// form, so an adopter rebuilds the identical list.
func (ps *peerServer) runFleet(spec wire.JobSpec, early []space.Config, resume *wire.ReplicateRequest) api.RunFunc {
	return func(ctx context.Context, pub api.Publisher) (any, api.Update, error) {
		var jobSpan *obs.ActiveSpan
		if resume == nil {
			ctx, jobSpan = startJobSpan(ps.tel(), ctx, "job:"+string(spec.Kind), pub, spec.Benchmark)
		} else {
			// Adoption splices into the dead owner's trace: import its
			// replicated spans, parent an "adopt" span under its root, and
			// bind the job to the same trace ID, so GET /v1/jobs/{id}/trace
			// shows one tree spanning both nodes.
			ctx = ps.spliceOwnerTrace(ctx, pub.JobID(), resume)
			ctx, jobSpan = ps.tel().tracer.Start(ctx, "adopt")
			jobSpan.SetAttr("job_id", pub.JobID())
			jobSpan.SetAttr("benchmark", spec.Benchmark)
			jobSpan.SetAttr("owner", resume.Owner)
			jobSpan.SetAttr("reason", "owner-dead")
			ps.tel().traces.Bind(pub.JobID(), jobSpan.Context().TraceID)
		}
		defer jobSpan.End()
		var seed cluster.Seed
		var ledger []wire.ShardRange
		if resume != nil {
			seed = seedFromReplica(resume)
			ledger = append(ledger, resume.Ledger...)
		}
		designs, segments, err := fleetSegments(ctx, spec.SpaceSpec, early, ledger)
		if err != nil {
			return nil, api.Update{}, err
		}
		names := objectiveNames(spec.Objectives)
		rep := ps.newReplicator(pub.JobID(), spec, designs, jobSpan.Context(), ledger)
		go rep.run()
		defer rep.finish()
		// The opening snapshot: a subscriber sees the job's shape — and on
		// an adopted job the inherited cumulative counters — before the
		// first newly merged shard lands.
		pub.Publish(api.Update{
			Designs:    designs,
			Objectives: names,
			Evaluated:  seed.Evaluated,
			Feasible:   seed.Feasible,
			Shards:     seed.Shards,
		})
		// Replicate before the first dispatch, not after the first merge:
		// an owner that dies mid-first-shard must already have left the
		// spec (and, on adoption, the inherited state) at its replicas.
		rep.push(cluster.Progress{Evaluated: seed.Evaluated, Feasible: seed.Feasible, Shards: seed.Shards, Indexed: seed.Candidates}, pub.Seq())
		start := time.Now()
		res, err := ps.coord.Run(ctx, cluster.QueryOf(spec), segments, seed, func(p cluster.Progress) {
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
			if pub.Streaming() {
				u.Candidates = wire.ToCandidates(p.Candidates)
			}
			pub.Publish(u)
			rep.push(p, pub.Seq())
		})
		if err != nil {
			return nil, api.Update{}, err
		}
		final := api.Update{
			Evaluated:  res.Evaluated,
			Designs:    designs,
			Feasible:   res.Feasible,
			Shards:     res.Shards,
			Retries:    res.Retries,
			Workers:    len(ps.coord.Workers()),
			Objectives: names,
			Candidates: wire.ToCandidates(res.Candidates),
			ElapsedMS:  float64(time.Since(start).Microseconds()) / 1000,
		}
		jobSpan.End()
		final.Spans = ps.tel().traces.Spans(jobSpan.Context().TraceID)
		return jobResult(spec, final, true), final, nil
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
			Name:    "job:" + string(st.Kind),
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
	ps   *peerServer
	root obs.SpanContext
	// base is every payload's fixed part: the job's identity and spec.
	base wire.ReplicateRequest

	mu     sync.Mutex
	ledger []wire.ShardRange
	latest *wire.ReplicateRequest

	notify chan struct{}
	quit   chan struct{}
	once   sync.Once
	// failing holds the replicas whose last push failed; only run's
	// goroutine touches it.
	failing map[string]bool
}

func (ps *peerServer) newReplicator(jobID string, spec wire.JobSpec, designs int, root obs.SpanContext, ledger []wire.ShardRange) *replicator {
	base := spec.Replica()
	base.JobID, base.Owner, base.Designs = jobID, ps.self, designs
	return &replicator{
		ps:      ps,
		root:    root,
		base:    base,
		ledger:  ledger,
		notify:  make(chan struct{}, 1),
		quit:    make(chan struct{}),
		failing: make(map[string]bool),
	}
}

// push records the job's state after p — its counters, its snapshot and
// the ledger with p's shard merged (none for the pre-dispatch push of a
// job's seed) — as the newest replication payload. It runs under the
// coordinator's merge lock and must not block.
func (r *replicator) push(p cluster.Progress, seq int) {
	req := r.base
	req.Seq, req.Evaluated, req.Feasible, req.Shards = seq, p.Evaluated, p.Feasible, p.Shards
	req.Snapshot = replicaSnapshot(p)
	r.mu.Lock()
	r.ledger = wire.AddRange(r.ledger, wire.ShardRange{Start: p.ShardStart, Count: p.ShardLen})
	req.Ledger = append([]wire.ShardRange(nil), r.ledger...)
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
			r.send(wire.ReplicateRequest{JobID: r.base.JobID, Owner: r.ps.self, Done: true})
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
// without an election. A replica that stops answering is logged once,
// and again only after a push to it has succeeded in between: gossip
// takes it out of the replica set a few rounds later, and until then
// every merged shard would otherwise log the same failure.
func (r *replicator) send(req wire.ReplicateRequest) {
	req.Replicas = r.ps.pickReplicas(r.base.JobID)
	for _, addr := range req.Replicas {
		ctx, cancel := context.WithTimeout(context.Background(), replicateTimeout)
		_, err := r.ps.client(addr).Replicate(ctx, req)
		cancel()
		if err == nil {
			delete(r.failing, addr)
			continue
		}
		if !r.failing[addr] {
			r.failing[addr] = true
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
	ps.table.SetLocalInfo(ps.srv.workers, inventory)
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
	if err == nil {
		err = resp.Validate()
	}
	if err != nil {
		// A malformed answer is a failed round: none of it may reach the
		// table, and from there a dialable transport.
		ps.logf("gossip: %s: %v", target, err)
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
// code), and the only liveness authority the table has. Alive peers,
// self included, become schedulable members with their gossiped
// inventory; anything suspect or dead leaves the scheduling fleet
// immediately, even though adoption waits for the stronger dead verdict.
// Self joins as the in-process ps.local, remote peers as HTTP
// transports; both are named "http://"+addr.
func (ps *peerServer) syncGossipMembership() {
	// The round loop and incoming exchanges both project, and each takes
	// its snapshot under this lock, so projections apply in snapshot
	// order. Unordered, one working from an older snapshot (peer alive)
	// could Join after a newer one's Leave (peer suspect) and put a
	// suspect peer back in the fleet.
	ps.syncMu.Lock()
	defer ps.syncMu.Unlock()
	known := make(map[string]bool)
	for _, m := range ps.coord.Members() {
		known[m.Name] = true
	}
	for _, e := range ps.table.Snapshot() {
		name := "http://" + e.Addr
		info := cluster.MemberInfo{Capacity: e.Capacity, Benchmarks: e.Benchmarks}
		if e.State == wire.GossipAlive {
			if known[name] {
				if err := ps.coord.Heartbeat(name, info); err != nil {
					ps.logf("membership: heartbeat %s: %v", name, err)
				}
				continue
			}
			var t cluster.Transport = ps.local
			if e.Addr != ps.self {
				t = cluster.NewHTTP(e.Addr, nil)
			}
			if _, err := ps.coord.Join(t, info); err != nil {
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

// newSelfWorker builds a peer's transport to itself: a cluster.Local
// over the peer's own registry, so the shards the owner places on itself
// skip the submit, stream and DELETE round trips and the job-table entry
// a remote shard costs. It keeps a worker's observable behaviour: models
// resolve through Server.sweepModel (so -straggle-per-design applies),
// the registry's deterministic verdicts stay WorkerRejections, and phase
// spans and chunk histograms are recorded as a shard job records them.
func newSelfWorker(srv *Server, name string) *cluster.Local {
	l := cluster.NewLocal(name, func(ctx context.Context, benchmark, metric string) (core.DynamicsModel, error) {
		m, err := srv.sweepModel(ctx, benchmark, metric)
		return m, selfVerdict(name, err)
	})
	l.Workers = srv.workers
	l.Tracer = srv.tel.tracer
	l.ChunkDone = srv.chunkDone
	l.WarmFunc = func(ctx context.Context, benchmarks []string) (int, error) {
		n, _, err := srv.warm(ctx, benchmarks)
		return n, selfVerdict(name, err)
	}
	return l
}

// selfVerdict classifies a registry error the way the HTTP transport
// classifies the 4xx the same error becomes on a remote peer: a
// deterministic verdict on the request is a WorkerRejection, so it
// aborts the job instead of booking a failure and retrying the shard
// on every peer.
func selfVerdict(name string, err error) error {
	if st := registryStatus(err); err != nil && st >= 400 && st < 500 {
		return &cluster.WorkerRejection{Worker: name, Status: st, Msg: err.Error()}
	}
	return err
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
	spec := st.Spec()
	early, err := spec.ResolveEarly()
	if err != nil {
		ps.logf("adopt: job %s spec no longer resolves: %v", st.JobID, err)
		return
	}
	resume := st
	if _, err := ps.srv.jobs.StartAdopted(st.JobID, spec.Kind, st.Benchmark, st.Designs, st.Seq, ps.runFleet(spec, early, &resume)); err != nil {
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
