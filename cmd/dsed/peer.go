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
// coordinator to lose: a running job's spec is pushed to f replicas as
// the job starts and again every gossip round, and when the fleet agrees
// the owner is dead the first alive replica adopts the job under its ID
// and re-runs it from the spec. Every answer is a
// deterministic function of the spec and the models, so the adopted
// job's answer is byte-identical to the one the dead owner would have
// produced; only its progress counters start over.

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
// Server (registry, job table, telemetry): the jobs it owns live in that
// job table, and the shards other peers send it run synchronously on its
// own Local, never as jobs.
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
	// transports caches each peer's shard transport, so a remote peer's
	// connection pool outlives any one placement.
	transports map[string]cluster.Transport
}

// newPeerServer wires a daemon into a symmetric peer: a gossip table
// aged at the -heartbeat interval, and a coordinator whose fleet is that
// table's alive entries.
func newPeerServer(srv *Server, self string, peers []string, opts peerOptions, logger *log.Logger) *peerServer {
	interval := opts.heartbeat
	if interval <= 0 {
		interval = 5 * time.Second
	}
	if opts.replicate <= 0 {
		opts.replicate = 1
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
	// The fleet knows this peer's in-process worker by its address.
	local := newSelfWorker(srv, "http://"+self)
	local.Stall = srv.local.Stall
	srv.local = local
	ps := &peerServer{
		srv:       srv,
		self:      self,
		seeds:     peers,
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
		logger:     logger,
		clients:    make(map[string]*dsedclient.Client),
		transports: make(map[string]cluster.Transport),
	}
	ps.coord = cluster.NewFleet(ps.fleet, cluster.Options{
		ShardSize:       opts.shardSize,
		TargetShardTime: time.Duration(opts.targetShardMS) * time.Millisecond,
		HedgeFactor:     opts.hedgeFactor,
		Obs:             srv.tel.reg,
		Tracer:          srv.tel.tracer,
	})
	return ps
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

// fleet is the coordinator's fleet source: the gossip table's alive
// entries, self included, with their gossiped inventory, read at every
// placement. Self runs its shards in process; every other peer is an
// HTTP transport. Both are named "http://"+addr.
func (ps *peerServer) fleet() []cluster.Member {
	alive := ps.table.Alive()
	out := make([]cluster.Member, len(alive))
	for i, e := range alive {
		out[i] = cluster.Member{Transport: ps.transport(e.Addr), Capacity: e.Capacity, Benchmarks: e.Benchmarks}
	}
	return out
}

// transport returns a peer's shard transport: Local for self, else HTTP.
func (ps *peerServer) transport(addr string) cluster.Transport {
	ps.clientsMu.Lock()
	defer ps.clientsMu.Unlock()
	t, ok := ps.transports[addr]
	if !ok {
		t = ps.srv.local
		if addr != ps.self {
			t = cluster.NewHTTP(addr, nil)
		}
		ps.transports[addr] = t
	}
	return t
}

// Handler routes the peer's surface: the single daemon's route table
// with fleet-scope healthz/warm/sweeps/pareto, job routes that follow a
// job to wherever it lives now, and the shard, gossip and replication
// seams.
func (ps *peerServer) Handler() http.Handler {
	s := ps.srv
	return s.routes(map[string]http.HandlerFunc{
		"/v1/healthz": negotiated(ps.handleHealthz),
		"/v1/warm":    negotiated(ps.handleWarm),
		"/v1/sweeps":  negotiated(ps.handleSubmit(wire.JobSweep)),
		"/v1/pareto":  negotiated(ps.handleSubmit(wire.JobPareto)),
		"/v1/shards":  negotiated(ps.handleShard),
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
// sender's digest, count the contact as liveness evidence for them, and
// send our digest back. The next placement already sees the merged view.
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

// handleReplicate accepts a job's spec payload from its owner. A push
// from a superseded owner run (Seq below what we hold) is ignored; a
// Done notice retires the entry.
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

// handleSubmit starts a fleet job of the given kind that this peer
// owns, coordinates and replicates.
func (ps *peerServer) handleSubmit(kind wire.JobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if spec, early, ok := decodeJob(w, r, kind, false); ok {
			ps.srv.submit(w, r, spec, len(early), ps.runFleet(spec, early, nil))
		}
	}
}

// handleShard serves POST /v1/shards?kind=: a shard another peer placed
// here (a window on a named space or pinned designs; a frontier window
// may carry its owner's incumbent, see cluster.Shard.Incumbent), run on
// this peer's Local and answered in one body with only its own spans,
// recorded in a store of the request's own. The request's context is the shard's: an
// owner that drops the call (a lost hedge, a cancelled job) stops it.
func (ps *peerServer) handleShard(w http.ResponseWriter, r *http.Request) {
	kind := wire.JobKind(r.URL.Query().Get("kind"))
	if kind != wire.JobSweep && kind != wire.JobPareto {
		httpError(w, r, http.StatusBadRequest, "unknown kind %q (sweep, pareto)", kind)
		return
	}
	spec, early, ok := decodeJob(w, r, kind, true)
	if !ok {
		return
	}
	shard := cluster.Shard{Count: len(early), Designs: early}
	if win, ok := spec.FactorialWindow(); ok {
		shard = cluster.Shard{Count: win.Count, Incumbent: spec.Incumbent}
	} else if early == nil {
		httpError(w, r, http.StatusBadRequest, "a shard is a window on a named space or a pinned design list, not a sample")
		return
	}
	store := obs.NewTraceStore(1)
	local := *ps.srv.local
	local.Tracer = obs.NewTracer(ps.tel().tracer.Node(), store, nil)
	p, err := local.Evaluate(r.Context(), cluster.QueryOf(spec), shard)
	if err != nil {
		httpError(w, r, serverStatus(err), "%v", err)
		return
	}
	cands := make([]wire.Candidate, len(p.Candidates))
	for i, c := range p.Candidates {
		cands[i] = wire.Candidate{Config: wire.ToConfigJSON(c.Config), Scores: c.Scores}
	}
	// Untraced, each phase opened a trace of its own and none is returned.
	parent, _ := obs.SpanFromContext(r.Context())
	writeJSON(w, r, http.StatusOK, wire.ShardResponse{
		Evaluated: p.Evaluated, Feasible: p.Feasible, Candidates: cands, Spans: store.Spans(parent.TraceID),
	})
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
// both fresh jobs (adopted nil) and adopted ones. An adopted job re-runs
// the dead owner's spec from scratch under its job ID, splices into its
// trace, and numbers its updates past any seq the owner could have
// published. Every merged shard publishes the job's counters and its
// attribution; the cumulative partial answer rides along on the stream
// cadence only (see streamInterval), while the job's replicator keeps
// the spec at its replicas. spec keeps the design list in
// seed-deterministic resolvable form, so an adopter rebuilds the
// identical list.
func (ps *peerServer) runFleet(spec wire.JobSpec, early []space.Config, adopted *wire.ReplicateRequest) api.RunFunc {
	return func(ctx context.Context, pub api.Publisher) (any, api.Update, error) {
		var jobSpan *obs.ActiveSpan
		seqFloor := 0
		if adopted == nil {
			ctx, jobSpan = startJobSpan(ps.tel(), ctx, "job:"+string(spec.Kind), pub, spec.Benchmark)
		} else {
			// Adoption splices into the dead owner's trace: import its
			// replicated spans, parent an "adopt" span under its root, and
			// bind the job to the same trace ID, so GET /v1/jobs/{id}/trace
			// shows one tree spanning both nodes.
			ctx = ps.spliceOwnerTrace(ctx, pub.JobID(), adopted)
			ctx, jobSpan = ps.tel().tracer.Start(ctx, "adopt")
			jobSpan.SetAttr("job_id", pub.JobID())
			jobSpan.SetAttr("benchmark", spec.Benchmark)
			jobSpan.SetAttr("owner", adopted.Owner)
			jobSpan.SetAttr("reason", "owner-dead")
			ps.tel().traces.Bind(pub.JobID(), jobSpan.Context().TraceID)
			seqFloor = adopted.AdoptedSeq()
		}
		defer jobSpan.End()
		designs, pinned, err := resolveSpace(ctx, ps.tel().tracer, spec.SpaceSpec, early)
		if err != nil {
			return nil, api.Update{}, err
		}
		names := objectiveNames(spec.Objectives)
		// The replicator pushes the spec as the job starts, not after the
		// first merge: an owner that dies mid-first-shard must already
		// have left it at its replicas.
		rep := ps.newReplicator(pub.JobID(), spec, designs, seqFloor, jobSpan.Context())
		go rep.run()
		defer rep.finish()
		// The opening snapshot: a subscriber sees the job's shape before
		// the first merged shard lands.
		pub.Publish(api.Update{Designs: designs, Objectives: names})
		start := time.Now()
		// last is when a merge last attached the partial answer. The
		// observer runs under the coordinator's merge lock, so it needs
		// no lock of its own.
		var last time.Time
		res, err := ps.coord.Run(ctx, cluster.QueryOf(spec), designs, pinned, func(p cluster.Progress) {
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
			// The partial answer is encoded only while a stream is
			// attached, and at most once per streamInterval: the first
			// merge after the first subscriber attaches carries it, and
			// a merge between cadence points publishes counters alone.
			if now := time.Now(); pub.Streaming() && now.Sub(last) >= streamInterval {
				u.Candidates = wire.ToCandidates(p.Candidates)
				last = now
			}
			pub.Publish(u)
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
			Workers:    len(ps.table.Alive()),
			Objectives: names,
			Candidates: wire.ToCandidates(res.Candidates),
			ElapsedMS:  float64(time.Since(start).Microseconds()) / 1000,
		}
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

// replicator keeps one job's spec at its replicas. It pushes the spec
// payload as the job starts and again every gossip interval while the
// job runs, then sends a Done notice. Every push re-picks the replica
// set, so a replica that dies mid-job is replaced, and refreshes the
// trace excerpt and the replicas' TTL. The payload does not grow as
// shards merge: an adopter re-runs the job from the spec. Pushes run on
// a goroutine of the job's own, never on the gossip round, so a dead
// replica's push timeout cannot stall gossip.
type replicator struct {
	ps   *peerServer
	root obs.SpanContext
	// base is every payload's fixed part: the job's identity, spec, trace
	// context and sequence floor.
	base wire.ReplicateRequest

	quit chan struct{}
	once sync.Once
	// failing holds the replicas whose last push failed; only run's
	// goroutine touches it.
	failing map[string]bool
}

// newReplicator builds the replicator of a job of designs designs whose
// updates are numbered past seqFloor (0 for a fresh job).
func (ps *peerServer) newReplicator(jobID string, spec wire.JobSpec, designs, seqFloor int, root obs.SpanContext) *replicator {
	base := spec.Replica()
	base.JobID, base.Owner, base.Designs, base.Seq = jobID, ps.self, designs, seqFloor
	base.Traceparent = root.Traceparent()
	return &replicator{
		ps:      ps,
		root:    root,
		base:    base,
		quit:    make(chan struct{}),
		failing: make(map[string]bool),
	}
}

// finish retires the job at its replicas (any outcome): the entry must
// not outlive the job, or a later owner death would resurrect it. The
// send happens on the replicator goroutine so a dead replica's timeout
// never delays the job's own final update.
func (r *replicator) finish() {
	r.once.Do(func() { close(r.quit) })
}

// run pushes the spec payload at once and every interval until finish
// closes quit, then sends the Done notice. It deliberately does not
// watch the job's context: a cancelled job must be retired at its
// replicas too, and on completion the job context is cancelled right
// after finish, so a select over both would drop the notice about half
// the time.
func (r *replicator) run() {
	tick := time.NewTicker(r.ps.interval)
	defer tick.Stop()
	for {
		r.send(r.payload())
		select {
		case <-r.quit:
			r.send(wire.ReplicateRequest{JobID: r.base.JobID, Owner: r.ps.self, Done: true})
			return
		case <-tick.C:
		}
	}
}

// payload is the next push: the fixed payload plus the trace excerpt
// recorded so far, which an adopter splices under the owner's root.
func (r *replicator) payload() wire.ReplicateRequest {
	req := r.base
	req.Spans = r.ps.tel().traces.Spans(r.root.TraceID)
	if len(req.Spans) > wire.MaxReplicatedSpans {
		req.Spans = req.Spans[:wire.MaxReplicatedSpans]
	}
	return req
}

// send pushes one payload to the job's current replica set. Replicas
// ride inside the payload so every holder agrees on the adoption order
// without an election. A replica that stops answering is logged once,
// and again only after a push to it has succeeded in between: gossip
// takes it out of the replica set a few rounds later, and until then
// every push would otherwise log the same failure.
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

// loop drives the peer's periodic round: advertise, gossip, age, adopt
// orphans. One immediate round lets a small
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

// adopt restarts an orphaned job from its spec under its original ID:
// the design list rebuilds deterministically, the job re-runs from
// scratch, and its updates are numbered past any seq the dead owner
// could have published (wire.ReplicateRequest.AdoptedSeq), so resuming
// streams stay monotone.
func (ps *peerServer) adopt(st wire.ReplicateRequest) {
	ps.replicas.drop(st.JobID)
	spec := st.Spec()
	early, err := spec.ResolveEarly()
	if err != nil {
		ps.logf("adopt: job %s spec no longer resolves: %v", st.JobID, err)
		return
	}
	if _, err := ps.srv.jobs.StartAdopted(st.JobID, spec.Kind, st.Benchmark, st.Designs, st.AdoptedSeq(), ps.runFleet(spec, early, &st)); err != nil {
		ps.logf("adopt: job %s: %v", st.JobID, err)
		return
	}
	ps.adopted.Inc()
	ps.logf("adopted job %s from dead owner %s; re-running its %d designs", st.JobID, st.Owner, st.Designs)
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

// put upserts a payload, ignoring a push whose Seq is below what we hold
// (Seq is the owner run's sequence floor, so a dead owner's late push
// loses to its adopter's) and any push for a job already retired — a
// Done verdict is final, and a straggling push must not resurrect a
// finished job.
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
