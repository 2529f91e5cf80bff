package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/pkg/dsedclient"
)

// testPeer wires a peer server around a fresh Server over the shared
// test registry: enough for routing and adoption-guard tests, with no
// gossip loop running. The trained models are shared; the job table is
// the test's own, so a job one test adopts cannot outlive it into the
// next.
func testPeer(t *testing.T, self string) *peerServer {
	t.Helper()
	srv := NewServer(context.Background(), testServer(t).store, 0, nil, nil)
	return newPeerServer(srv, self, nil, peerOptions{heartbeat: time.Second, replicate: 1}, nil)
}

// markDead plants a dead verdict for addr in the peer's gossip table.
func markDead(ps *peerServer, addr string) {
	ps.table.Merge([]wire.GossipEntry{{Addr: addr, Incarnation: 1, State: wire.GossipDead}})
}

func paretoReplica(jobID, owner string, replicas []string) wire.ReplicateRequest {
	return wire.ReplicateRequest{
		JobID:    jobID,
		Kind:     wire.JobPareto,
		Owner:    owner,
		Replicas: replicas,
		Pareto: &wire.ParetoRequest{
			Benchmark:  "gcc",
			Objectives: []wire.ObjectiveSpec{{Metric: "CPI"}, {Metric: "Power"}},
			SpaceSpec:  wire.SpaceSpec{Space: "test", Sample: 32},
		},
		Benchmark: "gcc",
		Designs:   32,
		Seq:       3,
	}
}

// A Done notice must not delete the replica entry: it becomes a routing
// tombstone that outranks any straggling state push, so a finished job
// can neither 404 through a replica nor be resurrected by a late push.
func TestReplicaTableRetire(t *testing.T) {
	tbl := &replicaTable{entries: make(map[string]replicaEntry)}
	tbl.put(paretoReplica("job-1", "owner:1", nil))
	tbl.retire(wire.ReplicateRequest{JobID: "job-1", Owner: "adopter:2", Done: true})

	st, ok := tbl.get("job-1")
	if !ok || !st.Done {
		t.Fatalf("retired entry = %+v, ok=%v; want a Done tombstone", st, ok)
	}
	if st.Owner != "adopter:2" {
		t.Fatalf("tombstone owner = %q, want the retiring owner adopter:2", st.Owner)
	}

	late := paretoReplica("job-1", "owner:1", nil)
	late.Seq = 99
	tbl.put(late)
	if st, _ := tbl.get("job-1"); !st.Done {
		t.Fatal("straggling state push resurrected a retired job")
	}

	tbl.expire(0)
	if _, ok := tbl.get("job-1"); ok {
		t.Fatal("expire left the tombstone past its TTL")
	}
}

// routeJob over a finished job's tombstone must follow the job to the
// node that finished it while that node lives, and only 404 once the
// fleet has declared that node dead too. Before this, a Done notice
// deleted the entry and a trace fetch through a non-owner peer 404ed
// the moment the job completed.
func TestRouteJobDoneTombstoneRedirects(t *testing.T) {
	ps := testPeer(t, "127.0.0.1:1")
	ps.replicas.retire(wire.ReplicateRequest{JobID: "job-done", Owner: "127.0.0.1:2", Done: true})

	h := ps.routeJob(ps.srv.tel.handleJobTrace)

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/job-done/trace", nil)
	req.SetPathValue("id", "job-done")
	h(rec, req)
	if rec.Code != http.StatusTemporaryRedirect {
		t.Fatalf("tombstone with live owner: status %d, want 307", rec.Code)
	}
	if loc := rec.Header().Get("Location"); loc != "http://127.0.0.1:2/v1/jobs/job-done/trace" {
		t.Fatalf("Location = %q, want the finishing owner", loc)
	}

	markDead(ps, "127.0.0.1:2")
	rec = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodGet, "/v1/jobs/job-done/trace", nil)
	req.SetPathValue("id", "job-done")
	h(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("tombstone with dead owner: status %d, want 404", rec.Code)
	}
}

// A job held as a replica whose owner the fleet declared dead routes to
// its successor: a 307 to the first live replica in line, or, on the
// successor itself before it has adopted, a retryable 503 the failover
// client rides out.
func TestRouteJobDuringAdoptionWindow(t *testing.T) {
	ps := testPeer(t, "127.0.0.1:1")
	ps.table.Merge([]wire.GossipEntry{{Addr: "127.0.0.1:3", Incarnation: 1, State: wire.GossipAlive}})
	markDead(ps, "127.0.0.1:2")
	h := ps.routeJob(ps.srv.tel.handleJobTrace)
	get := func(id string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/trace", nil)
		req.SetPathValue("id", id)
		h(rec, req)
		return rec
	}

	ps.replicas.put(paretoReplica("job-next", "127.0.0.1:2", []string{"127.0.0.1:3", ps.self}))
	if rec := get("job-next"); rec.Code != http.StatusTemporaryRedirect || rec.Header().Get("Location") != "http://127.0.0.1:3/v1/jobs/job-next/trace" {
		t.Fatalf("orphan with a live successor ahead: %d to %q, want a 307 to 127.0.0.1:3", rec.Code, rec.Header().Get("Location"))
	}
	ps.replicas.put(paretoReplica("job-mine", "127.0.0.1:2", []string{ps.self, "127.0.0.1:3"}))
	rec := get("job-mine")
	var env api.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusServiceUnavailable || !env.Error.Retryable {
		t.Fatalf("orphan awaiting our own adoption: %d %+v, want a retryable 503", rec.Code, env.Error)
	}
}

// Replicas are picked by rendezvous hashing over the alive peers other
// than the owner: f of them, the same set in the same order on every
// push while the fleet holds still, and a dead peer is passed over.
func TestPickReplicasRanksAlivePeers(t *testing.T) {
	ps := testPeer(t, "127.0.0.1:1")
	ps.repFactor = 2
	for _, addr := range []string{"127.0.0.1:2", "127.0.0.1:3", "127.0.0.1:4", "127.0.0.1:5"} {
		ps.table.Merge([]wire.GossipEntry{{Addr: addr, Incarnation: 1, State: wire.GossipAlive}})
	}
	first := ps.pickReplicas("job-1")
	if len(first) != 2 || slices.Contains(first, ps.self) {
		t.Fatalf("replicas %v, want 2 peers other than the owner", first)
	}
	if again := ps.pickReplicas("job-1"); !slices.Equal(again, first) {
		t.Fatalf("replicas moved from %v to %v with the fleet unchanged", first, again)
	}
	if replicaRank("job-1", first[0]) > replicaRank("job-1", first[1]) {
		t.Fatalf("replicas %v are not in rank order", first)
	}
	markDead(ps, first[0])
	if after := ps.pickReplicas("job-1"); len(after) != 2 || after[0] != first[1] || slices.Contains(after, first[0]) {
		t.Fatalf("replicas after %s died: %v, want %s first and the dead peer gone", first[0], after, first[1])
	}
}

// A suspicion must not reorder the adoption line: while the preferred
// successor is merely suspect, the next replica defers instead of
// adopting — skipping on suspicion lets two replicas each conclude
// they are first in line and fork the job. Only the hard dead verdict
// passes the turn along.
func TestSuccessorWaitsOutSuspicion(t *testing.T) {
	ps := testPeer(t, "127.0.0.1:1")
	st := paretoReplica("job-x", "127.0.0.1:9", []string{"127.0.0.1:2", ps.self})

	ps.table.Merge([]wire.GossipEntry{{Addr: "127.0.0.1:2", Incarnation: 1, State: wire.GossipSuspect}})
	if got := ps.successor(st); got != "127.0.0.1:2" {
		t.Fatalf("successor with suspect first replica = %q, want the suspect kept in line", got)
	}

	ps.table.Merge([]wire.GossipEntry{{Addr: "127.0.0.1:2", Incarnation: 1, State: wire.GossipDead}})
	if got := ps.successor(st); got != ps.self {
		t.Fatalf("successor with dead first replica = %q, want self", got)
	}
}

// adoptOrphans must never adopt a retired job, and must defer adoption
// when the dead-listed owner still answers a direct probe: a
// CPU-starved owner can be falsely declared dead while its job is
// running, and adopting would fork the job.
func TestAdoptOrphansGuards(t *testing.T) {
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer owner.Close()
	ownerAddr := strings.TrimPrefix(owner.URL, "http://")

	ps := testPeer(t, "127.0.0.1:1")
	markDead(ps, ownerAddr)

	// A tombstone for a dead owner stays un-adopted.
	ps.replicas.retire(wire.ReplicateRequest{JobID: "job-finished", Owner: ownerAddr, Done: true})
	// A live replica whose dead-listed owner still answers is deferred.
	ps.replicas.put(paretoReplica("job-running", ownerAddr, []string{ps.self}))

	ps.adoptOrphans(testContext(t))

	for _, id := range []string{"job-finished", "job-running"} {
		if _, err := ps.srv.jobs.Get(id); err == nil {
			t.Fatalf("job %s was adopted; want adoption skipped", id)
		}
	}
	if st, ok := ps.replicas.get("job-running"); !ok || st.Done {
		t.Fatalf("deferred replica entry = %+v, ok=%v; want kept live for the next round", st, ok)
	}

	// Once the owner stops answering, the same entry is adopted.
	owner.Close()
	ps.adoptOrphans(testContext(t))
	if _, err := ps.srv.jobs.Get("job-running"); err != nil {
		t.Fatalf("job-running not adopted after its owner stopped answering: %v", err)
	}
	if _, ok := ps.replicas.get("job-running"); ok {
		t.Fatal("adopted job's replica entry should be dropped by the adopter")
	}
}

// replicaRecorder stands in for a replica peer: it counts the Done
// notices it receives per job and keeps the raw body of every other
// push. Every other request goes to next (404 when nil): an alive
// replica is also in the scheduling fleet, so a shard placed on it runs
// on the peer it forwards to.
type replicaRecorder struct {
	mu     sync.Mutex
	done   map[string]int
	pushes map[string][][]byte
	next   http.Handler
}

func (rr *replicaRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/jobs/replicate" {
		if rr.next == nil {
			http.NotFound(w, r)
			return
		}
		rr.next.ServeHTTP(w, r)
		return
	}
	body, err := io.ReadAll(r.Body)
	var req wire.ReplicateRequest
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rr.mu.Lock()
	if req.Done {
		rr.done[req.JobID]++
	} else if rr.pushes != nil {
		rr.pushes[req.JobID] = append(rr.pushes[req.JobID], body)
	}
	rr.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(wire.ReplicateResponse{JobID: req.JobID, Seq: req.Seq})
}

// awaitDone waits for job id's Done notice; the replicator sends it off
// the job's own goroutine, so it may trail the job's final state.
func (rr *replicaRecorder) awaitDone(t *testing.T, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		rr.mu.Lock()
		n := rr.done[id]
		rr.mu.Unlock()
		if n > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: no Done notice reached its replica", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// placements reads a peer's placement counter.
func placements(ps *peerServer) int64 {
	return ps.tel().reg.Counter("dsed_cluster_placements_total", "").Value()
}

// faultCounts sums a peer's per-worker rejection and failure series over
// its fleet.
func faultCounts(ps *peerServer) (rejections, failures int64) {
	for _, m := range ps.fleet() {
		l := obs.Label{Key: "worker", Value: m.Name()}
		rejections += ps.tel().reg.Counter("dsed_cluster_worker_rejections_total", "", l).Value()
		failures += ps.tel().reg.Counter("dsed_cluster_worker_failures_total", "", l).Value()
	}
	return rejections, failures
}

// A replica that stops answering is logged once per job, not once per
// push: the owner keeps pushing to it every gossip interval until
// gossip suspects it.
func TestReplicatorLogsDeadReplicaOnce(t *testing.T) {
	gone := httptest.NewServer(http.NotFoundHandler())
	addr := strings.TrimPrefix(gone.URL, "http://")
	gone.Close()

	var logBuf bytes.Buffer
	srv := NewServer(context.Background(), testServer(t).store, 0, nil, nil)
	ps := newPeerServer(srv, "127.0.0.1:1", nil, peerOptions{heartbeat: time.Second, replicate: 1}, log.New(&logBuf, "", 0))
	ps.table.Merge([]wire.GossipEntry{{Addr: addr, Incarnation: 1, State: wire.GossipAlive}})
	spec := wire.JobSpec{Kind: wire.JobPareto, SweepRequest: wire.SweepRequest{Benchmark: "gcc"}}
	r := ps.newReplicator("job-1", spec, 32, 0, obs.SpanContext{})
	for seq := 1; seq <= 10; seq++ {
		req := r.base
		req.Seq = seq
		r.send(req)
	}
	n := 0
	for _, line := range strings.Split(logBuf.String(), "\n") {
		if strings.HasPrefix(line, "replicate: ") {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("10 failed pushes to one replica logged %d replicate lines, want 1:\n%s", n, logBuf.String())
	}
}

// Every fleet job must retire its replica state, whatever its outcome:
// a Done tombstone has to reach the replica after each completed job
// and after a DELETE. The replicator used to return on the job
// context's cancellation — always first on DELETE, and racing the
// finish signal on completion — so the notice was lost.
func TestFleetJobRetiresReplicas(t *testing.T) {
	rec := &replicaRecorder{done: make(map[string]int)}
	recTS := httptest.NewServer(rec)
	defer recTS.Close()
	recAddr := strings.TrimPrefix(recTS.URL, "http://")

	// The peer straggles, so the in-process shard it places on itself is
	// still running when the test cancels the job.
	srv := NewServer(context.Background(), testServer(t).store, 1, nil, nil)
	srv.local.Stall = time.Millisecond
	var handler http.Handler
	peerTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.ServeHTTP(w, r)
	}))
	defer peerTS.Close()
	ps := newPeerServer(srv, strings.TrimPrefix(peerTS.URL, "http://"), nil, peerOptions{heartbeat: time.Second, replicate: 1}, nil)
	handler = ps.Handler()
	rec.next = handler

	// This peer advertises the models, so it takes each job's one shard;
	// the recorder, listed as an alive peer, becomes every job's replica.
	ps.table.SetLocalInfo(ps.srv.workers, ps.srv.store.Trained())
	ps.table.Merge([]wire.GossipEntry{{Addr: recAddr, Incarnation: 1, State: wire.GossipAlive}})
	if got := ps.pickReplicas("any-job"); len(got) != 1 || got[0] != recAddr {
		t.Fatalf("replica set = %v, want the recorder %s", got, recAddr)
	}

	c := testClient(peerTS.URL)
	ctx := testContext(t)
	req := wire.ParetoRequest{
		Benchmark:  "gcc",
		Objectives: []wire.ObjectiveSpec{{Metric: "CPI"}, {Metric: "Power"}},
		SpaceSpec:  wire.SpaceSpec{Space: "test", Sample: 64},
	}
	const jobs = 8
	for i := 0; i < jobs; i++ {
		st, err := c.SubmitPareto(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if state := awaitJob(t, peerTS, st.ID); state != string(api.StateDone) {
			t.Fatalf("job %d settled %q, want done", i, state)
		}
		rec.awaitDone(t, st.ID)
	}

	placed := placements(ps)
	st, err := c.SubmitPareto(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	// Mid-flight: the fleet job has placed its shard.
	deadline := time.Now().Add(10 * time.Second)
	for placements(ps) == placed {
		if time.Now().After(deadline) {
			t.Fatal("the job never dispatched a shard")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if state := awaitJob(t, peerTS, st.ID); state != string(api.StateCanceled) {
		t.Fatalf("cancelled job settled %q, want canceled", state)
	}
	rec.awaitDone(t, st.ID)
}

// Replication ships the spec, not the progress: every push of a running
// fleet job carries no candidates, and its size net of the trace excerpt
// stays put as shards merge. A payload that grew with the job's answer
// would outgrow the replica's 1 MiB request body limit on a large
// frontier, and such a job could never be adopted.
func TestReplicatePayloadStaysSpecSized(t *testing.T) {
	rec := &replicaRecorder{done: make(map[string]int), pushes: make(map[string][][]byte)}
	recTS := httptest.NewServer(rec)
	defer recTS.Close()
	recAddr := strings.TrimPrefix(recTS.URL, "http://")

	// The peer straggles and pushes every 5ms, so several pushes land
	// while the job's shards merge.
	srv := NewServer(context.Background(), testServer(t).store, 1, nil, nil)
	srv.local.Stall = time.Millisecond
	var handler http.Handler
	peerTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.ServeHTTP(w, r)
	}))
	defer peerTS.Close()
	ps := newPeerServer(srv, strings.TrimPrefix(peerTS.URL, "http://"), nil,
		peerOptions{heartbeat: 5 * time.Millisecond, shardSize: 16, replicate: 1}, nil)
	handler = ps.Handler()
	rec.next = handler
	ps.table.SetLocalInfo(ps.srv.workers, ps.srv.store.Trained())
	ps.table.Merge([]wire.GossipEntry{{Addr: recAddr, Incarnation: 1, State: wire.GossipAlive}})

	resp, id, err := testClient(peerTS.URL).Run(testContext(t), wire.ParetoRequest{
		Benchmark:  "gcc",
		Objectives: frontierObjectives,
		SpaceSpec:  wire.SpaceSpec{Space: "test", Sample: 64},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec.awaitDone(t, id)
	rec.mu.Lock()
	pushes := rec.pushes[id]
	rec.mu.Unlock()
	if resp.Shards < 4 || len(pushes) < 2 {
		t.Fatalf("the job merged %d shards and pushed %d payloads, want several of each", resp.Shards, len(pushes))
	}
	first := -1
	for i, body := range pushes {
		if bytes.Contains(body, []byte(`"snapshot"`)) || bytes.Contains(body, []byte(`"candidate`)) {
			t.Fatalf("push %d carries candidates: %.300s", i, body)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(body, &fields); err != nil {
			t.Fatal(err)
		}
		delete(fields, "spans")
		net, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		if first < 0 {
			first = len(net)
		}
		if len(net) > first {
			t.Fatalf("push %d is %d bytes net of spans, the first was %d: the payload grows with the job", i, len(net), first)
		}
	}
}

// A peer evaluates the shards it places on itself in process: no shard
// request reaches its own handler, each of its dispatches records the
// phase spans a remote peer's /v1/shards would, the chunk histograms see its
// evaluation, and the fleet frontier is the single daemon's.
func TestPeerOwnShardsStayInProcess(t *testing.T) {
	entry, recs, peers := twoPeerFleet(t, 500)
	single := httptest.NewServer(testServer(t).Handler())
	t.Cleanup(single.Close)
	req := wire.ParetoRequest{
		Benchmark:  "gcc",
		Objectives: frontierObjectives,
		SpaceSpec:  wire.SpaceSpec{Space: "test"},
	}
	ctx := context.Background()
	requireLatticeModels(t, testServer(t).store, sim.MetricCPI, sim.MetricPower)
	scored := testServer(t).scored.Value()
	want, _, err := testClient(single.URL).Run(ctx, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The lone daemon's one window prunes: it scores fewer designs than it
	// covers, and answers the same frontier as the fleet's small shards.
	if scored = testServer(t).scored.Value() - scored; scored <= 0 || scored >= int64(want.Evaluated) {
		t.Fatalf("the lone daemon scored %d of %d designs; want a pruned window", scored, want.Evaluated)
	}
	c := testClient(entry.URL)
	got, id, err := c.Run(ctx, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	spans := traceSpans(t, c, id)
	if n := len(shards(recs[0])); n != 0 {
		t.Fatalf("%d shard requests reached the owner's own handler, want 0", n)
	}
	own := inProcessWindows(t, spans, peers[0].self, 0)
	if len(own) == 0 {
		t.Fatal("the owner placed no shard on itself")
	}
	if remote := len(shards(recs[1])); remote+len(own) != got.Shards {
		t.Fatalf("%d remote and %d in-process shards for %d shards", remote, len(own), got.Shards)
	}
	requireCover(t, append(windowsOf(t, shards(recs[1]), "test"), own...), [][2]int{{0, got.Evaluated}})

	// Each in-process dispatch parents its shard's phases.
	phases := make(map[string]map[string]int) // dispatch span ID -> phase -> count
	for _, sp := range spans {
		if strings.HasPrefix(sp.Name, "phase:") {
			if phases[sp.ParentID] == nil {
				phases[sp.ParentID] = make(map[string]int)
			}
			phases[sp.ParentID][sp.Name]++
		}
	}
	for _, sp := range spans {
		if sp.Name != "dispatch" || sp.Attrs["worker"] != "http://"+peers[0].self {
			continue
		}
		for _, phase := range []string{"phase:train", "phase:predict", "phase:merge"} {
			if phases[sp.SpanID][phase] != 1 {
				t.Fatalf("in-process dispatch %s has %d %s spans, want 1", sp.SpanID, phases[sp.SpanID][phase], phase)
			}
		}
	}
	if n := peers[0].srv.chunkN.Count(); n == 0 {
		t.Fatal("in-process shards fed no dsed_explore_chunk_designs observation")
	}

	if got.Evaluated != want.Evaluated {
		t.Fatalf("fleet evaluated %d designs, single daemon %d", got.Evaluated, want.Evaluated)
	}
	requireSameCandidates(t, "fleet frontier vs single daemon", got.Candidates, want.Candidates)
}

// An unknown benchmark is the fleet's deterministic verdict whether the
// owner runs the shard itself or sends it to a peer: the job answers
// 404, the shard books one rejection and no failure, and no peer is
// retried.
func TestPeerUnknownBenchmarkIsRejection(t *testing.T) {
	var handler http.Handler
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	solo := testPeer(t, strings.TrimPrefix(ts.URL, "http://"))
	handler = solo.Handler()
	solo.table.SetLocalInfo(solo.srv.workers, solo.srv.store.Trained())
	duoEntry, _, duo := twoPeerFleet(t, 64)

	for _, fleet := range []struct {
		name  string
		entry string
		owner *peerServer
	}{
		{"1 peer", ts.URL, solo},
		{"2 peers", duoEntry.URL, duo[0]},
	} {
		_, _, err := testClient(fleet.entry).Run(context.Background(), wire.ParetoRequest{
			Benchmark:  "doom",
			Objectives: []wire.ObjectiveSpec{{Metric: "CPI"}},
			SpaceSpec:  wire.SpaceSpec{Space: "test", Sample: 50},
		}, nil)
		var ae *dsedclient.APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
			t.Fatalf("%s: unknown benchmark answered %v, want a 404", fleet.name, err)
		}
		if rejections, failures := faultCounts(fleet.owner); rejections != 1 || failures != 0 {
			t.Fatalf("%s: %d rejections and %d failures, want 1 and 0", fleet.name, rejections, failures)
		}
	}
}

// A fleet-scope warm on a lone peer trains on the peer itself through
// its in-process transport, reports that training, and forwards an
// unknown benchmark as the 404 a remote peer would answer.
func TestPeerFleetWarmTrainsOnOwner(t *testing.T) {
	ct := &countTrainer{Trainer: tinyTrainer()}
	srv := NewServer(context.Background(), openTestStore(t, "", ct), 0, nil, nil)
	var handler http.Handler
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	ps := newPeerServer(srv, strings.TrimPrefix(ts.URL, "http://"), nil, peerOptions{heartbeat: time.Second, replicate: 1}, nil)
	handler = ps.Handler()
	ps.table.SetLocalInfo(srv.workers, nil)

	var resp wire.WarmResponse
	if status := postJSON(t, ts, "/v1/warm", wire.WarmRequest{Benchmarks: []string{"twolf"}}, &resp); status != http.StatusOK {
		t.Fatalf("fleet warm status %d", status)
	}
	if ct.calls.Load() != 1 || resp.Trainings != 1 {
		t.Fatalf("fleet warm ran %d trainings and reported %d, want 1 and 1", ct.calls.Load(), resp.Trainings)
	}
	if status := postJSON(t, ts, "/v1/warm", wire.WarmRequest{Benchmarks: []string{"doom"}}, nil); status != http.StatusNotFound {
		t.Fatalf("fleet warm of an unknown benchmark answered %d, want 404", status)
	}
}

// A gossip target's answer passes the same validation a request does:
// a response digest carrying a malformed entry is a failed round, and
// none of it — not even its well-formed entries — reaches the gossip
// table or, from there, the scheduling fleet.
func TestPeerGossipRejectsMalformedResponse(t *testing.T) {
	target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(wire.GossipResponse{
			From: strings.TrimPrefix(r.Host, "http://"),
			Entries: []wire.GossipEntry{
				{Addr: "127.0.0.1:7", Incarnation: 1, State: wire.GossipAlive},
				{Addr: "evil", Incarnation: 1, State: wire.GossipAlive, Benchmarks: []string{"gcc"}},
			},
		})
	}))
	t.Cleanup(target.Close)
	ps := testPeer(t, "127.0.0.1:1")
	failed := ps.srv.tel.reg.Counter("dsed_gossip_rounds_total", "", obs.Label{Key: "result", Value: "error"})
	before := failed.Value()
	ps.exchange(context.Background(), strings.TrimPrefix(target.URL, "http://"))

	for _, m := range ps.fleet() {
		if m.Name() != "http://"+ps.self {
			t.Errorf("member %s joined from a malformed gossip response", m.Name())
		}
	}
	for _, addr := range []string{"evil", "127.0.0.1:7"} {
		if st := ps.table.State(addr); st != "" {
			t.Errorf("gossip table holds %s as %q from a malformed response", addr, st)
		}
	}
	if n := failed.Value() - before; n != 1 {
		t.Errorf("malformed response booked %d failed rounds, want 1", n)
	}
}

// A replica payload whose spec its own submission would have refused
// answers 400: it must never reach the replica table, from which an
// adopter would resume it.
func TestReplicateRejectsInvalidSpec(t *testing.T) {
	ps := testPeer(t, "127.0.0.1:1")
	ts := httptest.NewServer(ps.Handler())
	defer ts.Close()
	bad := paretoReplica("job-bad", "127.0.0.1:2", nil)
	bad.Pareto.Objectives = []wire.ObjectiveSpec{{Metric: "NOPE"}}
	var out map[string]any
	if status := postJSON(t, ts, "/v1/jobs/replicate", bad, &out); status != http.StatusBadRequest {
		t.Fatalf("replicate with an unknown metric answered %d, want 400 (%v)", status, out)
	}
	if _, ok := ps.replicas.get("job-bad"); ok {
		t.Error("the invalid replica reached the replica table")
	}
}

// A peer's scheduling fleet follows an incoming gossip exchange before
// the handler answers, not at the next round: a client that sees the
// peer in /v1/healthz can schedule onto it at once. Then exchanges
// arrive concurrently with each other and with fleet reads.
func TestGossipExchangeUpdatesSchedulingFleet(t *testing.T) {
	ps := testPeer(t, "127.0.0.1:1")
	ts := httptest.NewServer(ps.Handler())
	defer ts.Close()
	exchange := func(joiner string) {
		body, _ := json.Marshal(wire.GossipRequest{From: joiner, Entries: []wire.GossipEntry{{Addr: joiner, Incarnation: 1, Beat: 1, State: wire.GossipAlive}}})
		resp, err := http.Post(ts.URL+"/v1/gossip", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("gossip from %s answered %d", joiner, resp.StatusCode)
			return
		}
		for _, m := range ps.fleet() {
			if m.Name() == "http://"+joiner {
				return
			}
		}
		t.Errorf("members after %s's exchange: %v; want it among them", joiner, ps.fleet())
	}
	exchange("127.0.0.1:2")

	joiners := []string{"127.0.0.1:3", "127.0.0.1:4", "127.0.0.1:5"}
	var wg sync.WaitGroup
	for _, joiner := range joiners {
		wg.Add(2)
		go func() {
			defer wg.Done()
			ps.fleet()
		}()
		go func() {
			defer wg.Done()
			exchange(joiner)
		}()
	}
	wg.Wait()
	if n := len(ps.fleet()); n != len(joiners)+2 {
		t.Errorf("scheduling fleet holds %d members, want the peer itself and %d joiners", n, len(joiners)+1)
	}
}

// The scheduling fleet is the gossip table itself, so it never lags it:
// a suspect claim merged straight into the table — no /v1/gossip
// request, no round — keeps the very next placement off that peer.
func TestSuspectClaimLeavesFleetAtOnce(t *testing.T) {
	var shards atomic.Int64
	suspect := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		shards.Add(1)
		http.Error(w, "unreachable", http.StatusServiceUnavailable)
	}))
	t.Cleanup(suspect.Close)
	addr := strings.TrimPrefix(suspect.URL, "http://")

	var handler http.Handler
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	ps := newPeerServer(NewServer(context.Background(), testServer(t).store, 0, nil, nil),
		strings.TrimPrefix(ts.URL, "http://"), nil, peerOptions{heartbeat: time.Second, shardSize: 16, replicate: 1}, nil)
	handler = ps.Handler()
	trained := ps.srv.store.Trained()
	ps.table.SetLocalInfo(ps.srv.workers, trained)

	// The peer arrives through an ordinary exchange, advertising the same
	// models as the owner, so placement would deal it shards.
	alive := wire.GossipEntry{Addr: addr, Incarnation: 1, Beat: 1, State: wire.GossipAlive, Capacity: 4, Benchmarks: trained}
	if status := postJSON(t, ts, "/v1/gossip", wire.GossipRequest{From: addr, Entries: []wire.GossipEntry{alive}}, nil); status != http.StatusOK {
		t.Fatalf("gossip exchange answered %d", status)
	}
	if n := len(ps.fleet()); n != 2 {
		t.Fatalf("fleet after the exchange holds %d members, want 2", n)
	}

	suspected := alive
	suspected.State = wire.GossipSuspect
	ps.table.Merge([]wire.GossipEntry{suspected})
	var resp wire.ClusterParetoResponse
	if status := runJob(t, ts, "/v1/pareto", paretoBody(), &resp); status != http.StatusOK {
		t.Fatalf("fleet pareto status %d", status)
	}
	if n := shards.Load(); n != 0 {
		t.Fatalf("%d shard requests reached the suspect peer, want 0", n)
	}
	if resp.Evaluated != 300 {
		t.Fatalf("evaluated %d designs, want 300", resp.Evaluated)
	}
}
