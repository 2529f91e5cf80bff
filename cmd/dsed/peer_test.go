package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/wire"
)

// testPeer wires a peer server around the shared test Server: enough
// for routing and adoption-guard tests, with no gossip loop running.
func testPeer(t *testing.T, self string) *peerServer {
	t.Helper()
	ps, err := newPeerServer(testServer(t), self, nil, peerOptions{
		coordOptions: coordOptions{policy: "affinity", heartbeat: time.Second},
		replicate:    1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// markDead plants a dead verdict for addr in the peer's gossip table.
func markDead(ps *peerServer, addr string) {
	ps.table.Merge([]wire.GossipEntry{{Addr: addr, Incarnation: 1, State: wire.GossipDead}})
}

func paretoReplica(jobID, owner string, replicas []string) wire.ReplicateRequest {
	return wire.ReplicateRequest{
		JobID:    jobID,
		Kind:     wire.ReplicaPareto,
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

	ps.adoptOrphans(t.Context())

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
	ps.adoptOrphans(t.Context())
	if _, err := ps.srv.jobs.Get("job-running"); err != nil {
		t.Fatalf("job-running not adopted after its owner stopped answering: %v", err)
	}
	if _, ok := ps.replicas.get("job-running"); ok {
		t.Fatal("adopted job's replica entry should be dropped by the adopter")
	}
}

// replicaRecorder stands in for a replica peer and counts the Done
// notices it receives per job.
type replicaRecorder struct {
	mu   sync.Mutex
	done map[string]int
}

func (rr *replicaRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/jobs/replicate" {
		http.NotFound(w, r)
		return
	}
	var req wire.ReplicateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Done {
		rr.mu.Lock()
		rr.done[req.JobID]++
		rr.mu.Unlock()
	}
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

// localShardGate, once armed, holds local-scope shard dispatches until
// released, so a fleet job is still running when the test cancels it.
// Client submissions (fleet scope) pass straight through.
type localShardGate struct {
	next    http.Handler
	armed   atomic.Bool
	held    chan struct{}
	release chan struct{}
}

func (g *localShardGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.armed.Load() && shardSubmission(r) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		if bytes.Contains(body, []byte(`"scope":"local"`)) {
			select {
			case g.held <- struct{}{}:
			default:
			}
			<-g.release
		}
	}
	g.next.ServeHTTP(w, r)
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

	gate := &localShardGate{held: make(chan struct{}, 1), release: make(chan struct{})}
	peerTS := httptest.NewServer(gate)
	defer peerTS.Close()
	defer close(gate.release)
	ps := testPeer(t, strings.TrimPrefix(peerTS.URL, "http://"))
	gate.next = ps.Handler()

	// Project only this peer into the scheduling fleet, then list the
	// recorder as an alive peer: it becomes every job's replica without
	// ever being placed a shard.
	ps.table.SetLocalInfo(ps.srv.workers, ps.srv.store.Trained(), nil)
	ps.syncGossipMembership()
	ps.table.Merge([]wire.GossipEntry{{Addr: recAddr, Incarnation: 1, State: wire.GossipAlive}})
	if got := ps.pickReplicas("any-job"); len(got) != 1 || got[0] != recAddr {
		t.Fatalf("replica set = %v, want the recorder %s", got, recAddr)
	}

	c := testClient(peerTS.URL)
	ctx := t.Context()
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

	gate.armed.Store(true)
	st, err := c.SubmitPareto(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.held:
	case <-time.After(10 * time.Second):
		t.Fatal("the job never dispatched a shard")
	}
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if state := awaitJob(t, peerTS, st.ID); state != string(api.StateCanceled) {
		t.Fatalf("cancelled job settled %q, want canceled", state)
	}
	rec.awaitDone(t, st.ID)
}
