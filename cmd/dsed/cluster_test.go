package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/wire"
)

// TestWarmEndpoint drives the admin pre-warm hook: training happens once,
// re-warming is free, and unknown benchmarks answer 404.
func TestWarmEndpoint(t *testing.T) {
	ct := &countTrainer{Trainer: tinyTrainer()}
	store := openTestStore(t, "", ct)
	ts := httptest.NewServer(NewServer(context.Background(), store, 0, nil, nil).Handler())
	defer ts.Close()

	var resp wire.WarmResponse
	if status := postJSON(t, ts, "/v1/warm", wire.WarmRequest{Benchmarks: []string{"twolf"}}, &resp); status != http.StatusOK {
		t.Fatalf("warm status %d", status)
	}
	if ct.calls.Load() != 1 {
		t.Fatalf("warming one benchmark ran %d trainings, want 1", ct.calls.Load())
	}
	if resp.Trainings != 1 {
		t.Errorf("warm response reports %d trainings, want 1", resp.Trainings)
	}

	// Re-warming answers from memory.
	if status := postJSON(t, ts, "/v1/warm", wire.WarmRequest{Benchmarks: []string{"twolf"}}, nil); status != http.StatusOK {
		t.Fatalf("re-warm status %d", status)
	}
	if ct.calls.Load() != 1 {
		t.Fatalf("re-warming retrained (%d total runs)", ct.calls.Load())
	}

	if status := postJSON(t, ts, "/v1/warm", wire.WarmRequest{Benchmarks: []string{"doom"}}, nil); status != http.StatusNotFound {
		t.Errorf("unknown benchmark warm status %d, want 404", status)
	}
	if status := postJSON(t, ts, "/v1/warm", wire.WarmRequest{}, nil); status != http.StatusBadRequest {
		t.Errorf("empty warm status %d, want 400", status)
	}

	// A partially bad list still warms the good benchmarks and reports
	// the failures in a 200, so a coordinator keeps the placements.
	var partial wire.WarmResponse
	if status := postJSON(t, ts, "/v1/warm", wire.WarmRequest{Benchmarks: []string{"doom", "gap"}}, &partial); status != http.StatusOK {
		t.Fatalf("partial warm status %d, want 200", status)
	}
	if partial.Trainings != 1 || len(partial.Errors) != 1 {
		t.Errorf("partial warm reported trainings=%d errors=%v, want 1 training and 1 error", partial.Trainings, partial.Errors)
	}
	if _, ok := store.Get("gap", store.Metrics()[0]); !ok {
		t.Error("gap did not warm because its listmate was unknown")
	}
}

// shardSubmission matches the requests the cluster transport opens a
// shard with — the /v1 job submissions.
func shardSubmission(r *http.Request) bool {
	return r.URL.Path == "/v1/pareto" || r.URL.Path == "/v1/sweeps"
}

// killable wraps a worker handler and aborts every sweep-serving
// connection once its budget of shard submissions is spent — simulating
// a worker killed mid-sweep. Job routes (stream, status, cancel) die
// with it, so a shard whose submission slipped through still fails at
// its stream.
type killable struct {
	next   http.Handler
	budget atomic.Int64
}

func (k *killable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case shardSubmission(r):
		if k.budget.Add(-1) < 0 {
			panic(http.ErrAbortHandler)
		}
	case strings.HasPrefix(r.URL.Path, "/v1/jobs/") && k.budget.Load() < 0:
		panic(http.ErrAbortHandler)
	}
	k.next.ServeHTTP(w, r)
}

// clusterFixture boots a two-peer fleet over the shared test registry
// (identical models, so any peer answers any shard identically) whose
// remote peer dies after budget shard submissions, and a single daemon
// over the same registry as the reference. Jobs enter through the owner,
// peers[0].
func clusterFixture(t *testing.T, shardSize int, peer2Budget int64) (fleetTS, singleTS *httptest.Server, owner *peerServer) {
	t.Helper()
	fleetTS, _, peers := peerFleet(t, fleetSpec{shardSize: shardSize, wrap: func(i int, next http.Handler) http.Handler {
		if i == 0 {
			return next
		}
		k := &killable{next: next}
		k.budget.Store(peer2Budget)
		return k
	}})
	singleTS = httptest.NewServer(testServer(t).Handler())
	t.Cleanup(singleTS.Close)
	return fleetTS, singleTS, peers[0]
}

func sortedCandidateJSON(t *testing.T, cands []wire.Candidate) []string {
	t.Helper()
	out := make([]string, len(cands))
	for i, c := range cands {
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	sort.Strings(out)
	return out
}

func paretoBody() map[string]any {
	return map[string]any{
		"benchmark":  "gcc",
		"objectives": []map[string]any{{"metric": "CPI"}, {"metric": "Power"}},
		"space":      "test",
		"sample":     300,
	}
}

// TestClusterParetoMatchesSingleProcess is the acceptance scenario: a
// two-peer fleet answers /v1/pareto with a frontier byte-identical (up
// to ordering) to a single daemon's on the same sweep spec.
func TestClusterParetoMatchesSingleProcess(t *testing.T) {
	fleetTS, singleTS, _ := clusterFixture(t, 32, 1<<30)

	var single wire.ParetoResponse
	if status := runJob(t, singleTS, "/v1/pareto", paretoBody(), &single); status != http.StatusOK {
		t.Fatalf("single-process pareto status %d", status)
	}
	var dist wire.ClusterParetoResponse
	if status := runJob(t, fleetTS, "/v1/pareto", paretoBody(), &dist); status != http.StatusOK {
		t.Fatalf("fleet pareto status %d", status)
	}

	if dist.Evaluated != single.Evaluated {
		t.Fatalf("fleet evaluated %d designs, single process %d", dist.Evaluated, single.Evaluated)
	}
	if dist.Workers != 2 || dist.Shards != (300+31)/32 {
		t.Errorf("distribution accounting workers=%d shards=%d, want 2/%d", dist.Workers, dist.Shards, (300+31)/32)
	}
	requireSameCandidates(t, "fleet frontier", dist.Frontier, single.Frontier)
}

// TestClusterParetoSurvivesWorkerDeath kills the remote peer mid-sweep
// (it serves two shards, then aborts every connection): the owner must
// re-dispatch its shards and still produce the single-process frontier.
func TestClusterParetoSurvivesWorkerDeath(t *testing.T) {
	fleetTS, singleTS, owner := clusterFixture(t, 16, 2)
	// Placement favours the peer with fewer shards in flight, and the
	// owner's in-process shards finish long before a remote round trip:
	// unslowed, the owner drains the job before the remote peer is
	// offered the shard it dies on.
	owner.srv.straggle = time.Millisecond

	var single wire.ParetoResponse
	if status := runJob(t, singleTS, "/v1/pareto", paretoBody(), &single); status != http.StatusOK {
		t.Fatalf("single-process pareto status %d", status)
	}
	var dist wire.ClusterParetoResponse
	if status := runJob(t, fleetTS, "/v1/pareto", paretoBody(), &dist); status != http.StatusOK {
		t.Fatalf("fleet pareto with a dying peer status %d", status)
	}
	if dist.Retries == 0 {
		t.Fatal("killed peer produced no retries — the death was not exercised")
	}
	if dist.Evaluated != single.Evaluated {
		t.Fatalf("fleet evaluated %d designs after peer death, want %d", dist.Evaluated, single.Evaluated)
	}
	requireSameCandidates(t, "frontier after peer death", dist.Frontier, single.Frontier)

	// The owner's per-worker series attribute the failures to the dead
	// peer.
	if n := len(owner.fleet()); n != 2 {
		t.Fatalf("owner lists %d members, want 2", n)
	}
	if _, failures := faultCounts(owner); failures == 0 {
		t.Error("no failures attributed despite the killed peer")
	}
}

// TestClusterSweepMatchesSingleProcess: the distributed constrained top-K
// agrees with a single daemon's, rank for rank.
func TestClusterSweepMatchesSingleProcess(t *testing.T) {
	fleetTS, singleTS, _ := clusterFixture(t, 32, 1<<30)
	body := map[string]any{
		"benchmark":   "gcc",
		"objectives":  []map[string]any{{"metric": "CPI"}, {"metric": "Power", "kind": "worst"}},
		"space":       "test",
		"sample":      200,
		"top_k":       5,
		"constraints": []map[string]any{{"objective": 1, "max": 1000.0}},
	}
	var single wire.SweepResponse
	if status := runJob(t, singleTS, "/v1/sweeps", body, &single); status != http.StatusOK {
		t.Fatalf("single-process sweep status %d", status)
	}
	var dist wire.ClusterSweepResponse
	if status := runJob(t, fleetTS, "/v1/sweeps", body, &dist); status != http.StatusOK {
		t.Fatalf("fleet sweep status %d", status)
	}
	if dist.Evaluated != single.Evaluated || dist.Feasible != single.Feasible {
		t.Fatalf("fleet evaluated/feasible %d/%d, single %d/%d",
			dist.Evaluated, dist.Feasible, single.Evaluated, single.Feasible)
	}
	if len(dist.Candidates) != len(single.Candidates) {
		t.Fatalf("fleet kept %d candidates, single %d", len(dist.Candidates), len(single.Candidates))
	}
	for i := range single.Candidates {
		sc, err := json.Marshal(single.Candidates[i])
		if err != nil {
			t.Fatal(err)
		}
		dc, err := json.Marshal(dist.Candidates[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(sc) != string(dc) {
			t.Fatalf("rank %d differs:\n  fleet  %s\n  single %s", i, dc, sc)
		}
	}
}

// gatedHandler parks matching requests until released, holding a sweep
// in flight while the test mutates the fleet around it. Every shard
// submission parks until the first one is released; parked closes when
// the first one arrives.
type gatedHandler struct {
	next    http.Handler
	release chan struct{}
	parked  chan struct{}
	once    sync.Once
}

func newGate(next http.Handler) *gatedHandler {
	return &gatedHandler{next: next, release: make(chan struct{}), parked: make(chan struct{})}
}

func (g *gatedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if shardSubmission(r) {
		g.once.Do(func() {
			close(g.parked)
			<-g.release
		})
	}
	g.next.ServeHTTP(w, r)
}

// countingHandler counts served shard submissions.
type countingHandler struct {
	next  http.Handler
	calls atomic.Int64
}

func (c *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if shardSubmission(r) {
		c.calls.Add(1)
	}
	c.next.ServeHTTP(w, r)
}

// TestElasticFleetSweep is the acceptance scenario for dynamic
// membership: a two-peer fleet serves a sweep during which a third peer
// joins through gossip and the original remote peer dies — and the
// merged frontier is still byte-identical (up to ordering) to a single
// daemon's answer.
func TestElasticFleetSweep(t *testing.T) {
	// The remote peer parks its shards until released, so the sweep is
	// verifiably in flight while the fleet changes shape, then serves
	// one shard and aborts every connection — the mid-sweep death. The
	// owner straggles, so its own shards cannot finish the job alone
	// before the joiner arrives. The late joiner counts the shards it
	// serves.
	var gate *gatedHandler
	late := &countingHandler{}
	fleetTS, _, peers := peerFleet(t, fleetSpec{
		peers:     3,
		joined:    2,
		shardSize: 16,
		straggle:  time.Millisecond,
		wrap: func(i int, next http.Handler) http.Handler {
			switch i {
			case 1:
				k := &killable{next: next}
				k.budget.Store(1)
				gate = newGate(k)
				return gate
			case 2:
				late.next = next
				return late
			}
			return next
		},
	})
	if n := len(peers[0].fleet()); n != 2 {
		t.Fatalf("the sweep starts on %d members, want 2", n)
	}

	req := wire.ParetoRequest{
		Benchmark:  "gcc",
		Objectives: frontierObjectives,
		SpaceSpec:  wire.SpaceSpec{Space: "test", Sample: 300},
	}
	type answer struct {
		resp *api.Update
		err  error
	}
	done := make(chan answer, 1)
	go func() {
		resp, _, err := testClient(fleetTS.URL).Run(context.Background(), req, nil)
		done <- answer{resp, err}
	}()

	// Mid-sweep: the third peer joins the owner's gossip view and its
	// scheduling fleet, then the gate opens (and the remote peer's
	// budget ensures it dies under load).
	<-gate.parked
	joinFleet(t, peers[0], peers[2])
	close(gate.release)

	a := <-done
	if a.err != nil {
		t.Fatalf("elastic sweep: %v", a.err)
	}
	joinerShards := late.calls.Load()
	single := httptest.NewServer(testServer(t).Handler())
	t.Cleanup(single.Close)
	want, _, err := testClient(single.URL).Run(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.resp.Evaluated != want.Evaluated {
		t.Fatalf("elastic sweep evaluated %d designs, single process %d", a.resp.Evaluated, want.Evaluated)
	}
	if a.resp.Retries == 0 {
		t.Error("the dying peer produced no retries — the death was not exercised")
	}
	if joinerShards == 0 {
		t.Error("the mid-sweep joiner served no shards")
	}
	requireSameCandidates(t, "elastic frontier", a.resp.Candidates, want.Candidates)
}

// TestClusterRequestValidation: malformed fleet requests die at the
// owner without touching the fleet.
func TestClusterRequestValidation(t *testing.T) {
	fleetTS, _, _ := clusterFixture(t, 32, 0) // the remote peer dead from the start
	cases := []struct {
		name string
		path string
		body map[string]any
		want int
	}{
		{"no objectives", "/v1/pareto", map[string]any{"benchmark": "gcc", "objectives": []map[string]any{}}, http.StatusBadRequest},
		{"bad space", "/v1/pareto", map[string]any{"benchmark": "gcc", "objectives": []map[string]any{{"metric": "CPI"}}, "space": "warp"}, http.StatusBadRequest},
		{"bad kind", "/v1/sweeps", map[string]any{"benchmark": "gcc", "objectives": []map[string]any{{"metric": "CPI", "kind": "median"}}}, http.StatusBadRequest},
		{"unknown metric pareto", "/v1/pareto", map[string]any{"benchmark": "gcc", "objectives": []map[string]any{{"metric": "Tempo"}}, "space": "test", "sample": 10}, http.StatusBadRequest},
		{"unknown metric sweep", "/v1/sweeps", map[string]any{"benchmark": "gcc", "objectives": []map[string]any{{"metric": "Tempo"}}, "space": "test", "sample": 10}, http.StatusBadRequest},
		{"bad objective index", "/v1/sweeps", map[string]any{"benchmark": "gcc", "objectives": []map[string]any{{"metric": "CPI"}}, "objective": 4}, http.StatusBadRequest},
		{"bad constraint index", "/v1/sweeps", map[string]any{"benchmark": "gcc", "objectives": []map[string]any{{"metric": "CPI"}}, "constraints": []map[string]any{{"objective": 2, "max": 1.0}}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if status := postJSON(t, fleetTS, tc.path, tc.body, nil); status != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, status, tc.want)
		}
	}
}

// TestClusterUnknownBenchmark: a benchmark no peer can train is the
// fleet's deterministic 404 verdict, forwarded unchanged — the fleet
// answers exactly like a single daemon, booking a rejection and no
// failure, with no fleet-wide retry storm.
func TestClusterUnknownBenchmark(t *testing.T) {
	fleetTS, _, owner := clusterFixture(t, 32, 1<<30)
	body := map[string]any{
		"benchmark":  "doom",
		"objectives": []map[string]any{{"metric": "CPI"}},
		"space":      "test",
		"sample":     50,
	}
	if status := runJob(t, fleetTS, "/v1/pareto", body, nil); status != http.StatusNotFound {
		t.Errorf("unknown benchmark fleet status %d, want 404 (the worker's own verdict)", status)
	}
	if rejections, failures := faultCounts(owner); rejections == 0 || failures != 0 {
		t.Errorf("unknown benchmark booked %d rejections and %d failures, want >0 and 0", rejections, failures)
	}
}

// TestUnversionedRoutesGone: every route outside /v1 — the deleted
// deprecation shims and the registration plane — and the deleted JSON
// /v1/metrics (served by /v1/metricsz) answer the structured 404, on a
// single daemon and on a peer alike.
func TestUnversionedRoutesGone(t *testing.T) {
	single := httptest.NewServer(testServer(t).Handler())
	t.Cleanup(single.Close)
	peerTS, _, _ := twoPeerFleet(t, 64)
	paths := []string{
		"/healthz", "/benchmarks", "/metrics", "/predict", "/warm", "/sweep", "/pareto",
		"/register", "/heartbeat", "/cluster/sweep", "/cluster/pareto",
		"/v1/register", "/v1/heartbeat", "/v1/metrics",
	}
	for _, ts := range []*httptest.Server{single, peerTS} {
		for _, path := range paths {
			for _, method := range []string{http.MethodGet, http.MethodPost} {
				req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(`{}`))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				var env api.ErrorEnvelope
				err = json.NewDecoder(resp.Body).Decode(&env)
				resp.Body.Close()
				if resp.StatusCode != http.StatusNotFound || err != nil || env.Error.Code != api.CodeNotFound {
					t.Errorf("%s %s answered %d (code %q, decode %v), want the structured 404", method, path, resp.StatusCode, env.Error.Code, err)
				}
			}
		}
	}
}
