package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/workload"
)

// tracedFixture boots a fully observable three-peer fleet with distinct
// telemetry node names — the owner and two remote peers w1 and w2 —
// over one registry wired to w1's metric registry: the production wiring
// from main.go, in miniature.
func tracedFixture(t *testing.T) (ownerTS *httptest.Server, peers []*peerServer) {
	t.Helper()
	tels := []*telemetry{newTelemetry("owner"), newTelemetry("w1"), newTelemetry("w2")}
	store, err := registry.Open(registry.Config{
		Trainer:   tinyTrainer(),
		Metrics:   []sim.Metric{sim.MetricCPI, sim.MetricPower},
		Trainable: workload.Names(),
		Spec:      tinySpec(),
		Obs:       tels[1].reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.LoadOrTrain(context.Background(), "gcc", sim.MetricCPI); err != nil {
		t.Fatal(err)
	}
	ownerTS, _, peers = peerFleet(t, fleetSpec{
		peers:     3,
		shardSize: 32,
		store:     store,
		tel:       func(i int) *telemetry { return tels[i] },
	})
	return ownerTS, peers
}

// awaitJob polls GET /v1/jobs/{id} until the job leaves the running
// state, returning the terminal state.
func awaitJob(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State string `json:"state"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "running" {
			return st.State
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running after 60s", id)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// getText fetches base+path and returns the body as a string.
func getText(t *testing.T, base, path string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp
}

// TestClusterJobTraceConnected is the observability acceptance
// scenario: a fleet sweep across three peers yields one connected span
// tree — a single root on the owner, each remote peer's phase spans
// nested under the owner's dispatch spans, one request ID
// threading every annotated span — and Prometheus expositions on both
// tiers carrying the core series.
func TestClusterJobTraceConnected(t *testing.T) {
	ownerTS, peers := tracedFixture(t)

	const reqID = "trace-acceptance-001"
	payload, err := json.Marshal(paretoBody())
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ownerTS.URL+"/v1/pareto", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var submitted struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&submitted)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || submitted.ID == "" {
		t.Fatalf("submit answered status %d id %q", resp.StatusCode, submitted.ID)
	}
	if state := awaitJob(t, ownerTS, submitted.ID); state != "done" {
		t.Fatalf("job settled %q, want done", state)
	}

	// The assembled tree: exactly one root, rooted on the owner.
	body, traceResp := getText(t, ownerTS.URL, "/v1/jobs/"+submitted.ID+"/trace")
	if traceResp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d: %s", traceResp.StatusCode, body)
	}
	var trace obs.JobTrace
	if err := json.Unmarshal([]byte(body), &trace); err != nil {
		t.Fatalf("decoding trace: %v", err)
	}
	if trace.JobID != submitted.ID || trace.TraceID == "" || trace.Spans == 0 {
		t.Fatalf("trace envelope incomplete: %+v", trace)
	}
	if len(trace.Tree) != 1 {
		t.Fatalf("trace has %d roots, want 1 connected tree", len(trace.Tree))
	}
	root := trace.Tree[0]
	if root.Name != "job:pareto" || root.Node != "owner" {
		t.Fatalf("root span is %s on %s, want job:pareto on owner", root.Name, root.Node)
	}

	// Walk the tree: count spans, bucket them by node, and check every
	// remote peer's predict span hangs under an owner dispatch span, as
	// the owner's own shards' do.
	nodes := 0
	predictSpansPerNode := map[string]int{}
	requestIDs := map[string]bool{}
	var walk func(n *obs.TraceNode, parent *obs.TraceNode)
	walk = func(n *obs.TraceNode, parent *obs.TraceNode) {
		nodes++
		if id := n.Attrs["request_id"]; id != "" {
			requestIDs[id] = true
		}
		if strings.HasPrefix(n.Name, "job:") && n.Node != "owner" {
			t.Errorf("a job span on peer %s: a remote shard must not be a job", n.Node)
		}
		if n.Name == "phase:predict" {
			predictSpansPerNode[n.Node]++
			if parent == nil || parent.Name != "dispatch" {
				t.Errorf("predict span on %s not nested under a dispatch span", n.Node)
			}
		}
		if n.Name == "dispatch" && n.Node != "owner" {
			t.Errorf("dispatch span attributed to %s, want owner", n.Node)
		}
		for _, c := range n.Children {
			walk(c, n)
		}
	}
	walk(root, nil)
	if nodes != trace.Spans {
		t.Errorf("tree holds %d spans, envelope reports %d — duplicates or orphans", nodes, trace.Spans)
	}
	for _, worker := range []string{"w1", "w2"} {
		if predictSpansPerNode[worker] == 0 {
			t.Errorf("no predict span from peer %s — the trace does not cover the whole fleet", worker)
		}
	}
	if len(requestIDs) != 1 || !requestIDs[reqID] {
		t.Errorf("request IDs on spans = %v, want exactly %q threading the fan-out", requestIDs, reqID)
	}

	// The owner's Prometheus exposition carries per-peer shard latency
	// histograms and the two-column fault taxonomy, its own in-process
	// member included.
	metrics, metricsResp := getText(t, ownerTS.URL, "/v1/metricsz")
	if metricsResp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz status %d", metricsResp.StatusCode)
	}
	if got := metricsResp.Header.Get("Content-Type"); got != obs.ContentType {
		t.Errorf("metricsz content type %q, want %q", got, obs.ContentType)
	}
	for _, ps := range peers {
		name := "http://" + ps.self
		if !strings.Contains(metrics, `dsed_cluster_shard_latency_ms_bucket{worker="`+name+`"`) {
			t.Errorf("no shard latency histogram for worker %s", name)
		}
		for _, fault := range []string{"failures", "rejections"} {
			if !strings.Contains(metrics, `dsed_cluster_worker_`+fault+`_total{worker="`+name+`"`) {
				t.Errorf("no %s counter for worker %s", fault, name)
			}
		}
	}
	checkPrometheusFormat(t, "owner", metrics)

	// Peer w1's exposition carries the registry training histogram (its
	// metric registry backs the shared store) and the sweep-path chunk
	// instruments.
	wMetrics, wResp := getText(t, "http://"+peers[1].self, "/v1/metricsz")
	if wResp.StatusCode != http.StatusOK {
		t.Fatalf("worker metricsz status %d", wResp.StatusCode)
	}
	for _, series := range []string{
		`dsed_registry_train_ms_bucket{benchmark="gcc"`,
		"dsed_registry_cache_total",
		"dsed_explore_chunk_ms_bucket",
		"dsed_explore_designs_scored_total",
		"dsed_jobs_finished_total",
	} {
		if !strings.Contains(wMetrics, series) {
			t.Errorf("worker exposition missing %s", series)
		}
	}
	checkPrometheusFormat(t, "worker", wMetrics)
}

// checkPrometheusFormat asserts every sample line is "name value" —
// two space-separated fields — and every series has HELP/TYPE headers
// before its first sample.
func checkPrometheusFormat(t *testing.T, tier, body string) {
	t.Helper()
	if body == "" || !strings.HasSuffix(body, "\n") {
		t.Errorf("%s exposition must be newline-terminated", tier)
	}
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Errorf("%s exposition: malformed comment %q", tier, line)
			}
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("%s exposition: malformed sample %q", tier, line)
		}
	}
}
