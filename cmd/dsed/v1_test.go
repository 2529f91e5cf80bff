package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/wire"
	"repro/pkg/dsedclient"
)

// The /v1 acceptance suite: the async job API end-to-end through the
// typed client, the structured error model, request IDs, and the
// legacy-shim guarantees.

func testClient(base string) *dsedclient.Client {
	return dsedclient.New(base, dsedclient.WithRetries(2), dsedclient.WithBackoff(5*time.Millisecond))
}

// TestV1JobLifecycle drives one worker job through submit → poll →
// stream → result and pins the final answer to the legacy /pareto shim's.
func TestV1JobLifecycle(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	c := testClient(ts.URL)
	ctx := context.Background()

	st, err := c.SubmitPareto(ctx, wire.ParetoRequest{
		Benchmark:  "gcc",
		Objectives: []wire.ObjectiveSpec{{Metric: "CPI"}, {Metric: "Power"}},
		SpaceSpec:  wire.SpaceSpec{Space: "test", Sample: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Kind != api.JobPareto {
		t.Fatalf("submission echo incomplete: %+v", st)
	}

	// Stream to completion. A local 300-design sweep often settles before
	// the stream opens — a late subscriber must still be served the final
	// snapshot (the same semantics a reconnecting client relies on).
	stream := c.Stream(ctx, st.ID)
	defer stream.Close()
	var final *api.Update
	for {
		u, err := stream.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if u.Final {
			final = u
		}
	}
	if final == nil {
		t.Fatal("stream ended without a final update")
	}
	if final.State != api.StateDone || final.Evaluated != 300 || len(final.Candidates) == 0 {
		t.Fatalf("final update incomplete: %+v", final)
	}

	// Poll: the settled job serves its status and result.
	status, err := c.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != api.StateDone || status.Evaluated != 300 || status.Result == nil {
		t.Fatalf("job status incomplete after completion: %+v", status)
	}

	// The stream-assembled answer equals the legacy blocking shim's.
	var legacy wire.ParetoResponse
	if s := postJSON(t, ts, "/pareto", map[string]any{
		"benchmark":  "gcc",
		"objectives": []map[string]any{{"metric": "CPI"}, {"metric": "Power"}},
		"space":      "test", "sample": 300,
	}, &legacy); s != http.StatusOK {
		t.Fatalf("legacy pareto status %d", s)
	}
	wantKeys := sortedCandidateJSON(t, legacy.Frontier)
	gotKeys := sortedCandidateJSON(t, final.Candidates)
	if len(wantKeys) != len(gotKeys) {
		t.Fatalf("streamed frontier has %d points, legacy shim %d", len(gotKeys), len(wantKeys))
	}
	for i := range wantKeys {
		if wantKeys[i] != gotKeys[i] {
			t.Fatalf("frontier point %d differs between stream and legacy shim:\n  stream %s\n  legacy %s", i, gotKeys[i], wantKeys[i])
		}
	}
}

// TestV1StreamedFrontierMatchesSingleProcess is the acceptance
// criterion: the frontier assembled from /v1/jobs/{id}/stream partials
// on a coordinator equals the single-process /pareto answer — including
// with a worker killed mid-job.
func TestV1StreamedFrontierMatchesSingleProcess(t *testing.T) {
	cases := []struct {
		name      string
		budget    int64
		shardSize int
	}{
		{"healthy fleet", 1 << 30, 32},
		{"worker killed mid-job", 2, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coordTS, worker1TS := clusterFixture(t, tc.shardSize, tc.budget)
			var single wire.ParetoResponse
			if s := postJSON(t, worker1TS, "/pareto", paretoBody(), &single); s != http.StatusOK {
				t.Fatalf("single-process pareto status %d", s)
			}

			c := testClient(coordTS.URL)
			ctx := context.Background()
			partials := 0
			var lastPartialEvaluated int
			resp, err := c.ParetoJob(ctx, wire.ParetoRequest{
				Benchmark:  "gcc",
				Objectives: []wire.ObjectiveSpec{{Metric: "CPI"}, {Metric: "Power"}},
				SpaceSpec:  wire.SpaceSpec{Space: "test", Sample: 300},
			}, func(u api.Update) {
				if u.Final {
					return
				}
				partials++
				lastPartialEvaluated = u.Evaluated
				if u.Worker == "" || u.Delta == 0 {
					t.Errorf("partial update lacks worker attribution: %+v", u)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			// Partial frontiers genuinely arrived before the job finished:
			// more than one update, and the last partial still mid-sweep.
			if partials < 2 {
				t.Errorf("saw %d partial updates, want at least 2 (shard-granularity streaming)", partials)
			}
			if lastPartialEvaluated >= resp.Evaluated {
				// The last pre-final snapshot covers the full design list
				// only when the final merge itself produced it; every
				// earlier one must be a strict partial.
				t.Logf("note: last partial covered the whole sweep (%d designs)", lastPartialEvaluated)
			}
			if resp.Evaluated != single.Evaluated {
				t.Fatalf("job evaluated %d designs, single process %d", resp.Evaluated, single.Evaluated)
			}
			wantKeys := sortedCandidateJSON(t, single.Frontier)
			gotKeys := sortedCandidateJSON(t, resp.Frontier)
			if len(wantKeys) != len(gotKeys) {
				t.Fatalf("streamed frontier has %d points, single-process %d", len(gotKeys), len(wantKeys))
			}
			for i := range wantKeys {
				if wantKeys[i] != gotKeys[i] {
					t.Fatalf("frontier point %d differs:\n  job    %s\n  single %s", i, gotKeys[i], wantKeys[i])
				}
			}
		})
	}
}

// TestV1JobCancel holds a coordinator job in flight on a gated worker,
// cancels it over the API, and expects the stream to settle "canceled".
func TestV1JobCancel(t *testing.T) {
	srv := testServer(t)
	gate := &gatedHandler{next: srv.Handler(), release: make(chan struct{})}
	workerTS := httptest.NewServer(gate)
	t.Cleanup(workerTS.Close)
	defer close(gate.release)
	coord, err := cluster.New([]cluster.Transport{cluster.NewHTTP(workerTS.URL, nil)}, cluster.Options{ShardSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(newCoordServer(context.Background(), coord, 15*time.Second, nil, nil).Handler())
	t.Cleanup(coordTS.Close)

	c := testClient(coordTS.URL)
	ctx := context.Background()
	st, err := c.SubmitPareto(ctx, wire.ParetoRequest{
		Benchmark:  "gcc",
		Objectives: []wire.ObjectiveSpec{{Metric: "CPI"}, {Metric: "Power"}},
		SpaceSpec:  wire.SpaceSpec{Space: "test", Sample: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	stream := c.Stream(ctx, st.ID)
	defer stream.Close()
	for {
		u, err := stream.Next()
		if err != nil {
			t.Fatalf("stream of a cancelled job failed: %v", err)
		}
		if u.Final {
			if u.State != api.StateCanceled {
				t.Fatalf("cancelled job settled %q, want canceled", u.State)
			}
			if u.Error == nil || !u.Error.Retryable {
				t.Errorf("cancelled job's error body should be retryable: %+v", u.Error)
			}
			break
		}
	}
	// DELETE on the settled job releases it: the re-cancel succeeds and
	// the job is gone from the table afterwards.
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatalf("re-cancel errored: %v", err)
	}
	if _, err := c.Job(ctx, st.ID); !isAPIStatus(err, http.StatusNotFound) {
		t.Errorf("released job still queryable: %v", err)
	}
	if _, err := c.Job(ctx, "no-such-job"); !isAPIStatus(err, http.StatusNotFound) {
		t.Errorf("unknown job lookup = %v, want 404 APIError", err)
	}
}

func isAPIStatus(err error, status int) bool {
	var ae *dsedclient.APIError
	return errors.As(err, &ae) && ae.Status == status
}

// TestV1ErrorModel pins the structured error contract: stable codes,
// request-ID echo (honouring X-Request-ID), retryable flags, and 406 on
// an unacceptable Accept.
func TestV1ErrorModel(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()

	// A malformed submit with a client-supplied request ID.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweeps", strings.NewReader(`{"benchmark":"gcc"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(api.RequestIDHeader, "conformance-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed submit status %d, want 400", resp.StatusCode)
	}
	if got := resp.Header.Get(api.RequestIDHeader); got != "conformance-42" {
		t.Errorf("request ID not honoured: header %q", got)
	}
	var env api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != api.CodeBadRequest || env.Error.Retryable || env.Error.RequestID != "conformance-42" {
		t.Errorf("structured error wrong: %+v", env.Error)
	}

	// Unknown /v1 routes answer the structured model too.
	r2, err := http.Get(ts.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	env = api.ErrorEnvelope{}
	if err := json.NewDecoder(r2.Body).Decode(&env); err != nil || env.Error.Code != api.CodeNotFound {
		t.Errorf("unknown /v1 route: decode err %v, code %q (want %s)", err, env.Error.Code, api.CodeNotFound)
	}

	// Content negotiation: refusing JSON is 406.
	r3, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	r3.Header.Set("Accept", "text/html")
	resp3, err := http.DefaultClient.Do(r3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotAcceptable {
		t.Errorf("Accept: text/html on /v1 status %d, want 406", resp3.StatusCode)
	}

	// A failed job carries the structured error with the legacy-status
	// mapping (unknown benchmark → 404 not_found).
	c := testClient(ts.URL)
	_, err = c.ParetoJob(context.Background(), wire.ParetoRequest{
		Benchmark:  "doom",
		Objectives: []wire.ObjectiveSpec{{Metric: "CPI"}},
		SpaceSpec:  wire.SpaceSpec{Designs: []wire.ConfigSpec{{}}},
	}, nil)
	if !isAPIStatus(err, http.StatusNotFound) {
		t.Errorf("unknown-benchmark job = %v, want 404 APIError", err)
	}

	// An oversized sample is refused at submit: sampling cannot be
	// cancelled, so an accepted one would pin a core however the job ends.
	st, err := c.SubmitPareto(context.Background(), wire.ParetoRequest{
		Benchmark:  "gcc",
		Objectives: []wire.ObjectiveSpec{{Metric: "CPI"}},
		SpaceSpec:  wire.SpaceSpec{Space: "train", Sample: wire.MaxSample + 1},
	})
	if !isAPIStatus(err, http.StatusBadRequest) {
		if err == nil {
			_, _ = c.Cancel(context.Background(), st.ID)
		}
		t.Errorf("oversized-sample submit = %v, want 400 APIError", err)
	}
}

// TestLegacyShimsUnchanged pins the deprecation contract: legacy routes
// answer their historical payloads (string error envelope included) and
// advertise their successor.
func TestLegacyShimsUnchanged(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Header.Get("Deprecation") != "true" || !strings.Contains(resp.Header.Get("Link"), "/v1/healthz") {
		t.Errorf("legacy route lacks deprecation headers: Deprecation=%q Link=%q",
			resp.Header.Get("Deprecation"), resp.Header.Get("Link"))
	}

	v1resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	v1resp.Body.Close()
	if v1resp.Header.Get("Deprecation") != "" {
		t.Error("/v1 route carries a Deprecation header")
	}

	// The legacy error envelope is still the bare string form.
	badResp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(`{"benchmark":"gcc"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer badResp.Body.Close()
	raw, err := io.ReadAll(badResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var legacyEnv map[string]json.RawMessage
	if err := json.Unmarshal(raw, &legacyEnv); err != nil {
		t.Fatal(err)
	}
	var msg string
	if err := json.Unmarshal(legacyEnv["error"], &msg); err != nil || msg == "" {
		t.Errorf("legacy error envelope is not the historical string form: %s", raw)
	}
}

// TestQueueDepthHeartbeat: a heartbeat advertising per-benchmark queue
// depths surfaces them in the coordinator's /healthz worker rows.
func TestQueueDepthHeartbeat(t *testing.T) {
	srv := testServer(t)
	workerTS := httptest.NewServer(srv.Handler())
	t.Cleanup(workerTS.Close)
	coord, err := cluster.New(nil, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(newCoordServer(context.Background(), coord, 15*time.Second, nil, nil).Handler())
	t.Cleanup(coordTS.Close)

	c := testClient(coordTS.URL)
	ctx := context.Background()
	if _, err := c.Register(ctx, wire.RegisterRequest{Addr: workerTS.URL}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Heartbeat(ctx, wire.HeartbeatRequest{
		Addr: workerTS.URL, Benchmarks: []string{"gcc"}, QueueDepths: map[string]int{"gcc": 3},
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(coordTS.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Workers []struct {
			QueueDepths map[string]int `json:"queue_depths"`
		} `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if len(health.Workers) != 1 || health.Workers[0].QueueDepths["gcc"] != 3 {
		t.Errorf("healthz lost the advertised queue depths: %+v", health.Workers)
	}

	// Validation still rejects garbage depths.
	if _, err := c.Heartbeat(ctx, wire.HeartbeatRequest{
		Addr: workerTS.URL, QueueDepths: map[string]int{"gcc": -1},
	}); !isAPIStatus(err, http.StatusBadRequest) {
		t.Errorf("negative queue depth = %v, want 400", err)
	}
}

// TestWorkerQueueDepths: a running job shows up in the worker's
// advertised per-benchmark queue depths and drains with it.
func TestWorkerQueueDepths(t *testing.T) {
	srv := testServer(t)
	if depths := srv.QueueDepths(); len(depths) != 0 {
		t.Fatalf("idle worker advertises depths %v", depths)
	}
	job, err := srv.jobs.Start(api.JobPareto, "gcc", 10, func(ctx context.Context, pub api.Publisher) (any, api.Update, error) {
		<-ctx.Done()
		return nil, api.Update{}, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if depths := srv.QueueDepths(); depths["gcc"] != 1 {
		t.Errorf("running job not reflected in queue depths: %v", depths)
	}
	if _, err := srv.jobs.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if depths := srv.QueueDepths(); len(depths) != 0 {
		t.Errorf("finished job still counted in queue depths: %v", depths)
	}
}

// TestParetoMeanMatchesPredict pins one definition of "mean" across the
// API: every point of a /v1/pareto frontier over an unsampled named space
// (the window path) scores its mean objectives bit for bit like
// /v1/predict's mean for the same config, in the single and batch forms.
func TestParetoMeanMatchesPredict(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	c := testClient(ts.URL)
	ctx := context.Background()

	metrics := []string{"CPI", "Power"}
	res, err := c.ParetoJob(ctx, wire.ParetoRequest{
		Benchmark:  "gcc",
		Objectives: []wire.ObjectiveSpec{{Metric: metrics[0]}, {Metric: metrics[1]}},
		SpaceSpec:  wire.SpaceSpec{Space: "test", Offset: 1001, Count: 3001},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 3001 || len(res.Frontier) < 2 {
		t.Fatalf("pareto evaluated %d designs into %d frontier points", res.Evaluated, len(res.Frontier))
	}
	configs := make([]wire.ConfigSpec, len(res.Frontier))
	for i, p := range res.Frontier {
		configs[i] = wire.SpecFromConfig(p.Config.ToConfig())
		for m, metric := range metrics {
			one, err := c.Predict(ctx, wire.PredictRequest{Benchmark: "gcc", Metric: metric, Config: configs[i]})
			if err != nil {
				t.Fatal(err)
			}
			if one.Mean != p.Scores[m] {
				t.Fatalf("point %d: pareto %s mean %v, /v1/predict mean %v", i, metric, p.Scores[m], one.Mean)
			}
		}
	}
	batch, err := c.PredictBatch(ctx, wire.PredictRequest{Benchmark: "gcc", Metrics: metrics, Configs: configs})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Frontier {
		for m, metric := range metrics {
			if got := batch.Results[i][m].Mean; got != p.Scores[m] {
				t.Fatalf("point %d: pareto %s mean %v, batch /v1/predict mean %v", i, metric, p.Scores[m], got)
			}
		}
	}
}

// awaitFinal streams a job to its final update.
func awaitFinal(t *testing.T, c *dsedclient.Client, id string) *api.Update {
	t.Helper()
	stream := c.Stream(context.Background(), id)
	defer stream.Close()
	for {
		u, err := stream.Next()
		if err != nil {
			t.Fatalf("streaming job %s: %v", id, err)
		}
		if u.Final {
			return u
		}
	}
}

// spanNames collects the names of every span in a trace tree.
func spanNames(nodes []*obs.TraceNode, into map[string]bool) map[string]bool {
	for _, n := range nodes {
		into[n.Name] = true
		spanNames(n.Children, into)
	}
	return into
}

// TestV1CancelDuringSampling cancels a job while it draws the largest
// sample a request may ask for. Sampling checks the job's context, so
// the job settles canceled within a bound instead of running the
// quadratic draw to completion.
func TestV1CancelDuringSampling(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	c := testClient(ts.URL)
	ctx := context.Background()
	st, err := c.SubmitSweep(ctx, wire.SweepRequest{
		Benchmark:  "gcc",
		Objectives: []wire.ObjectiveSpec{{Metric: "CPI"}},
		SpaceSpec:  wire.SpaceSpec{Space: "train", Sample: wire.MaxSample},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sampling runs between the end of phase:train and the end of
	// phase:encode, and spans reach the job's trace when they end.
	deadline := time.Now().Add(30 * time.Second)
	for {
		tr, err := c.Trace(ctx, st.ID)
		if err != nil && !isAPIStatus(err, http.StatusNotFound) {
			t.Fatal(err)
		}
		if tr != nil {
			names := spanNames(tr.Tree, map[string]bool{})
			if names["phase:encode"] {
				t.Fatal("a 20,000-design sample finished before the test could cancel it")
			}
			if names["phase:train"] {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached phase:encode")
		}
		time.Sleep(5 * time.Millisecond)
	}
	start := time.Now()
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	final := awaitFinal(t, c, st.ID)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("job took %v to settle after DELETE during sampling, want < 2s", elapsed)
	}
	if final.State != api.StateCanceled {
		t.Fatalf("job cancelled during sampling settled %q, want canceled", final.State)
	}
}

// TestJobTracesStayBounded runs more jobs than the trace store keeps.
// Every job binds its trace before any span ends; the binding must
// evict like a span does, so the first job's trace is gone.
func TestJobTracesStayBounded(t *testing.T) {
	srv := NewServer(context.Background(), testServer(t).store, 0, nil, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := testClient(ts.URL)
	req := wire.SweepRequest{
		Benchmark:  "gcc",
		Objectives: []wire.ObjectiveSpec{{Metric: "CPI"}},
		SpaceSpec:  wire.SpaceSpec{Designs: []wire.ConfigSpec{{}}},
	}
	var first string
	for i := 0; i < 300; i++ {
		st, err := c.SubmitSweep(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if final := awaitFinal(t, c, st.ID); final.State != api.StateDone {
			t.Fatalf("job %d settled %q", i, final.State)
		}
		if i == 0 {
			first = st.ID
			if _, ok := srv.tel.traces.TraceForJob(first); !ok {
				t.Fatal("first job has no trace binding")
			}
		}
	}
	if _, ok := srv.tel.traces.TraceForJob(first); ok {
		t.Fatal("first job's trace survived 299 newer jobs; the store keeps 256")
	}
}
