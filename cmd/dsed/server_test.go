package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/workload"
)

var (
	testSrvOnce sync.Once
	testSrv     *Server
	testSrvErr  error
)

// tinySpec keeps training around a second per benchmark. Its 32
// training designs grow gcc's mean networks enough that both level
// tables fit (requireLatticeModels), so window sweeps take the lattice
// route production takes, and Pareto windows prune.
func tinySpec() registry.Spec {
	return registry.Spec{Train: 32, Candidates: 2, Seed: 7, Samples: 16, Instructions: 16384, Coefficients: 8}
}

// requireLatticeModels fails the test unless every mean network of the
// store's gcc models for the metrics has both level tables and bound
// tables: a window sweep scores such models from the tables, and a
// Pareto window sweep over them prunes.
func requireLatticeModels(t *testing.T, store *registry.Store, metrics ...sim.Metric) {
	t.Helper()
	for _, m := range metrics {
		p, err := store.LoadOrTrain(context.Background(), "gcc", m)
		if err != nil {
			t.Fatal(err)
		}
		terms := p.MeanTerms()
		if len(terms) == 0 {
			t.Fatalf("gcc %v has no mean terms", m)
		}
		for _, mt := range terms {
			if s, _ := mt.Net.TableOffsets(0); s == nil || mt.Net.BoundDim() == 0 {
				t.Fatalf("a gcc %v mean network has no table offsets or bound tables: window sweeps would not take the lattice route", m)
			}
		}
	}
}

func tinyTrainer() *simTrainer {
	return &simTrainer{Spec: tinySpec()}
}

// countTrainer wraps a Trainer and counts benchmark training runs.
type countTrainer struct {
	registry.Trainer
	calls atomic.Int32
}

func (c *countTrainer) TrainBenchmark(ctx context.Context, benchmark string, metrics []sim.Metric) (map[sim.Metric]*core.Predictor, error) {
	c.calls.Add(1)
	return c.Trainer.TrainBenchmark(ctx, benchmark, metrics)
}

func openTestStore(t *testing.T, dir string, tr registry.Trainer) *registry.Store {
	t.Helper()
	store, err := registry.Open(registry.Config{
		Trainer:   tr,
		Metrics:   []sim.Metric{sim.MetricCPI, sim.MetricPower},
		Trainable: workload.Names(),
		Dir:       dir,
		Spec:      tinySpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// testServer boots one registry shared by every read-mostly test: gcc
// pre-trained at a scale that keeps startup around a second.
func testServer(t testing.TB) *Server {
	t.Helper()
	testSrvOnce.Do(func() {
		store, err := registry.Open(registry.Config{
			Trainer:   tinyTrainer(),
			Metrics:   []sim.Metric{sim.MetricCPI, sim.MetricPower},
			Trainable: workload.Names(),
			Spec:      tinySpec(),
		})
		if err == nil {
			_, err = store.LoadOrTrain(context.Background(), "gcc", sim.MetricCPI)
		}
		testSrv, testSrvErr = NewServer(context.Background(), store, 0, nil, nil), err
	})
	if testSrvErr != nil {
		t.Fatal(testSrvErr)
	}
	return testSrv
}

// testContext is a context cancelled when the test ends: t.Context
// without needing Go 1.24.
func testContext(t *testing.T) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return ctx
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any, out any) int {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: decoding response: %v", path, err)
		}
	}
	return resp.StatusCode
}

// runJob is a blocking /v1 job run through the raw HTTP surface: POST
// body to path (/v1/sweeps or /v1/pareto) and, once the job is
// accepted, wait for its final update and decode its result into out.
// It returns the submission's status when the submit itself failed, 200
// for a job that finished, and the job error's status otherwise.
func runJob(t *testing.T, ts *httptest.Server, path string, body, out any) int {
	t.Helper()
	var st api.JobStatus
	if status := postJSON(t, ts, path, body, &st); status != http.StatusAccepted {
		return status
	}
	c := testClient(ts.URL)
	if final := awaitFinal(t, c, st.ID); final.Error != nil {
		return final.Error.Status
	}
	job, err := c.Job(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		raw, err := json.Marshal(job.Result)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s: decoding job result: %v", path, err)
		}
	}
	return http.StatusOK
}

func TestHealthzEndpoint(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var health struct {
		Status string      `json:"status"`
		Models []modelInfo `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || len(health.Models) != 2 {
		t.Fatalf("healthz = %+v, want ok with 2 models", health)
	}
	if health.Models[0].Networks == 0 || health.Models[0].TraceLen != 16 {
		t.Errorf("model inventory incomplete: %+v", health.Models[0])
	}
	if status := postJSON(t, ts, "/v1/healthz", map[string]any{}, nil); status != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/healthz status %d, want 405", status)
	}
}

func TestBenchmarksEndpoint(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Trained  []string `json:"trained"`
		OnDemand []string `json:"trainable_on_demand"`
		Metrics  []string `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Trained) == 0 || body.Trained[0] != "gcc" {
		t.Errorf("trained = %v, want [gcc ...]", body.Trained)
	}
	for _, b := range body.OnDemand {
		if b == "gcc" {
			t.Error("gcc listed both trained and on-demand")
		}
	}
	found := false
	for _, b := range body.OnDemand {
		if b == "twolf" {
			found = true
		}
	}
	if !found {
		t.Errorf("trainable_on_demand = %v, want to include twolf", body.OnDemand)
	}
	if len(body.Metrics) != 2 || body.Metrics[0] != "CPI" {
		t.Errorf("metrics = %v, want [CPI Power]", body.Metrics)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	// Generate one known-good and one known-bad request first.
	postJSON(t, ts, "/v1/predict", wire.PredictRequest{
		Benchmark: "gcc", Metric: "CPI", Config: wire.ConfigSpec{FetchWidth: intp(4)},
	}, nil)
	postJSON(t, ts, "/v1/predict", map[string]any{"benchmark": "doom", "metric": "CPI"}, nil)

	metrics, resp := getText(t, ts.URL, "/v1/metricsz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz status %d", resp.StatusCode)
	}
	sample := func(series string) float64 {
		t.Helper()
		for _, line := range strings.Split(metrics, "\n") {
			if v, ok := strings.CutPrefix(line, series+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				return f
			}
		}
		t.Fatalf("metricsz lacks %s:\n%s", series, metrics)
		return 0
	}
	const ep = `endpoint="/v1/predict"`
	requests := sample(`dsed_http_request_ms_count{` + ep + `}`)
	if requests < 2 || sample(`dsed_http_requests_total{`+ep+`,code="200"}`) < 1 || sample(`dsed_http_requests_total{`+ep+`,code="404"}`) < 1 {
		t.Errorf("/v1/predict counters incomplete:\n%s", metrics)
	}
	total := sample(`dsed_http_request_ms_sum{` + ep + `}`)
	if total <= 0 || sample(`dsed_http_request_max_ms{`+ep+`}`) < total/requests {
		t.Errorf("/v1/predict latency stats inconsistent:\n%s", metrics)
	}
}

func TestPredictEndpoint(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	var resp wire.PredictResponse
	status := postJSON(t, ts, "/v1/predict", wire.PredictRequest{
		Benchmark: "gcc", Metric: "CPI",
		Config: wire.ConfigSpec{FetchWidth: intp(4)},
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("predict status %d", status)
	}
	if len(resp.Trace) != 16 {
		t.Fatalf("predicted trace length %d, want 16", len(resp.Trace))
	}
	if resp.Config.FetchWidth != 4 || resp.Config.ROBSize != 96 {
		t.Errorf("config echo %+v: overrides or baseline defaults lost", resp.Config)
	}
	if resp.Mean <= 0 || resp.Worst < resp.Mean {
		t.Errorf("summary stats inconsistent: mean=%v worst=%v", resp.Mean, resp.Worst)
	}
}

func TestBatchPredict(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	var resp wire.BatchPredictResponse
	status := postJSON(t, ts, "/v1/predict", map[string]any{
		"benchmark": "gcc",
		"metrics":   []string{"CPI", "Power"},
		"configs": []map[string]any{
			{"fetch_width": 2},
			{"fetch_width": 8},
			{"rob_size": 128},
		},
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("batch predict status %d", status)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("batch returned %d rows, want 3", len(resp.Results))
	}
	for i, row := range resp.Results {
		if len(row) != 2 {
			t.Fatalf("row %d has %d cells, want 2", i, len(row))
		}
		for j, cell := range row {
			if cell.Mean <= 0 || cell.Worst < cell.Mean {
				t.Errorf("cell [%d][%d] stats inconsistent: %+v", i, j, cell)
			}
			if cell.Trace != nil {
				t.Errorf("cell [%d][%d] carries a trace without include_traces", i, j)
			}
		}
	}
	if resp.Configs[0].FetchWidth != 2 || resp.Configs[2].ROBSize != 128 {
		t.Errorf("config echo lost: %+v", resp.Configs)
	}

	// include_traces adds full traces to every cell.
	status = postJSON(t, ts, "/v1/predict", map[string]any{
		"benchmark":      "gcc",
		"metrics":        []string{"CPI"},
		"configs":        []map[string]any{{"fetch_width": 4}},
		"include_traces": true,
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("batch predict with traces status %d", status)
	}
	if len(resp.Results[0][0].Trace) != 16 {
		t.Errorf("include_traces trace length %d, want 16", len(resp.Results[0][0].Trace))
	}
}

func TestBatchPredictErrors(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	if status := postJSON(t, ts, "/v1/predict", map[string]any{
		"benchmark": "gcc", "metric": "CPI",
		"metrics": []string{"CPI"}, "configs": []map[string]any{{}},
	}, nil); status != http.StatusBadRequest {
		t.Errorf("mixed single/batch form status %d, want 400", status)
	}
	if status := postJSON(t, ts, "/v1/predict", map[string]any{
		"benchmark": "gcc", "metrics": []string{"CPI"},
	}, nil); status != http.StatusBadRequest {
		t.Errorf("batch without configs status %d, want 400", status)
	}
	if status := postJSON(t, ts, "/v1/predict", map[string]any{
		"benchmark": "gcc", "configs": []map[string]any{{}},
	}, nil); status != http.StatusBadRequest {
		t.Errorf("batch without metrics status %d, want 400", status)
	}
	if status := postJSON(t, ts, "/v1/predict", map[string]any{
		"benchmark": "gcc", "metrics": []string{"CPI"},
		"configs": []map[string]any{{"fetch_width": -2}},
	}, nil); status != http.StatusBadRequest {
		t.Errorf("batch with invalid config status %d, want 400", status)
	}
	if status := postJSON(t, ts, "/v1/predict", map[string]any{
		"benchmark": "gcc", "metrics": []string{"CPI", "CPI"},
		"configs": []map[string]any{{}},
	}, nil); status != http.StatusBadRequest {
		t.Errorf("duplicate batch metric status %d, want 400", status)
	}
	if status := postJSON(t, ts, "/v1/predict", map[string]any{
		"benchmark": "gcc", "metrics": []string{"CPI"},
		"configs": make([]map[string]any, maxBatchConfigs+1),
	}, nil); status != http.StatusBadRequest {
		t.Errorf("oversized batch status %d, want 400", status)
	}
}

func TestPredictErrors(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	if status := postJSON(t, ts, "/v1/predict", wire.PredictRequest{Benchmark: "doom", Metric: "CPI"}, nil); status != http.StatusNotFound {
		t.Errorf("unknown benchmark status %d, want 404", status)
	}
	if status := postJSON(t, ts, "/v1/predict", wire.PredictRequest{Benchmark: "gcc", Metric: "AVF"}, nil); status != http.StatusNotFound {
		t.Errorf("unserved metric status %d, want 404", status)
	}
	if status := postJSON(t, ts, "/v1/predict", wire.PredictRequest{Benchmark: "gcc", Metric: "Tempo"}, nil); status != http.StatusBadRequest {
		t.Errorf("unparseable metric status %d, want 400", status)
	}
	if status := postJSON(t, ts, "/v1/predict", wire.PredictRequest{
		Benchmark: "gcc", Metric: "CPI", Config: wire.ConfigSpec{FetchWidth: intp(-1)},
	}, nil); status != http.StatusBadRequest {
		t.Errorf("invalid config status %d, want 400", status)
	}
	resp, err := http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/predict status %d, want 405", resp.StatusCode)
	}
}

func TestRequestBodyLimit(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	// A syntactically valid request whose config list alone exceeds the
	// body budget: the decoder must hit the limit, not an unknown field.
	huge := `{"benchmark":"gcc","metrics":["CPI"],"configs":[` +
		strings.Repeat(`{"fetch_width":4},`, api.MaxRequestBody/16) +
		`{"fetch_width":4}]}`
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status %d, want 413", resp.StatusCode)
	}
}

func TestSweepEndpoint(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	var resp wire.SweepResponse
	status := runJob(t, ts, "/v1/sweeps", map[string]any{
		"benchmark": "gcc",
		"objectives": []map[string]any{
			{"metric": "CPI"},
			{"metric": "Power", "kind": "worst"},
		},
		"space":       "test",
		"sample":      200,
		"top_k":       5,
		"constraints": []map[string]any{{"objective": 1, "max": 1000.0}},
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("sweep status %d: %+v", status, resp)
	}
	if resp.Evaluated != 200 || resp.Feasible == 0 {
		t.Fatalf("sweep evaluated/feasible = %d/%d, want 200/>0", resp.Evaluated, resp.Feasible)
	}
	if len(resp.Candidates) != 5 {
		t.Fatalf("sweep returned %d candidates, want 5", len(resp.Candidates))
	}
	for i := 1; i < len(resp.Candidates); i++ {
		if resp.Candidates[i].Scores[0] < resp.Candidates[i-1].Scores[0] {
			t.Error("sweep candidates not sorted best-first")
		}
	}
}

func TestSweepErrors(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	if status := runJob(t, ts, "/v1/sweeps", map[string]any{
		"benchmark": "gcc", "objectives": []map[string]any{{"metric": "CPI"}},
		"space": "warp",
	}, nil); status != http.StatusBadRequest {
		t.Errorf("unknown space status %d, want 400", status)
	}
	if status := runJob(t, ts, "/v1/sweeps", map[string]any{
		"benchmark": "gcc", "objectives": []map[string]any{{"metric": "CPI", "kind": "median"}},
	}, nil); status != http.StatusBadRequest {
		t.Errorf("unknown objective kind status %d, want 400", status)
	}
	if status := runJob(t, ts, "/v1/sweeps", map[string]any{
		"benchmark": "gcc", "objectives": []map[string]any{},
	}, nil); status != http.StatusBadRequest {
		t.Errorf("empty objectives status %d, want 400", status)
	}
	if status := runJob(t, ts, "/v1/sweeps", map[string]any{
		"benchmark": "gcc", "objectives": []map[string]any{{"metric": "CPI"}},
		"objective": 3,
	}, nil); status != http.StatusBadRequest {
		t.Errorf("out-of-range objective status %d, want 400", status)
	}
}

func TestParetoEndpoint(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	var resp wire.ParetoResponse
	status := runJob(t, ts, "/v1/pareto", map[string]any{
		"benchmark": "gcc",
		"objectives": []map[string]any{
			{"metric": "CPI"},
			{"metric": "Power"},
		},
		"space":  "test",
		"sample": 300,
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("pareto status %d", status)
	}
	if resp.Evaluated != 300 || len(resp.Frontier) == 0 {
		t.Fatalf("pareto evaluated %d with %d frontier points", resp.Evaluated, len(resp.Frontier))
	}
	if len(resp.Frontier) == resp.Evaluated {
		t.Error("frontier should prune dominated designs")
	}
	for i := 1; i < len(resp.Frontier); i++ {
		if resp.Frontier[i].Scores[0] < resp.Frontier[i-1].Scores[0] {
			t.Error("frontier not sorted by first objective")
		}
	}
}

func TestParetoExplicitDesigns(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	var resp wire.ParetoResponse
	status := runJob(t, ts, "/v1/pareto", map[string]any{
		"benchmark":  "gcc",
		"objectives": []map[string]any{{"metric": "CPI"}, {"metric": "Power"}},
		"designs": []map[string]any{
			{"fetch_width": 2},
			{"fetch_width": 8},
			{"fetch_width": 16, "l2_size_kb": 4096},
		},
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("pareto status %d", status)
	}
	if resp.Evaluated != 3 {
		t.Fatalf("evaluated %d explicit designs, want 3", resp.Evaluated)
	}
}

// TestConcurrentQueries hammers every endpoint at once; run under -race
// this proves the registry and stats need no further locking.
func TestConcurrentQueries(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var pr wire.PredictResponse
			if status := postJSON(t, ts, "/v1/predict", wire.PredictRequest{
				Benchmark: "gcc", Metric: "CPI",
				Config: wire.ConfigSpec{FetchWidth: intp(2 << (i % 3))},
			}, &pr); status != http.StatusOK {
				errs <- errStatus{"predict", status}
			}
			if _, _, err := testClient(ts.URL).Run(context.Background(), wire.SweepRequest{
				Benchmark:  "gcc",
				Objectives: []wire.ObjectiveSpec{{Metric: "CPI"}, {Metric: "Power"}},
				SpaceSpec:  wire.SpaceSpec{Space: "test", Sample: 50},
				TopK:       3,
			}, nil); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestWarmStartServesWithoutRetraining is the acceptance scenario: a
// killed-and-restarted daemon with -model-dir serves its first /predict
// from persisted models — the injected trainer is never called on the
// second boot.
func TestWarmStartServesWithoutRetraining(t *testing.T) {
	dir := t.TempDir()

	// Boot 1: cold start, trains gcc, persists.
	ct := &countTrainer{Trainer: tinyTrainer()}
	store1 := openTestStore(t, dir, ct)
	if _, err := store1.LoadOrTrain(context.Background(), "gcc", sim.MetricCPI); err != nil {
		t.Fatal(err)
	}
	if ct.calls.Load() != 1 {
		t.Fatalf("first boot trained %d times, want 1", ct.calls.Load())
	}
	ts1 := httptest.NewServer(NewServer(context.Background(), store1, 0, nil, nil).Handler())
	var first wire.PredictResponse
	if status := postJSON(t, ts1, "/v1/predict", wire.PredictRequest{
		Benchmark: "gcc", Metric: "CPI", Config: wire.ConfigSpec{FetchWidth: intp(4)},
	}, &first); status != http.StatusOK {
		t.Fatalf("boot-1 predict status %d", status)
	}
	ts1.Close()

	// Boot 2: same model dir, a trainer that must never run.
	var poison registry.TrainerFunc = func(context.Context, string, []sim.Metric) (map[sim.Metric]*core.Predictor, error) {
		t.Error("restarted daemon invoked its trainer despite persisted models")
		return nil, fmt.Errorf("must not train")
	}
	store2 := openTestStore(t, dir, poison)
	// The boot path's pre-train of gcc is free against warm models.
	if _, err := store2.LoadOrTrain(context.Background(), "gcc", sim.MetricCPI); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(NewServer(context.Background(), store2, 0, nil, nil).Handler())
	defer ts2.Close()
	var second wire.PredictResponse
	if status := postJSON(t, ts2, "/v1/predict", wire.PredictRequest{
		Benchmark: "gcc", Metric: "CPI", Config: wire.ConfigSpec{FetchWidth: intp(4)},
	}, &second); status != http.StatusOK {
		t.Fatalf("boot-2 predict status %d", status)
	}
	if store2.Trainings() != 0 {
		t.Errorf("second boot recorded %d trainings, want 0", store2.Trainings())
	}
	if len(first.Trace) != len(second.Trace) {
		t.Fatal("warm-started trace length differs")
	}
	for i := range first.Trace {
		if first.Trace[i] != second.Trace[i] {
			t.Fatalf("warm-started prediction differs at sample %d: %v vs %v", i, first.Trace[i], second.Trace[i])
		}
	}
}

// TestBenchmarksPartialWarmNotTrained proves a benchmark that
// warm-started only some of its metrics is not advertised as trained.
func TestBenchmarksPartialWarmNotTrained(t *testing.T) {
	dir := t.TempDir()
	store1 := openTestStore(t, dir, tinyTrainer())
	if _, err := store1.LoadOrTrain(context.Background(), "gcc", sim.MetricCPI); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "gcc__Power.model.json"), []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	store2 := openTestStore(t, dir, tinyTrainer())
	ts := httptest.NewServer(NewServer(context.Background(), store2, 0, nil, nil).Handler())
	defer ts.Close()
	var body struct {
		Trained  []string `json:"trained"`
		OnDemand []string `json:"trainable_on_demand"`
	}
	resp, err := http.Get(ts.URL + "/v1/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Trained) != 0 {
		t.Errorf("partially warm benchmark advertised as trained: %v", body.Trained)
	}
	found := false
	for _, b := range body.OnDemand {
		if b == "gcc" {
			found = true
		}
	}
	if !found {
		t.Errorf("partially warm benchmark missing from trainable_on_demand: %v", body.OnDemand)
	}
}

// TestOnDemandTrainingExactlyOnce proves a request for an unconfigured
// benchmark trains it on demand exactly once under concurrent load.
func TestOnDemandTrainingExactlyOnce(t *testing.T) {
	ct := &countTrainer{Trainer: tinyTrainer()}
	store := openTestStore(t, "", ct)
	ts := httptest.NewServer(NewServer(context.Background(), store, 0, nil, nil).Handler())
	defer ts.Close()

	// Malformed requests for an untrained benchmark must be rejected
	// before they can trigger a training run.
	if status := postJSON(t, ts, "/v1/predict", wire.PredictRequest{
		Benchmark: "twolf", Metric: "Power", Config: wire.ConfigSpec{FetchWidth: intp(-1)},
	}, nil); status != http.StatusBadRequest {
		t.Errorf("invalid config status %d, want 400", status)
	}
	if status := postJSON(t, ts, "/v1/predict", map[string]any{
		"benchmark": "twolf", "metrics": []string{"Power"},
		"configs": []map[string]any{{"fetch_width": -1}},
	}, nil); status != http.StatusBadRequest {
		t.Errorf("invalid batch config status %d, want 400", status)
	}
	if got := ct.calls.Load(); got != 0 {
		t.Fatalf("malformed requests triggered %d training runs, want 0", got)
	}

	const n = 8
	var wg sync.WaitGroup
	statuses := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i] = postJSON(t, ts, "/v1/predict", wire.PredictRequest{
				Benchmark: "twolf", Metric: "Power",
				Config: wire.ConfigSpec{FetchWidth: intp(2 << (i % 3))},
			}, nil)
		}(i)
	}
	wg.Wait()
	for i, status := range statuses {
		if status != http.StatusOK {
			t.Errorf("concurrent on-demand request %d status %d", i, status)
		}
	}
	if got := ct.calls.Load(); got != 1 {
		t.Fatalf("on-demand training ran %d times under %d concurrent requests, want 1", got, n)
	}
	// The inventory now lists the benchmark as trained.
	var body struct {
		Trained []string `json:"trained"`
	}
	resp, err := http.Get(ts.URL + "/v1/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Trained) != 1 || body.Trained[0] != "twolf" {
		t.Errorf("trained = %v, want [twolf]", body.Trained)
	}
}

// A straggler must straggle on every route: a named-space job under a
// mean objective is a window sweep, which scores a predictor's mean
// terms straight from their level tables. The stall is paid per covered
// design after each chunk, whatever route scored it, so on one worker
// at 1ms per design an n-design window takes at least n ms, and it
// answers byte for byte what a healthy daemon does.
func TestStragglerSleepsOnWindowMeans(t *testing.T) {
	const n = 120
	ctx := context.Background()
	// A healthy daemon scores the CPI mean from the tables.
	store, err := registry.Open(registry.Config{
		Trainer:   tinyTrainer(),
		Metrics:   []sim.Metric{sim.MetricCPI},
		Trainable: workload.Names(),
		Spec:      tinySpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	requireLatticeModels(t, store, sim.MetricCPI)
	slow := NewServer(ctx, store, 1, nil, nil)
	slow.local.Stall = time.Millisecond
	slowTS := httptest.NewServer(slow.Handler())
	t.Cleanup(slowTS.Close)
	healthyTS := httptest.NewServer(NewServer(ctx, store, 0, nil, nil).Handler())
	t.Cleanup(healthyTS.Close)
	req := wire.SweepRequest{
		Benchmark:  "gcc",
		Objectives: []wire.ObjectiveSpec{{Metric: "CPI"}},
		SpaceSpec:  wire.SpaceSpec{Space: "train", Offset: 4321, Count: n},
		TopK:       10,
	}
	var answers [2]string
	for i, base := range []string{slowTS.URL, healthyTS.URL} {
		start := time.Now()
		resp, _, err := testClient(base).Run(ctx, req, nil)
		if err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); i == 0 && elapsed < n*time.Millisecond {
			t.Errorf("straggler answered a %d-design window in %v, want at least %v", n, elapsed, n*time.Millisecond)
		}
		raw, err := json.Marshal(resp.Candidates)
		if err != nil {
			t.Fatal(err)
		}
		answers[i] = string(raw)
	}
	if answers[0] != answers[1] {
		t.Fatalf("straggler's top-K differs from a healthy daemon's:\n  straggler %.300s\n  healthy   %.300s", answers[0], answers[1])
	}
}

// A straggling lone job reports its progress from its collector: the
// streamed evaluated counts never decrease, partials arrive while the
// straggler stalls, and the last count is the job's design total — on a
// pruning frontier window too, whose skipped designs count as covered.
func TestStragglerStreamsMonotoneProgress(t *testing.T) {
	slow := NewServer(context.Background(), testServer(t).store, 2, nil, nil)
	slow.local.Stall = 400 * time.Microsecond
	ts := httptest.NewServer(slow.Handler())
	t.Cleanup(ts.Close)
	const n = 2000
	req := wire.ParetoRequest{Benchmark: "gcc", Objectives: frontierObjectives, SpaceSpec: wire.SpaceSpec{Space: "train", Offset: 777, Count: n}}
	var evaluated []int
	final, _, err := testClient(ts.URL).Run(context.Background(), req, func(u api.Update) {
		evaluated = append(evaluated, u.Evaluated)
	})
	if err != nil {
		t.Fatal(err)
	}
	midway := 0
	for i, e := range evaluated {
		if i > 0 && e < evaluated[i-1] {
			t.Fatalf("streamed evaluated went from %d down to %d: %v", evaluated[i-1], e, evaluated)
		}
		if e > 0 && e < n {
			midway++
		}
	}
	if midway == 0 {
		t.Errorf("no partial reported progress short of the %d designs: %v", n, evaluated)
	}
	if final.Evaluated != n || final.Designs != n || evaluated[len(evaluated)-1] != n {
		t.Fatalf("final evaluated %d of %d designs (stream %v), want all %d", final.Evaluated, final.Designs, evaluated, n)
	}
}

type errStatus struct {
	endpoint string
	status   int
}

func (e errStatus) Error() string { return e.endpoint + ": unexpected status" }

func intp(v int) *int { return &v }

// -straggle-per-design slows a worker down without changing its answers:
// the stall sits between chunks, outside the scoring, so a window sweep
// and a pinned-list sweep, under mean and worst-case objectives, answer
// byte for byte what a healthy daemon does.
func TestStragglerAnswersMatchHealthyWorker(t *testing.T) {
	slow := NewServer(context.Background(), testServer(t).store, 0, nil, nil)
	slow.local.Stall = time.Microsecond
	slowTS := httptest.NewServer(slow.Handler())
	t.Cleanup(slowTS.Close)
	healthyTS := httptest.NewServer(testServer(t).Handler())
	t.Cleanup(healthyTS.Close)
	ctx := context.Background()
	for _, sp := range []wire.SpaceSpec{
		{Space: "test", Offset: 100, Count: 400},
		{Space: "test", Sample: 200, Seed: 3},
	} {
		req := wire.SweepRequest{
			Benchmark:  "gcc",
			Objectives: []wire.ObjectiveSpec{{Metric: "CPI"}, {Metric: "Power", Kind: "worst"}},
			SpaceSpec:  sp,
			TopK:       20,
		}
		var answers [2]string
		for i, base := range []string{slowTS.URL, healthyTS.URL} {
			resp, _, err := testClient(base).Run(ctx, req, nil)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(resp.Candidates)
			if err != nil {
				t.Fatal(err)
			}
			answers[i] = string(raw)
		}
		if answers[0] != answers[1] {
			t.Fatalf("space %+v: straggler's top-K differs from a healthy daemon's:\n  straggler %.300s\n  healthy   %.300s", sp, answers[0], answers[1])
		}
	}
}
