package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/wire"
	"repro/pkg/dsedclient"
)

// The /v1 acceptance suite: the async job API end-to-end through the
// typed client, the structured error model, and request IDs.

func testClient(base string) *dsedclient.Client {
	return dsedclient.New(base, dsedclient.WithRetries(2), dsedclient.WithBackoff(5*time.Millisecond))
}

// TestV1JobLifecycle drives one job through submit → poll → stream →
// result and pins the streamed final answer to the job's result payload.
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
	if st.ID == "" || st.Kind != wire.JobPareto {
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

	// The stream-assembled answer equals the result payload a fresh run
	// of the same request answers.
	var result wire.ParetoResponse
	if s := runJob(t, ts, "/v1/pareto", map[string]any{
		"benchmark":  "gcc",
		"objectives": []map[string]any{{"metric": "CPI"}, {"metric": "Power"}},
		"space":      "test", "sample": 300,
	}, &result); s != http.StatusOK {
		t.Fatalf("pareto job status %d", s)
	}
	requireSameCandidates(t, "streamed frontier vs job result", final.Candidates, result.Frontier)
}

// TestV1StreamedFrontierMatchesSingleProcess is the acceptance
// criterion: the frontier assembled from /v1/jobs/{id}/stream partials
// on a peer fleet equals the single-process answer — including with a
// peer killed mid-job.
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
			fleetTS, singleTS, owner := clusterFixture(t, tc.shardSize, tc.budget)
			// The owner straggles, so the job outlives the client's
			// stream attach: a subscriber that arrives after the final
			// update sees only that.
			owner.srv.local.Stall = 100 * time.Microsecond
			var single wire.ParetoResponse
			if s := runJob(t, singleTS, "/v1/pareto", paretoBody(), &single); s != http.StatusOK {
				t.Fatalf("single-process pareto status %d", s)
			}

			c := testClient(fleetTS.URL)
			ctx := context.Background()
			partials := 0
			var lastPartialEvaluated int
			resp, _, err := c.Run(ctx, wire.ParetoRequest{
				Benchmark:  "gcc",
				Objectives: []wire.ObjectiveSpec{{Metric: "CPI"}, {Metric: "Power"}},
				SpaceSpec:  wire.SpaceSpec{Space: "test", Sample: 300},
			}, func(u api.Update) {
				// The opening snapshot carries the job's shape before any
				// shard merged; every later one is a merged partial.
				if u.Final || u.Shards == 0 {
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
			requireSameCandidates(t, "streamed frontier", resp.Candidates, single.Frontier)
		})
	}
}

// TestV1JobCancel holds a fleet job in flight — its remote shards on a
// gated peer, its own on a straggling owner — cancels it over the API,
// and expects the stream to settle "canceled".
func TestV1JobCancel(t *testing.T) {
	var gate *gatedHandler
	fleetTS, _, _ := peerFleet(t, fleetSpec{shardSize: 64, straggle: time.Millisecond, wrap: func(i int, next http.Handler) http.Handler {
		if i == 0 {
			return next
		}
		gate = newGate(next)
		return gate
	}})
	defer close(gate.release)

	c := testClient(fleetTS.URL)
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
	_, _, err = c.Run(context.Background(), wire.ParetoRequest{
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

// TestInventoryHeartbeat: a peer's trained-model inventory reaches the
// owner through gossip — into its scheduling fleet and the peer
// rows of /v1/healthz — and a digest carrying the queue depths that
// peers from before the one placement rule advertised is refused.
func TestInventoryHeartbeat(t *testing.T) {
	entry, _, peers := twoPeerFleet(t, 64)
	remote := peers[1]
	remote.table.SetLocalInfo(remote.srv.workers, []string{"gcc", "mcf"})
	remote.exchange(context.Background(), peers[0].self)

	var inventory []string
	for _, m := range peers[0].fleet() {
		if m.Name() == "http://"+remote.self {
			inventory = m.Benchmarks
		}
	}
	if !reflect.DeepEqual(inventory, []string{"gcc", "mcf"}) {
		t.Errorf("owner's scheduling fleet lost the gossiped inventory: %v", inventory)
	}
	resp, err := http.Get(entry.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Peers []map[string]any `json:"peers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range health.Peers {
		if p["addr"] == remote.self {
			found = fmt.Sprint(p["benchmarks"]) == "[gcc mcf]"
			if _, ok := p["queue_depths"]; ok {
				t.Errorf("healthz peer row still reports queue depths: %v", p)
			}
		}
	}
	if !found {
		t.Errorf("healthz peer rows lost the gossiped inventory: %+v", health.Peers)
	}

	// Strict decode refuses a pre-change peer's digest.
	body := `{"from":"` + remote.self + `","entries":[{"addr":"` + remote.self +
		`","incarnation":9,"state":"alive","queue_depths":{"gcc":1}}]}`
	old, err := http.Post(entry.URL+"/v1/gossip", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	old.Body.Close()
	if old.StatusCode != http.StatusBadRequest {
		t.Errorf("digest with queue_depths = %d, want 400", old.StatusCode)
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
	res, _, err := c.Run(ctx, wire.ParetoRequest{
		Benchmark:  "gcc",
		Objectives: []wire.ObjectiveSpec{{Metric: metrics[0]}, {Metric: metrics[1]}},
		SpaceSpec:  wire.SpaceSpec{Space: "test", Offset: 1001, Count: 3001},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 3001 || len(res.Candidates) < 2 {
		t.Fatalf("pareto evaluated %d designs into %d frontier points", res.Evaluated, len(res.Candidates))
	}
	configs := make([]wire.ConfigSpec, len(res.Candidates))
	for i, p := range res.Candidates {
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
	for i, p := range res.Candidates {
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

// GET /v1/jobs lists the job table newest first, filtered by state,
// kind and benchmark, a page of 50 by default and never more than 500;
// an unknown state or kind, or a limit that is not a positive integer,
// is a 400.
func TestJobsListFiltersAndPages(t *testing.T) {
	srv := NewServer(context.Background(), testServer(t).store, 0, nil, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	hold := make(chan struct{})
	defer close(hold)
	start := func(kind wire.JobKind, benchmark string, run api.RunFunc) *api.Job {
		t.Helper()
		job, err := srv.jobs.Start(kind, benchmark, 1, run)
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	succeed := func(context.Context, api.Publisher) (any, api.Update, error) { return "ok", api.Update{}, nil }
	// Filler: finished pareto jobs over twolf, oldest first.
	const filler = 505
	for i := 0; i < filler; i++ {
		<-start(wire.JobPareto, "twolf", succeed).Done()
	}
	// The four jobs the filters tell apart, in creation order.
	done := start(wire.JobPareto, "gcc", succeed)
	<-done.Done()
	failed := start(wire.JobSweep, "mcf", func(context.Context, api.Publisher) (any, api.Update, error) {
		return nil, api.Update{}, errors.New("boom")
	})
	<-failed.Done()
	canceled := start(wire.JobSweep, "gcc", func(ctx context.Context, _ api.Publisher) (any, api.Update, error) {
		<-ctx.Done()
		return nil, api.Update{}, ctx.Err()
	})
	if _, err := srv.jobs.Cancel(canceled.ID); err != nil {
		t.Fatal(err)
	}
	<-canceled.Done()
	running := start(wire.JobPareto, "mcf", func(context.Context, api.Publisher) (any, api.Update, error) {
		<-hold
		return nil, api.Update{}, nil
	})

	list := func(query string) (int, []string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Jobs  []api.JobStatus `json:"jobs"`
			Count int             `json:"count"`
		}
		if resp.StatusCode != http.StatusOK {
			return resp.StatusCode, nil
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if body.Count != len(body.Jobs) {
			t.Fatalf("%s: count %d for %d jobs", query, body.Count, len(body.Jobs))
		}
		ids := make([]string, len(body.Jobs))
		for i, j := range body.Jobs {
			if j.Result != nil {
				t.Fatalf("%s: job %s listed with its result", query, j.ID)
			}
			ids[i] = j.ID
		}
		return resp.StatusCode, ids
	}
	for _, tc := range []struct {
		query string
		want  []string
	}{
		{"?limit=4", []string{running.ID, canceled.ID, failed.ID, done.ID}},
		{"?state=running", []string{running.ID}},
		{"?state=done&benchmark=gcc", []string{done.ID}},
		{"?state=failed", []string{failed.ID}},
		{"?state=canceled", []string{canceled.ID}},
		{"?kind=sweep", []string{canceled.ID, failed.ID}},
		{"?kind=pareto&benchmark=mcf", []string{running.ID}},
		{"?benchmark=gcc", []string{canceled.ID, done.ID}},
		{"?benchmark=doom", []string{}},
	} {
		status, got := list(tc.query)
		if status != http.StatusOK || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("GET /v1/jobs%s = %d %v, want 200 %v", tc.query, status, got, tc.want)
		}
	}
	for _, tc := range []struct {
		query string
		n     int
	}{
		{"", api.DefaultListLimit},
		{"?limit=7", 7},
		{"?limit=100000", api.MaxListLimit},
		{"?kind=pareto&limit=100000", api.MaxListLimit},
	} {
		if status, got := list(tc.query); status != http.StatusOK || len(got) != tc.n {
			t.Errorf("GET /v1/jobs%s = %d with %d jobs, want 200 with %d", tc.query, status, len(got), tc.n)
		}
	}
	for _, query := range []string{"?state=lost", "?kind=guided", "?limit=0", "?limit=-3", "?limit=ten"} {
		if status, _ := list(query); status != http.StatusBadRequest {
			t.Errorf("GET /v1/jobs%s = %d, want 400", query, status)
		}
	}
}
