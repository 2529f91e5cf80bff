package dsedclient

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/wire"
)

// The client conformance suite: every contract the typed client makes —
// success decoding, structured-error decoding, retry on retryable,
// stream resume after a disconnect, job cancellation — proved against
// httptest daemons. End-to-end behaviour against the real serving layer
// lives in cmd/dsed's tests; here the daemon side is scripted so each
// contract is exercised in isolation.

func fastClient(base string) *Client {
	return New(base, WithRetries(3), WithBackoff(time.Millisecond))
}

func TestPredictSuccess(t *testing.T) {
	var gotPath string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotPath = r.URL.Path
		var req wire.PredictRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("daemon received undecodable body: %v", err)
		}
		json.NewEncoder(w).Encode(wire.PredictResponse{
			Benchmark: req.Benchmark, Metric: "CPI", Trace: []float64{1, 2}, Mean: 1.5, Worst: 2,
		})
	}))
	defer ts.Close()
	resp, err := fastClient(ts.URL).Predict(context.Background(), wire.PredictRequest{Benchmark: "gcc", Metric: "CPI"})
	if err != nil {
		t.Fatal(err)
	}
	if gotPath != "/v1/predict" {
		t.Errorf("predict hit %q, want /v1/predict", gotPath)
	}
	if resp.Benchmark != "gcc" || resp.Mean != 1.5 || len(resp.Trace) != 2 {
		t.Errorf("response decoded wrong: %+v", resp)
	}
}

func TestStructuredErrorDecode(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", api.ContentJSON)
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(api.ErrorEnvelope{Error: api.Error{
			Code: api.CodeNotFound, Message: "unknown benchmark \"doom\"",
			Retryable: false, RequestID: "req-123", Status: http.StatusNotFound,
		}})
	}))
	defer ts.Close()
	_, err := fastClient(ts.URL).Predict(context.Background(), wire.PredictRequest{Benchmark: "doom"})
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error %v is not an *APIError", err)
	}
	if ae.Code != api.CodeNotFound || ae.Status != 404 || ae.RequestID != "req-123" || ae.Retryable {
		t.Errorf("structured error decoded wrong: %+v", ae)
	}
	if IsRetryable(err) {
		t.Error("a 404 must not be retryable")
	}
}

// TestRetryOnRetryable: a daemon answering 503 retryable twice then 200
// succeeds transparently; a daemon answering 400 never retries.
func TestRetryOnRetryable(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(api.ErrorEnvelope{Error: api.Error{
				Code: api.CodeUnavailable, Message: "fleet mid-churn", Retryable: true, Status: 503,
			}})
			return
		}
		json.NewEncoder(w).Encode(wire.WarmResponse{Benchmarks: []string{"gcc"}, Trainings: 1})
	}))
	defer ts.Close()
	resp, err := fastClient(ts.URL).Warm(context.Background(), []string{"gcc"})
	if err != nil {
		t.Fatalf("retryable failures were not retried: %v", err)
	}
	if resp.Trainings != 1 || calls.Load() != 3 {
		t.Errorf("warm = %+v after %d calls, want success on call 3", resp, calls.Load())
	}

	calls.Store(0)
	ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(api.ErrorEnvelope{Error: api.Error{
			Code: api.CodeBadRequest, Message: "no", Status: 400,
		}})
	}))
	defer ts2.Close()
	if _, err := fastClient(ts2.URL).Warm(context.Background(), []string{"gcc"}); err == nil {
		t.Fatal("a 400 verdict must surface")
	}
	if calls.Load() != 1 {
		t.Errorf("a deterministic 400 was retried (%d calls)", calls.Load())
	}
}

// TestGetRotatesOnNotFoundAcrossPeers: against a multi-endpoint fleet a
// GET's 404 burns a retry on the next peer — during the adoption window
// after an owner dies, "not here" does not mean "nowhere". A POST's 404
// and any single-endpoint 404 stay immediate verdicts.
func TestGetRotatesOnNotFoundAcrossPeers(t *testing.T) {
	notFound := func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(api.ErrorEnvelope{Error: api.Error{
			Code: api.CodeNotFound, Message: "api: unknown job", Status: 404,
		}})
	}
	var aCalls, bCalls atomic.Int64
	peerA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		aCalls.Add(1)
		notFound(w, r)
	}))
	defer peerA.Close()
	peerB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		bCalls.Add(1)
		json.NewEncoder(w).Encode(api.JobStatus{ID: "job-1", State: api.StateDone})
	}))
	defer peerB.Close()

	st, err := fastClient(peerA.URL+","+peerB.URL).Job(context.Background(), "job-1")
	if err != nil {
		t.Fatalf("GET did not fail over past the 404 peer: %v", err)
	}
	if st.ID != "job-1" || aCalls.Load() != 1 || bCalls.Load() != 1 {
		t.Errorf("status %+v after A=%d B=%d calls; want one 404 on A, answer from B",
			st, aCalls.Load(), bCalls.Load())
	}

	aCalls.Store(0)
	if _, err := fastClient(peerA.URL).Job(context.Background(), "job-1"); err == nil {
		t.Fatal("single-endpoint 404 must surface")
	}
	if aCalls.Load() != 1 {
		t.Errorf("single-endpoint 404 was retried (%d calls)", aCalls.Load())
	}

	aCalls.Store(0)
	bCalls.Store(0)
	if _, err := fastClient(peerA.URL+","+peerB.URL).Warm(context.Background(), []string{"gcc"}); err == nil {
		t.Fatal("a POST's 404 must surface, not rotate")
	}
	if aCalls.Load() != 1 || bCalls.Load() != 0 {
		t.Errorf("POST 404: A=%d B=%d calls, want a single verdict from A", aCalls.Load(), bCalls.Load())
	}
}

// streamScript serves GET /v1/jobs/test/stream from a script of
// per-connection update batches; a batch ending with abort kills the
// connection mid-stream.
type streamScript struct {
	t        *testing.T
	conns    atomic.Int64
	batches  [][]api.Update
	abortAll bool
}

func (s *streamScript) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := int(s.conns.Add(1)) - 1
	if n >= len(s.batches) {
		s.t.Errorf("unexpected stream connection %d", n+1)
		panic(http.ErrAbortHandler)
	}
	w.Header().Set("Content-Type", api.ContentNDJSON)
	enc := json.NewEncoder(w)
	for _, u := range s.batches[n] {
		if err := enc.Encode(u); err != nil {
			s.t.Errorf("encoding scripted update: %v", err)
		}
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	last := n == len(s.batches)-1
	if !last || s.abortAll {
		panic(http.ErrAbortHandler) // die mid-stream; the client must resume
	}
}

// TestStreamResumeAfterDisconnect: the first connection delivers one
// partial and dies; the resumed connection replays the latest snapshot
// (which the client de-dupes) and finishes. The consumer sees each
// update exactly once and then io.EOF.
func TestStreamResumeAfterDisconnect(t *testing.T) {
	final := api.Update{JobID: "test", Seq: 3, State: api.StateDone, Evaluated: 100, Final: true,
		Candidates: []wire.Candidate{{Scores: []float64{1, 2}}}}
	script := &streamScript{t: t, batches: [][]api.Update{
		{{JobID: "test", Seq: 1, State: api.StateRunning, Evaluated: 40}},
		{{JobID: "test", Seq: 1, State: api.StateRunning, Evaluated: 40}, // replayed snapshot
			{JobID: "test", Seq: 2, State: api.StateRunning, Evaluated: 80},
			final},
	}}
	ts := httptest.NewServer(script)
	defer ts.Close()

	st := fastClient(ts.URL).Stream(context.Background(), "test")
	var got []api.Update
	for {
		u, err := st.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("stream failed despite resumability: %v", err)
		}
		got = append(got, *u)
	}
	if len(got) != 3 {
		t.Fatalf("consumer saw %d updates, want 3 (de-duplicated across the reconnect): %+v", len(got), got)
	}
	for i, u := range got {
		if u.Seq != i+1 {
			t.Errorf("update %d has seq %d, want %d", i, u.Seq, i+1)
		}
	}
	if !got[2].Final || got[2].Evaluated != 100 || len(got[2].Candidates) != 1 {
		t.Errorf("final update mangled: %+v", got[2])
	}
	if script.conns.Load() != 2 {
		t.Errorf("stream used %d connections, want 2", script.conns.Load())
	}
}

// TestStreamGivesUp: a stream dying on every connection eventually
// surfaces the error instead of reconnecting forever.
func TestStreamGivesUp(t *testing.T) {
	script := &streamScript{t: t, abortAll: true, batches: [][]api.Update{{}, {}, {}, {}, {}, {}, {}, {}}}
	ts := httptest.NewServer(script)
	defer ts.Close()
	st := New(ts.URL, WithRetries(2), WithBackoff(time.Millisecond)).Stream(context.Background(), "test")
	if _, err := st.Next(); err == nil {
		t.Fatal("a permanently dead stream must error")
	}
	if script.conns.Load() > 4 {
		t.Errorf("client opened %d connections, want at most 1 + retries + 1", script.conns.Load())
	}
}

// fakeJobDaemon scripts the submit/stream/cancel routes of a daemon for
// the cancellation contract.
type fakeJobDaemon struct {
	cancelled atomic.Bool
}

func (d *fakeJobDaemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/pareto", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(api.JobStatus{ID: "pareto-1", Kind: wire.JobPareto, State: api.StateRunning})
	})
	mux.HandleFunc("GET /v1/jobs/pareto-1/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", api.ContentNDJSON)
		json.NewEncoder(w).Encode(api.Update{JobID: "pareto-1", Seq: 1, State: api.StateRunning})
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		<-r.Context().Done() // never finishes on its own
	})
	mux.HandleFunc("DELETE /v1/jobs/pareto-1", func(w http.ResponseWriter, r *http.Request) {
		d.cancelled.Store(true)
		json.NewEncoder(w).Encode(api.JobStatus{ID: "pareto-1", State: api.StateCanceled})
	})
	return mux
}

// TestJobCancel covers both cancellation surfaces: the explicit Cancel
// call, and Run cancelling the daemon-side job when the caller's
// context dies mid-stream.
func TestJobCancel(t *testing.T) {
	d := &fakeJobDaemon{}
	ts := httptest.NewServer(d.handler())
	defer ts.Close()
	c := fastClient(ts.URL)

	st, err := c.Cancel(context.Background(), "pareto-1")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateCanceled || !d.cancelled.Load() {
		t.Errorf("explicit cancel: state %q, daemon saw DELETE: %v", st.State, d.cancelled.Load())
	}

	d.cancelled.Store(false)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, _, err = c.Run(ctx, wire.ParetoRequest{Benchmark: "gcc", Objectives: []wire.ObjectiveSpec{{Metric: "CPI"}}}, nil)
	if err == nil {
		t.Fatal("a cancelled Run must error")
	}
	// The detached DELETE is fired asynchronously to the caller's dead
	// context; give it a moment.
	deadline := time.Now().Add(2 * time.Second)
	for !d.cancelled.Load() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !d.cancelled.Load() {
		t.Error("abandoning the stream did not cancel the daemon-side job")
	}
}

// Benchmarks GETs /v1/benchmarks and decodes the daemon's inventory:
// trained benchmarks, those it would train on demand, and the metrics
// it serves.
func TestBenchmarks(t *testing.T) {
	var method, path string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		method, path = r.Method, r.URL.Path
		w.Header().Set("Content-Type", api.ContentJSON)
		io.WriteString(w, `{"trained":["gcc"],"trainable_on_demand":["mcf","twolf"],"metrics":["CPI","Power"]}`)
	}))
	defer ts.Close()
	got, err := fastClient(ts.URL).Benchmarks(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if method != http.MethodGet || path != "/v1/benchmarks" {
		t.Errorf("Benchmarks sent %s %s, want GET /v1/benchmarks", method, path)
	}
	want := &BenchmarksResponse{Trained: []string{"gcc"}, TrainableOnDemand: []string{"mcf", "twolf"}, Metrics: []string{"CPI", "Power"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Benchmarks decoded %+v, want %+v", got, want)
	}
}
