package api

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestSanitizeRequestID(t *testing.T) {
	cases := map[string]string{
		"abc-123":   "abc-123",
		"":          "",
		"has space": "",
		"ctl\nchar": "",
		"quo\"te":   "",
	}
	for in, want := range cases {
		if got := SanitizeRequestID(in); got != want {
			t.Errorf("SanitizeRequestID(%q) = %q, want %q", in, got, want)
		}
	}
	long := make([]byte, maxRequestIDLen+1)
	for i := range long {
		long[i] = 'a'
	}
	if SanitizeRequestID(string(long)) != "" {
		t.Error("oversized request ID accepted")
	}
	if a, b := NewRequestID(), NewRequestID(); a == b {
		t.Error("minted request IDs collide")
	}
}

func TestNegotiable(t *testing.T) {
	req := func(accept string) *http.Request {
		r := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
		if accept != "" {
			r.Header.Set("Accept", accept)
		}
		return r
	}
	cases := []struct {
		accept, offer string
		want          bool
	}{
		{"", ContentJSON, true},
		{"*/*", ContentJSON, true},
		{"application/*", ContentNDJSON, true},
		{"application/json", ContentJSON, true},
		{"application/json; q=0.9, text/html", ContentJSON, true},
		{"text/html", ContentJSON, false},
		{"application/json", ContentNDJSON, true}, // NDJSON lines are JSON
		{"application/x-ndjson", ContentNDJSON, true},
		{"text/event-stream", ContentNDJSON, false},
	}
	for _, tc := range cases {
		if got := Negotiable(req(tc.accept), tc.offer); got != tc.want {
			t.Errorf("Negotiable(%q, %q) = %v, want %v", tc.accept, tc.offer, got, tc.want)
		}
	}
}

func TestCodeAndRetryable(t *testing.T) {
	if CodeForStatus(404) != CodeNotFound || CodeForStatus(500) != CodeInternal || CodeForStatus(429) != CodeTooManyJobs {
		t.Error("status → code mapping drifted")
	}
	for _, status := range []int{429, 502, 503, 504} {
		if !RetryableStatus(status) {
			t.Errorf("status %d should be retryable", status)
		}
	}
	for _, status := range []int{400, 404, 405, 500} {
		if RetryableStatus(status) {
			t.Errorf("status %d should not be retryable", status)
		}
	}
}

func TestJobLifecycle(t *testing.T) {
	m := NewManager(ManagerOptions{})
	release := make(chan struct{})
	job, err := m.Start(wire.JobPareto, "gcc", 100, func(ctx context.Context, pub Publisher) (any, Update, error) {
		pub.Publish(Update{Evaluated: 40})
		<-release
		return "result", Update{Evaluated: 100}, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Subscribers are primed with the latest snapshot.
	replay, ch, cancel := job.SubscribeFrom(-1)
	defer cancel()
	var u Update
	if len(replay) > 0 {
		u = replay[0]
	} else {
		u = <-ch
	}
	if u.Evaluated != 40 || u.State != StateRunning || u.Seq != 1 {
		t.Fatalf("primed snapshot wrong: %+v", u)
	}
	st := job.Status(false)
	if st.State != StateRunning || st.Evaluated != 40 || st.Designs != 100 {
		t.Fatalf("running status wrong: %+v", st)
	}
	close(release)
	<-job.Done()

	var final *Update
	for _, u := range drain(ch) {
		u := u
		final = &u
	}
	if final == nil || !final.Final || final.State != StateDone || final.Evaluated != 100 {
		t.Fatalf("terminal update wrong: %+v", final)
	}
	st = job.Status(true)
	if st.State != StateDone || st.Result != "result" || st.Error != nil {
		t.Fatalf("done status wrong: %+v", st)
	}

	// A post-completion subscriber still gets the final snapshot.
	replay2, ch2, cancel2 := job.SubscribeFrom(-1)
	defer cancel2()
	if len(replay2) != 1 || !replay2[0].Final {
		t.Fatalf("late subscriber got %+v, want the final update", replay2)
	}
	if _, ok := <-ch2; ok {
		t.Error("late subscriber's channel not closed after the final update")
	}
}

// drain reads a subscriber's channel until it closes.
func drain(ch <-chan Update) []Update {
	var out []Update
	for u := range ch {
		out = append(out, u)
	}
	return out
}

func TestJobFailureMapsStatus(t *testing.T) {
	sentinel := errors.New("unknown benchmark")
	m := NewManager(ManagerOptions{ErrorStatus: func(err error) int {
		if errors.Is(err, sentinel) {
			return http.StatusNotFound
		}
		return http.StatusInternalServerError
	}})
	job, err := m.Start(wire.JobSweep, "doom", 0, func(ctx context.Context, pub Publisher) (any, Update, error) {
		return nil, Update{}, sentinel
	})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	st := job.Status(true)
	if st.State != StateFailed || st.Error == nil {
		t.Fatalf("failed job status: %+v", st)
	}
	if st.Error.Status != http.StatusNotFound || st.Error.Code != CodeNotFound || st.Error.Retryable {
		t.Errorf("error body mapping wrong: %+v", st.Error)
	}
	if st.Result != nil {
		t.Error("failed job exposes a result")
	}
}

func TestJobPanicBecomesFailure(t *testing.T) {
	m := NewManager(ManagerOptions{})
	job, err := m.Start(wire.JobSweep, "gcc", 0, func(ctx context.Context, pub Publisher) (any, Update, error) {
		panic("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	st := job.Status(false)
	if st.State != StateFailed || st.Error == nil {
		t.Fatalf("panicking job did not fail cleanly: %+v", st)
	}
}

func TestCancelSettlesCanceled(t *testing.T) {
	m := NewManager(ManagerOptions{})
	job, err := m.Start(wire.JobPareto, "gcc", 0, func(ctx context.Context, pub Publisher) (any, Update, error) {
		<-ctx.Done()
		return nil, Update{}, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if st := job.Status(false); st.State != StateCanceled {
		t.Fatalf("cancelled job settled %q", st.State)
	}
	// Idempotent, and unknown IDs answer ErrUnknownJob.
	if _, err := m.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("cancelling unknown job: %v", err)
	}
}

// TestBaseContextShutdownCancelsJobs: cancelling the manager's base
// context (daemon shutdown) settles every running job "canceled" with a
// final update, instead of orphaning detached goroutines.
func TestBaseContextShutdownCancelsJobs(t *testing.T) {
	base, shutdown := context.WithCancel(context.Background())
	m := NewManager(ManagerOptions{BaseContext: base})
	job, err := m.Start(wire.JobPareto, "gcc", 0, func(ctx context.Context, pub Publisher) (any, Update, error) {
		<-ctx.Done()
		return nil, Update{}, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	replay, ch, cancel := job.SubscribeFrom(-1)
	defer cancel()
	shutdown()
	<-job.Done()
	if st := job.Status(false); st.State != StateCanceled {
		t.Fatalf("job settled %q on daemon shutdown, want canceled", st.State)
	}
	sawFinal := false
	for _, u := range append(replay, drain(ch)...) {
		if u.Final {
			sawFinal = true
		}
	}
	if !sawFinal {
		t.Error("shutdown did not publish a final update to subscribers")
	}
}

func TestTooManyJobs(t *testing.T) {
	m := NewManager(ManagerOptions{MaxRunning: 1})
	release := make(chan struct{})
	defer close(release)
	if _, err := m.Start(wire.JobSweep, "a", 0, func(ctx context.Context, pub Publisher) (any, Update, error) {
		<-release
		return nil, Update{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start(wire.JobSweep, "b", 0, func(ctx context.Context, pub Publisher) (any, Update, error) {
		return nil, Update{}, nil
	}); !errors.Is(err, ErrTooManyJobs) {
		t.Fatalf("second concurrent job: %v, want ErrTooManyJobs", err)
	}
}

func TestRetentionEviction(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	m := NewManager(ManagerOptions{Retention: time.Minute, Clock: clock})
	job, err := m.Start(wire.JobSweep, "a", 0, func(ctx context.Context, pub Publisher) (any, Update, error) {
		return nil, Update{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if _, err := m.Get(job.ID); err != nil {
		t.Fatalf("finished job evicted before retention: %v", err)
	}
	now = now.Add(2 * time.Minute)
	if _, err := m.Get(job.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("expired job still resolvable: %v", err)
	}
}

func TestSlowSubscriberCoalesces(t *testing.T) {
	m := NewManager(ManagerOptions{})
	const updates = 100
	release := make(chan struct{})
	job, err := m.Start(wire.JobPareto, "gcc", 0, func(ctx context.Context, pub Publisher) (any, Update, error) {
		<-release
		for i := 1; i <= updates; i++ {
			pub.Publish(Update{Evaluated: i})
		}
		return nil, Update{Evaluated: updates}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	replay, ch, cancel := job.SubscribeFrom(-1)
	defer cancel()
	close(release)
	<-job.Done()
	// The subscriber never read while the publisher raced ahead:
	// intermediates may be dropped, but the final update must survive
	// and evaluated counts must be nondecreasing.
	last, sawFinal := -1, false
	for _, u := range append(replay, drain(ch)...) {
		if u.Evaluated < last {
			t.Errorf("evaluated went backwards: %d after %d", u.Evaluated, last)
		}
		last = u.Evaluated
		if u.Final {
			sawFinal = true
		}
	}
	if !sawFinal {
		t.Error("slow subscriber lost the final update")
	}
	if last != updates {
		t.Errorf("last observed evaluated %d, want %d", last, updates)
	}
}

func TestNewErrorFormatsArgs(t *testing.T) {
	e := NewError(http.StatusBadRequest, "rid", "bad %s %d", "thing", 7)
	if e.Message != "bad thing 7" || e.Code != CodeBadRequest || e.RequestID != "rid" || e.Status != 400 {
		t.Errorf("NewError = %+v", e)
	}
	if fmt.Sprintf("%v", e.Retryable) != "false" {
		t.Errorf("400 marked retryable")
	}
}
