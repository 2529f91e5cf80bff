package api

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// steppedJob starts a job whose publishes are driven one at a time from
// the test: publish(u) returns only after the runner published it, and
// finish() lets the job complete. Tests can therefore read job state
// between steps without racing the runner goroutine.
func steppedJob(t *testing.T, start func(run RunFunc) (*Job, error)) (job *Job, publish func(Update), finish func()) {
	t.Helper()
	step := make(chan Update)
	published := make(chan struct{})
	job, err := start(func(ctx context.Context, pub Publisher) (any, Update, error) {
		for u := range step {
			pub.Publish(u)
			published <- struct{}{}
		}
		return "ok", Update{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	publish = func(u Update) {
		step <- u
		<-published
	}
	return job, publish, func() { close(step) }
}

// TestSubscribeFromReplaysDelta: a reader that saw updates through seq N
// and reconnects with from=N receives exactly the updates it missed, in
// order — no duplicates, no full-snapshot re-send.
func TestSubscribeFromReplaysDelta(t *testing.T) {
	m := NewManager(ManagerOptions{})
	job, publish, finish := steppedJob(t, func(run RunFunc) (*Job, error) {
		return m.Start(wire.JobPareto, "gcc", 100, run)
	})
	for i := 1; i <= 5; i++ {
		publish(Update{Evaluated: i * 10})
	}

	replay, ch, cancel := job.SubscribeFrom(2)
	defer cancel()
	if len(replay) != 3 {
		t.Fatalf("replay has %d updates, want 3 (seqs 3..5): %+v", len(replay), replay)
	}
	for i, u := range replay {
		if u.Seq != 3+i {
			t.Fatalf("replay[%d].Seq = %d, want %d", i, u.Seq, 3+i)
		}
		if u.Evaluated != (3+i)*10 {
			t.Fatalf("replay[%d].Evaluated = %d, want %d", i, u.Evaluated, (3+i)*10)
		}
	}

	// Live updates continue after the replayed ones with no gap.
	publish(Update{Evaluated: 60})
	select {
	case u := <-ch:
		if u.Seq != 6 {
			t.Fatalf("first live update has seq %d, want 6", u.Seq)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no live update after replay")
	}
	finish()
	<-job.Done()
}

// TestSubscribeFromPastHorizonFallsBackToSnapshot: when the requested
// seq predates the retained history ring, the replay degrades to the
// single latest cumulative snapshot — correct, just not a delta.
func TestSubscribeFromPastHorizonFallsBackToSnapshot(t *testing.T) {
	m := NewManager(ManagerOptions{})
	job, publish, finish := steppedJob(t, func(run RunFunc) (*Job, error) {
		return m.Start(wire.JobPareto, "gcc", 100, run)
	})
	total := historyCap + 20
	for i := 1; i <= total; i++ {
		publish(Update{Evaluated: i})
	}

	// from=2 fell off the ring (only the last historyCap survive).
	replay, _, cancel := job.SubscribeFrom(2)
	defer cancel()
	if len(replay) != 1 {
		t.Fatalf("past-horizon replay has %d updates, want 1 (latest snapshot)", len(replay))
	}
	if replay[0].Seq != total || replay[0].Evaluated != total {
		t.Fatalf("fallback snapshot is %+v, want seq %d", replay[0], total)
	}

	// A from inside the ring still gets the true delta.
	replay, _, cancel2 := job.SubscribeFrom(total - 3)
	defer cancel2()
	if len(replay) != 3 || replay[0].Seq != total-2 {
		t.Fatalf("in-ring replay wrong: %+v", replay)
	}
	finish()
	<-job.Done()
}

// TestSubscribeFromNegativeActsLikeFreshSubscribe: from=-1 (no prior
// stream position) primes a fresh reader with the latest snapshot alone.
func TestSubscribeFromNegativeActsLikeFreshSubscribe(t *testing.T) {
	m := NewManager(ManagerOptions{})
	job, publish, finish := steppedJob(t, func(run RunFunc) (*Job, error) {
		return m.Start(wire.JobPareto, "gcc", 50, run)
	})
	publish(Update{Evaluated: 10})
	publish(Update{Evaluated: 20})
	replay, _, cancel := job.SubscribeFrom(-1)
	defer cancel()
	if len(replay) != 1 || replay[0].Seq != 2 {
		t.Fatalf("negative-from replay is %+v, want just the latest snapshot", replay)
	}
	finish()
	<-job.Done()
}

// TestStartAdoptedContinuesSequence: an adopted job keeps the orphan's
// ID and starts its update sequence past the floor it is given, so a
// failed-over stream reader's dedup-by-seq logic never glitches.
func TestStartAdoptedContinuesSequence(t *testing.T) {
	m := NewManager(ManagerOptions{})
	job, publish, finish := steppedJob(t, func(run RunFunc) (*Job, error) {
		return m.StartAdopted("pareto-owner-1", wire.JobPareto, "gcc", 100, 7, run)
	})
	if job.ID != "pareto-owner-1" {
		t.Fatalf("adopted job has ID %q, want the orphan's", job.ID)
	}
	publish(Update{Evaluated: 80})
	replay, _, cancel := job.SubscribeFrom(-1)
	defer cancel()
	if len(replay) != 1 || replay[0].Seq != 8 {
		t.Fatalf("first adopted update has seq %d, want 8 (owner left off at 7)", replay[0].Seq)
	}
	if got := job.Status(false).Updates; got != 8 {
		t.Fatalf("status reports seq %d, want 8", got)
	}
	finish()
	<-job.Done()

	// The ID is taken while the job is retained: a second adoption of the
	// same orphan (two replicas racing) fails loudly.
	_, err := m.StartAdopted("pareto-owner-1", wire.JobPareto, "gcc", 100, 7, nil)
	if err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("duplicate adoption error = %v, want already-exists", err)
	}
	if _, err := m.StartAdopted("", wire.JobPareto, "gcc", 100, 0, nil); err == nil {
		t.Error("adoption without a job ID was accepted")
	}
}

// TestStartAdoptedBypassesAdmissionGate: a node saturated at MaxRunning
// must still rescue an orphan — adoption is not a submission.
func TestStartAdoptedBypassesAdmissionGate(t *testing.T) {
	m := NewManager(ManagerOptions{MaxRunning: 1})
	release := make(chan struct{})
	hold := func(ctx context.Context, pub Publisher) (any, Update, error) {
		<-release
		return nil, Update{}, nil
	}
	if _, err := m.Start(wire.JobPareto, "gcc", 10, hold); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start(wire.JobPareto, "gcc", 10, hold); err == nil {
		t.Fatal("second submission got past MaxRunning=1")
	}
	adopted, err := m.StartAdopted("orphan-1", wire.JobPareto, "gcc", 10, 0, hold)
	if err != nil {
		t.Fatalf("saturated node refused an adoption: %v", err)
	}
	close(release)
	<-adopted.Done()
}
