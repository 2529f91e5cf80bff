package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/space"
	"repro/internal/wire"
)

// fakeModel is a deterministic, metric-dependent predictor: the trace is a
// pure function of the config vector, so every worker agrees and sweeps
// are reproducible.
type fakeModel struct{ phase float64 }

func (m fakeModel) Predict(cfg space.Config) []float64 {
	v := cfg.Vector()
	out := make([]float64, 8)
	for i := range out {
		s := m.phase
		for j, x := range v {
			s += x * math.Sin(float64(i+j)+m.phase)
		}
		out[i] = 1 + math.Abs(s)
	}
	return out
}

// resolveFake serves a fakeModel per metric for the "gcc" benchmark only.
func resolveFake(_ context.Context, benchmark, metric string) (core.DynamicsModel, error) {
	if benchmark != "gcc" {
		return nil, fmt.Errorf("unknown benchmark %q", benchmark)
	}
	switch metric {
	case "CPI":
		return fakeModel{phase: 0.3}, nil
	case "Power":
		return fakeModel{phase: 1.7}, nil
	}
	return nil, fmt.Errorf("unknown metric %q", metric)
}

func testDesigns(n int) []space.Config {
	return space.SampleDesign(n, space.TrainLevels(), space.Baseline(), 2, mathx.NewRNG(3))
}

func testQuery() Query {
	return Query{
		Benchmark:  "gcc",
		Objectives: []wire.ObjectiveSpec{{Metric: "CPI"}, {Metric: "Power", Kind: "worst"}},
	}
}

// singleProcessReference computes the undistributed answer.
func singleProcessReference(t *testing.T, designs []space.Config) *explore.Result {
	t.Helper()
	cpi, _ := resolveFake(context.Background(), "gcc", "CPI")
	pow, _ := resolveFake(context.Background(), "gcc", "Power")
	obj0, _ := (wire.ObjectiveSpec{Metric: "CPI"}).Build()
	obj1, _ := (wire.ObjectiveSpec{Metric: "Power", Kind: "worst"}).Build()
	res, err := explore.SweepContext(context.Background(), designs, []core.DynamicsModel{cpi, pow}, []explore.Objective{obj0, obj1}, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func candKeys(cands []explore.Candidate) []string {
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = fmt.Sprintf("%v|%v", c.Config.SweptValues(), c.Scores)
	}
	sort.Strings(out)
	return out
}

// workerCount reads one worker's fault-taxonomy counter, e.g.
// "failures" for dsed_cluster_worker_failures_total{worker=name}.
func workerCount(reg *obs.Registry, column, name string) int64 {
	return reg.Counter("dsed_cluster_worker_"+column+"_total", "", obs.Label{Key: "worker", Value: name}).Value()
}

func newTestCoordinator(t *testing.T, workers []Transport, opts Options) *Coordinator {
	t.Helper()
	c, err := New(workers, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func localFleet(n int) []Transport {
	out := make([]Transport, n)
	for i := range out {
		out[i] = NewLocal(fmt.Sprintf("local-%d", i), resolveFake)
	}
	return out
}

func TestCoordinatorParetoMatchesSingleProcess(t *testing.T) {
	designs := testDesigns(500)
	want := singleProcessReference(t, designs)

	coord := newTestCoordinator(t, localFleet(3), Options{ShardSize: 64})
	got, err := coord.ParetoObserved(context.Background(), testQuery(), designs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Evaluated != len(designs) {
		t.Fatalf("evaluated %d designs, want %d", got.Evaluated, len(designs))
	}
	if got.Shards != (len(designs)+63)/64 {
		t.Errorf("ran %d shards, want %d", got.Shards, (len(designs)+63)/64)
	}
	wantKeys, gotKeys := candKeys(want.Frontier), candKeys(got.Frontier)
	if len(wantKeys) != len(gotKeys) {
		t.Fatalf("distributed frontier has %d points, single-process %d", len(gotKeys), len(wantKeys))
	}
	for i := range wantKeys {
		if wantKeys[i] != gotKeys[i] {
			t.Fatalf("frontier mismatch at %d:\n  got  %s\n  want %s", i, gotKeys[i], wantKeys[i])
		}
	}
}

func TestCoordinatorSweepMatchesSingleProcess(t *testing.T) {
	designs := testDesigns(400)
	q := testQuery()
	q.Kind = wire.JobSweep
	q.TopK = 7
	q.Constraints = []explore.Constraint{{Objective: 1, Max: 12}}

	single := explore.NewTopK(q.TopK, 0, q.Constraints)
	ref := singleProcessReference(t, designs)
	for i, c := range ref.Evaluated {
		single.Collect(i, c)
	}

	coord := newTestCoordinator(t, localFleet(4), Options{ShardSize: 32})
	got, err := coord.Run(context.Background(), q, len(designs), designs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Evaluated != len(designs) {
		t.Fatalf("evaluated %d, want %d", got.Evaluated, len(designs))
	}
	if got.Feasible != single.Feasible() {
		t.Fatalf("feasible %d, want %d", got.Feasible, single.Feasible())
	}
	wantCands := single.Results()
	if len(got.Candidates) != len(wantCands) {
		t.Fatalf("kept %d candidates, want %d", len(got.Candidates), len(wantCands))
	}
	// Scores must match rank for rank (configs can differ only on exact
	// score ties, which the deterministic fake does not produce here).
	for i := range wantCands {
		for j := range wantCands[i].Scores {
			if got.Candidates[i].Scores[j] != wantCands[i].Scores[j] {
				t.Fatalf("rank %d objective %d: got %v, want %v",
					i, j, got.Candidates[i].Scores[j], wantCands[i].Scores[j])
			}
		}
	}
}

// TestLocalStallStopsAtCancel: a straggling Local holds each sweep
// worker Stall per covered design after every chunk, but a cancelled
// shard (a lost hedge, a cancelled job) stops waiting at once, returns
// the context's error and still observes the chunk it stalled after.
func TestLocalStallStopsAtCancel(t *testing.T) {
	local := NewLocal("slow", resolveFake)
	local.Workers = 1
	local.Stall = time.Hour
	var chunks atomic.Int64
	local.ChunkDone = func(int, int, time.Duration) { chunks.Add(1) }
	q := testQuery()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	models, objectives, err := q.Resolve(ctx, nil, resolveFake)
	if err != nil {
		t.Fatal(err)
	}
	col := q.NewCollector()
	done := make(chan error, 1)
	go func() {
		done <- local.Sweep(ctx, q, Shard{Count: 64, Designs: testDesigns(64)}, models, objectives, col)
	}()
	// The collector takes a chunk before its worker stalls.
	for deadline := time.Now().Add(5 * time.Second); col.Seen() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first chunk never reached the collector")
		}
	}
	cancel()
	start := time.Now()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled straggler returned %v, want context.Canceled", err)
		}
		if d := time.Since(start); d > 50*time.Millisecond {
			t.Errorf("cancelled straggler returned %v after cancel, want within 50ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a cancelled straggler kept stalling")
	}
	if chunks.Load() == 0 {
		t.Error("the stalled chunk was never observed")
	}
}

// TestLocalWindowShardsMatchPinnedShards: a named space's shards reach
// Local as design-less windows and run through SweepWindow. Each window
// shard's partial must equal the pinned shard's over the same designs,
// and a fleet job carved by count alone must answer exactly
// what the pinned job does.
func TestLocalWindowShardsMatchPinnedShards(t *testing.T) {
	ctx := context.Background()
	q := testQuery()
	q.TopK = 9 // a top-K query; the frontier ignores it
	q.Constraints = []explore.Constraint{{Objective: 1, Max: 12}}
	q.Space = wire.SpaceSpec{Space: "test", Offset: 100, Count: 3000}
	w, ok := q.Space.FactorialWindow()
	if !ok {
		t.Fatal("named space has no factorial window")
	}
	designs := w.Designs()
	local := NewLocal("local", resolveFake)
	local.Workers = 1
	for _, s := range []Shard{{Start: 0, Count: 3000}, {Start: 517, Count: 1031}, {Start: 2999, Count: 1}} {
		pinned := s
		pinned.Designs = designs[s.Start : s.Start+s.Count]
		for _, kind := range []wire.JobKind{wire.JobPareto, wire.JobSweep} {
			q.Kind = kind
			got, err := local.Evaluate(ctx, q, s)
			if err != nil {
				t.Fatal(err)
			}
			want, err := local.Evaluate(ctx, q, pinned)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s shard [%d,+%d): window partial differs from the pinned one", kind, s.Start, s.Count)
			}
		}
	}
	if _, err := local.Evaluate(ctx, testQuery(), Shard{Count: 10}); err == nil {
		t.Error("a design-less shard of a pinned space was accepted")
	}

	coord := newTestCoordinator(t, localFleet(3), Options{ShardSize: 256})
	pinnedQ := q
	pinnedQ.Space = wire.SpaceSpec{}
	for _, kind := range []wire.JobKind{wire.JobPareto, wire.JobSweep} {
		q.Kind, pinnedQ.Kind = kind, kind
		got, err := coord.Run(ctx, q, len(designs), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := coord.Run(ctx, pinnedQ, len(designs), designs, nil)
		if err != nil {
			t.Fatal(err)
		}
		// A top K is ranked, so it must match rank for rank and Config
		// for Config; a frontier is a set.
		same := reflect.DeepEqual(got.Candidates, want.Candidates)
		if kind == wire.JobPareto {
			same = reflect.DeepEqual(candKeys(got.Candidates), candKeys(want.Candidates))
		}
		if got.Evaluated != want.Evaluated || got.Feasible != want.Feasible || !same {
			t.Errorf("windowed fleet %s answer differs from the pinned fleet's", kind)
		}
	}
}

// flaky wraps a Transport and fails its first n shard calls.
type flaky struct {
	Transport
	remaining atomic.Int64
}

func (f *flaky) fail() bool { return f.remaining.Add(-1) >= 0 }

func (f *flaky) Evaluate(ctx context.Context, q Query, s Shard) (*Partial, error) {
	if f.fail() {
		return nil, errors.New("injected worker failure")
	}
	return f.Transport.Evaluate(ctx, q, s)
}

// TestCoordinatorRetriesFailedShards: a worker failing mid-sweep loses no
// designs — its shards re-dispatch to the rest of the fleet and the
// answer still equals the single-process frontier.
func TestCoordinatorRetriesFailedShards(t *testing.T) {
	designs := testDesigns(300)
	want := singleProcessReference(t, designs)

	bad := &flaky{Transport: NewLocal("flaky", resolveFake)}
	bad.remaining.Store(5)
	fleet := []Transport{NewLocal("steady", resolveFake), bad}
	reg := obs.NewRegistry(nil)
	coord := newTestCoordinator(t, fleet, Options{ShardSize: 16, Obs: reg})

	got, err := coord.ParetoObserved(context.Background(), testQuery(), designs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Evaluated != len(designs) {
		t.Fatalf("evaluated %d designs, want %d (retries must not drop shards)", got.Evaluated, len(designs))
	}
	if got.Retries == 0 {
		t.Fatal("flaky worker produced no retries — fault injection did not engage")
	}
	wantKeys, gotKeys := candKeys(want.Frontier), candKeys(got.Frontier)
	if len(wantKeys) != len(gotKeys) {
		t.Fatalf("frontier has %d points after retries, want %d", len(gotKeys), len(wantKeys))
	}
	for i := range wantKeys {
		if wantKeys[i] != gotKeys[i] {
			t.Fatalf("frontier differs after retries at %d", i)
		}
	}
	// The per-worker series remember who failed.
	if workerCount(reg, "failures", "flaky") == 0 {
		t.Error("health report does not attribute failures to the flaky worker")
	}
}

// dead always fails.
type dead struct{ name string }

func (d dead) Name() string { return d.name }
func (d dead) Warm(context.Context, []string) (int, error) {
	return 0, errors.New("dead")
}
func (d dead) Evaluate(context.Context, Query, Shard) (*Partial, error) {
	return nil, errors.New("dead")
}

// TestCoordinatorFailsWhenFleetExhausted: a shard rejected by every worker
// fails the sweep with a diagnosable error instead of a silent hole.
func TestCoordinatorFailsWhenFleetExhausted(t *testing.T) {
	coord := newTestCoordinator(t, []Transport{dead{"a"}, dead{"b"}}, Options{ShardSize: 8})
	_, err := coord.ParetoObserved(context.Background(), testQuery(), testDesigns(20), nil)
	if err == nil {
		t.Fatal("sweep over an all-dead fleet returned no error")
	}
	if !strings.Contains(err.Error(), "failed on all 2 workers") {
		t.Fatalf("error does not name the exhausted fleet: %v", err)
	}
}

// rejecting answers every sweep call with a deterministic 4xx verdict.
type rejecting struct {
	name  string
	calls atomic.Int64
}

func (r *rejecting) Name() string { return r.name }
func (r *rejecting) Warm(context.Context, []string) (int, error) {
	return 0, nil
}
func (r *rejecting) reject() (*Partial, error) {
	r.calls.Add(1)
	return nil, &WorkerRejection{Worker: r.name, Status: 404, Msg: "unknown benchmark"}
}
func (r *rejecting) Evaluate(context.Context, Query, Shard) (*Partial, error) { return r.reject() }

// TestCoordinatorDoesNotRetryRejections: a worker's 4xx verdict on the
// request is final — no fleet-wide retries, no failures booked against
// healthy workers, and the rejection surfaces to the caller.
func TestCoordinatorDoesNotRetryRejections(t *testing.T) {
	rej := &rejecting{name: "judge"}
	reg := obs.NewRegistry(nil)
	coord := newTestCoordinator(t, []Transport{rej}, Options{ShardSize: 8, Obs: reg})
	_, err := coord.ParetoObserved(context.Background(), testQuery(), testDesigns(40), nil)
	var wr *WorkerRejection
	if !errors.As(err, &wr) {
		t.Fatalf("rejection did not surface: %v", err)
	}
	if n := reg.Counter("dsed_cluster_shard_retries_total", "").Value(); n != 0 {
		t.Errorf("rejections booked %d retries, want 0", n)
	}
	// The first rejection aborts the run, so the worker sees at least one
	// call but nowhere near one per shard ad infinitum — and none twice.
	if got := rej.calls.Load(); got < 1 || got > 5 {
		t.Errorf("rejecting worker saw %d calls, want 1..5 (no retries, early abort)", got)
	}
	// A rejection is accounted in its own column — visible to operators,
	// never confused with a transport failure.
	if n := workerCount(reg, "failures", "judge"); n != 0 {
		t.Errorf("rejections booked %d failures against judge, want 0", n)
	}
	if workerCount(reg, "rejections", "judge") == 0 {
		t.Error("the worker's 4xx verdicts were not counted as rejections")
	}
}

// blocking parks every call until its context dies.
type blocking struct{ name string }

func (b blocking) Name() string                                { return b.name }
func (b blocking) Warm(context.Context, []string) (int, error) { return 0, nil }
func (b blocking) wait(ctx context.Context) (*Partial, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}
func (b blocking) Evaluate(ctx context.Context, _ Query, _ Shard) (*Partial, error) {
	return b.wait(ctx)
}

// TestCoordinatorCancellation: cancelling the caller's context aborts a
// distributed sweep promptly with the context's error, not a worker blame.
func TestCoordinatorCancellation(t *testing.T) {
	coord := newTestCoordinator(t, []Transport{blocking{"slow-a"}, blocking{"slow-b"}}, Options{ShardSize: 4})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := coord.ParetoObserved(ctx, testQuery(), testDesigns(64), nil)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled sweep did not return")
	}
}

// TestCoordinatorWarmPlacement: Warm sends every benchmark to every
// live worker, once each, so placement can put a shard anywhere without
// training on demand.
func TestCoordinatorWarmPlacement(t *testing.T) {
	var calls [3]atomic.Int64
	warmed := make([]chan []string, 3)
	fleet := make([]Transport, 3)
	for i := range fleet {
		i := i
		warmed[i] = make(chan []string, 8)
		l := NewLocal(fmt.Sprintf("w%d", i), resolveFake)
		l.WarmFunc = func(_ context.Context, benchmarks []string) (int, error) {
			calls[i].Add(1)
			warmed[i] <- benchmarks
			return len(benchmarks), nil
		}
		fleet[i] = l
	}
	coord := newTestCoordinator(t, fleet, Options{})
	benchmarks := []string{"gcc", "mcf", "twolf", "gap", "art", "ammp"}
	res := coord.Warm(context.Background(), benchmarks)
	if len(res.Errors) != 0 {
		t.Fatal(res.Errors)
	}
	if res.Workers != len(fleet) {
		t.Errorf("warm asked %d workers, want the whole fleet of %d", res.Workers, len(fleet))
	}
	if res.Trainings != len(fleet)*len(benchmarks) {
		t.Errorf("warm reported %d trainings, want %d (fleet-wide sum)", res.Trainings, len(fleet)*len(benchmarks))
	}
	for i := range warmed {
		close(warmed[i])
		if n := calls[i].Load(); n != 1 {
			t.Errorf("w%d warmed %d times, want once", i, n)
		}
		for list := range warmed[i] {
			if !reflect.DeepEqual(list, benchmarks) {
				t.Errorf("w%d warmed %v, want every benchmark %v", i, list, benchmarks)
			}
		}
	}
}

// counting wraps a Transport and counts its sweep calls.
type counting struct {
	Transport
	calls atomic.Int64
}

func (c *counting) Evaluate(ctx context.Context, q Query, s Shard) (*Partial, error) {
	c.calls.Add(1)
	return c.Transport.Evaluate(ctx, q, s)
}

func TestNewRejectsBadFleets(t *testing.T) {
	// An empty fleet is legal: a peer's fleet source reports nobody
	// before gossip converges. Sweeps against it fail cleanly.
	empty, err := New(nil, Options{})
	if err != nil {
		t.Fatalf("empty fleet rejected: %v", err)
	}
	if _, err := empty.ParetoObserved(context.Background(), testQuery(), testDesigns(8), nil); err == nil {
		t.Error("sweep over an empty fleet returned no error")
	}
	dup := []Transport{NewLocal("same", resolveFake), NewLocal("same", resolveFake)}
	if _, err := New(dup, Options{}); err == nil {
		t.Error("duplicate worker names accepted")
	}
}

// widened answers its first shard with candidates carrying one score
// more than the query has objectives — a worker running other code.
// Named like TestCoordinatorRetriesFailedShards's flaky worker, it sorts
// before "steady", so the first placement's deal hands it the first
// shard.
type widened struct {
	Transport
	remaining atomic.Int64
}

func (w *widened) widen(p *Partial, err error) (*Partial, error) {
	if err == nil && w.remaining.Add(-1) >= 0 {
		for i := range p.Candidates {
			p.Candidates[i].Scores = append(p.Candidates[i].Scores, 0)
		}
	}
	return p, err
}

func (w *widened) Evaluate(ctx context.Context, q Query, s Shard) (*Partial, error) {
	return w.widen(w.Transport.Evaluate(ctx, q, s))
}

// TestCoordinatorRedispatchesMalformedPartials: a partial whose
// candidates do not carry one score per objective is a worker fault,
// re-dispatched like a failed attempt, never merged — merging it would
// index past the other candidates' scores on a dispatcher goroutine.
func TestCoordinatorRedispatchesMalformedPartials(t *testing.T) {
	designs := testDesigns(300)
	want := singleProcessReference(t, designs)
	bad := &widened{Transport: NewLocal("flaky", resolveFake)}
	bad.remaining.Store(1)
	reg := obs.NewRegistry(nil)
	coord := newTestCoordinator(t, []Transport{NewLocal("steady", resolveFake), bad}, Options{ShardSize: 16, Obs: reg})

	got, err := coord.ParetoObserved(context.Background(), testQuery(), designs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Evaluated != len(designs) {
		t.Fatalf("evaluated %d designs, want %d", got.Evaluated, len(designs))
	}
	if !reflect.DeepEqual(candKeys(got.Frontier), candKeys(want.Frontier)) {
		t.Error("frontier differs from the single-process answer")
	}
	if n := workerCount(reg, "failures", "flaky"); n != 1 {
		t.Errorf("widened worker booked %d failures, want 1", n)
	}
}
