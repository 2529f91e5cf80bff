package cluster

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"
)

// liveFleet is a fleet source a test edits while sweeps run.
type liveFleet struct {
	mu      sync.Mutex
	members []Member
}

func (f *liveFleet) read() []Member {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.members)
}

// add puts a worker in the fleet, or replaces its advert.
func (f *liveFleet) add(m Member) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.members = slices.DeleteFunc(f.members, func(o Member) bool { return o.Name() == m.Name() })
	f.members = append(f.members, m)
}

func (f *liveFleet) remove(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.members = slices.DeleteFunc(f.members, func(o Member) bool { return o.Name() == name })
}

// stateOf reads one worker's scheduler state (nil when the coordinator
// tracks none for it).
func stateOf(c *Coordinator, name string) *worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[name]; ok {
		cp := *w
		return &cp
	}
	return nil
}

// stateFor reads the fleet once, as a placement does, and returns
// name's scheduler state. Callers hold c.mu.
func stateFor(c *Coordinator, name string) *worker {
	c.trackLocked(c.fleet())
	return c.workers[name]
}

// TestMembershipLifecycle walks one worker through the fleet source:
// it becomes schedulable with its advertised capacity and inventory the
// moment the source reports it, follows a changed advert at the next
// placement, stops being placed on once the source drops it, and
// returns cold.
func TestMembershipLifecycle(t *testing.T) {
	fleet := &liveFleet{}
	coord := NewFleet(fleet.read, Options{ShardSize: 8})
	cv := &carver{n: 128, pinned: testDesigns(128)}
	if _, m, _ := coord.nextAssignment(cv, "gcc"); m != nil {
		t.Fatalf("empty fleet placed a shard on %s", m.name)
	}

	fleet.add(Member{Transport: NewLocal("w0", resolveFake), Capacity: 3, Benchmarks: []string{"gcc"}})
	fleet.add(Member{Transport: NewLocal("w1", resolveFake), Capacity: 3})
	var names []string
	for i := 0; i < 4; i++ {
		_, m, ok := coord.nextAssignment(cv, "gcc")
		if !ok || m == nil {
			t.Fatalf("shard %d found no worker", i)
		}
		names = append(names, m.name)
	}
	// The model holder's three advertised slots, then the spill.
	if want := []string{"w0", "w0", "w0", "w1"}; !slices.Equal(names, want) {
		t.Fatalf("placements %v, want %v", names, want)
	}

	// A changed advert applies at the next read: w1 now holds the
	// models, w0 none, so the next shard (w1 has a free slot) is w1's.
	fleet.add(Member{Transport: NewLocal("w0", resolveFake), Capacity: 3})
	fleet.add(Member{Transport: NewLocal("w1", resolveFake), Capacity: 3, Benchmarks: []string{"gcc"}})
	if _, m, _ := coord.nextAssignment(cv, "gcc"); m == nil || m.name != "w1" {
		t.Fatalf("after the inventory moved the shard went to %+v, want w1", m)
	}

	// Settle everything, then w0 leaves: it takes no shard, and its
	// idle state is dropped at the next read.
	for _, name := range []string{"w0", "w0", "w0", "w1", "w1"} {
		coord.observe(coord.workers[name], 8, time.Millisecond)
	}
	fleet.remove("w0")
	for i := 0; i < 2; i++ {
		if _, m, _ := coord.nextAssignment(cv, "gcc"); m == nil || m.name != "w1" {
			t.Fatalf("shard after w0 left went to %+v, want w1", m)
		}
	}
	if st := stateOf(coord, "w0"); st != nil {
		t.Fatalf("departed idle worker's state survived: %+v", st)
	}

	// Back again: schedulable at once, and cold.
	fleet.add(Member{Transport: NewLocal("w0", resolveFake), Capacity: 3, Benchmarks: []string{"gcc"}})
	if _, m, _ := coord.nextAssignment(cv, "gcc"); m == nil || m.name != "w0" {
		t.Fatalf("returning model holder not placed on: %+v", m)
	}
	if st := stateOf(coord, "w0"); st.ewmaPerDesignMS != 0 {
		t.Fatalf("returning worker did not start cold: %+v", st)
	}
}

// TestStaticMembersNeverExpire: New's fleet is fixed — its workers stay
// schedulable however long they go without any refresh.
func TestStaticMembersNeverExpire(t *testing.T) {
	coord := newTestCoordinator(t, localFleet(2), Options{})
	if got := len(coord.fleet()); got != 2 {
		t.Fatalf("initial members = %d, want 2", got)
	}
	if _, err := coord.ParetoObserved(context.Background(), testQuery(), testDesigns(64), nil); err != nil {
		t.Fatal(err)
	}
	if got := len(coord.fleet()); got != 2 {
		t.Fatalf("members without refreshes dropped to %d", got)
	}
	for _, name := range []string{"local-0", "local-1"} {
		if stateOf(coord, name) == nil {
			t.Errorf("static worker %s has no scheduler state after a sweep", name)
		}
	}
}

// TestAffinityRoutesToModelHolder is the acceptance-criterion affinity
// proof: with an idle fleet, every shard of a benchmark trained only on
// worker A is dispatched to A — the other workers see nothing — because
// A's advert lists the trained models.
func TestAffinityRoutesToModelHolder(t *testing.T) {
	holder := &counting{Transport: NewLocal("holder", resolveFake)}
	idle1 := &counting{Transport: NewLocal("idle1", resolveFake)}
	idle2 := &counting{Transport: NewLocal("idle2", resolveFake)}
	// Only the holder advertises gcc's trained models.
	fleet := []Member{{Transport: holder, Capacity: 64, Benchmarks: []string{"gcc"}}, {Transport: idle1, Capacity: 64}, {Transport: idle2, Capacity: 64}}
	coord := NewFleet(func() []Member { return fleet }, Options{ShardSize: 16})

	designs := testDesigns(200)
	want := singleProcessReference(t, designs)
	got, err := coord.ParetoObserved(context.Background(), testQuery(), designs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Evaluated != len(designs) {
		t.Fatalf("evaluated %d, want %d", got.Evaluated, len(designs))
	}
	if holder.calls.Load() == 0 {
		t.Fatal("the model holder served no shards")
	}
	if n := idle1.calls.Load() + idle2.calls.Load(); n != 0 {
		t.Errorf("workers without the model served %d shards of an idle-fleet sweep, want 0", n)
	}
	wantKeys, gotKeys := candKeys(want.Frontier), candKeys(got.Frontier)
	if len(wantKeys) != len(gotKeys) {
		t.Fatalf("affinity-routed frontier has %d points, want %d", len(gotKeys), len(wantKeys))
	}
	for i := range wantKeys {
		if wantKeys[i] != gotKeys[i] {
			t.Fatalf("affinity-routed frontier differs at %d", i)
		}
	}
}

// TestRejoinKeepsAccountingClean: a worker that leaves with a shard in
// flight and returns under the same name keeps one consistent in-flight
// count: it never goes negative, and the stale shard's completion brings
// it back to zero.
func TestRejoinKeepsAccountingClean(t *testing.T) {
	fleet := &liveFleet{}
	fleet.add(Member{Transport: NewLocal("w", resolveFake)})
	fleet.add(Member{Transport: NewLocal("other", resolveFake)})
	coord := NewFleet(fleet.read, Options{ShardSize: 8})
	cv := &carver{n: 64, pinned: testDesigns(64)}
	var old *worker
	for old == nil {
		_, m, ok := coord.nextAssignment(cv, "gcc")
		if !ok {
			t.Fatal("no assignment claimed w")
		}
		if m.name == "w" {
			old = m
		} else {
			coord.release(m)
		}
	}
	// The worker leaves while the shard is in flight: placements skip
	// it, but its state, with the claim outstanding, survives the reads.
	fleet.remove("w")
	for i := 0; i < 3; i++ {
		if _, m, _ := coord.nextAssignment(cv, "gcc"); m == nil || m.name != "other" {
			t.Fatalf("shard placed on %+v while w was out of the fleet", m)
		} else {
			coord.release(m)
		}
	}
	if coord.isLive(old) {
		t.Fatal("departed worker still counts as live")
	}
	if st := stateOf(coord, "w"); st == nil || st.inflight != 1 {
		t.Fatalf("departed worker's in-flight claim was lost: %+v", st)
	}
	// It returns, and the stale shard completes.
	fleet.add(Member{Transport: NewLocal("w", resolveFake)})
	if !coord.isLive(old) {
		t.Fatal("returned worker does not count as live")
	}
	coord.observe(old, 8, time.Millisecond)
	if st := stateOf(coord, "w"); st == nil || st.inflight != 0 {
		t.Fatalf("in-flight after the stale completion: %+v, want 0", st)
	}
	// A second leave and return with nothing in flight starts cold.
	fleet.remove("w")
	if _, m, _ := coord.nextAssignment(cv, "gcc"); m != nil {
		coord.release(m)
	}
	fleet.add(Member{Transport: NewLocal("w", resolveFake)})
	if _, m, _ := coord.nextAssignment(cv, "gcc"); m != nil {
		coord.release(m)
	}
	for name, w := range coord.workers {
		if w.inflight < 0 {
			t.Fatalf("%s's in-flight count went negative: %d", name, w.inflight)
		}
	}
	if st := stateOf(coord, "w"); st == nil || st.inflight != 0 || st.ewmaPerDesignMS != 0 {
		t.Fatalf("worker returning idle did not start cold: %+v", st)
	}
}

// TestAffinitySpillsOnlyUnderLoad drives the scheduler directly: while
// the model holder has a free capacity slot every shard goes to it; once
// its slots are claimed, the next shard spills to the other worker.
func TestAffinitySpillsOnlyUnderLoad(t *testing.T) {
	fleet := []Member{
		{Transport: NewLocal("holder", resolveFake), Capacity: 2, Benchmarks: []string{"gcc"}},
		{Transport: NewLocal("other", resolveFake), Capacity: 2},
	}
	coord := NewFleet(func() []Member { return fleet }, Options{ShardSize: 8})
	cv := &carver{n: 64, pinned: testDesigns(64)}
	var names []string
	for {
		_, m, ok := coord.nextAssignment(cv, "gcc")
		if !ok {
			break
		}
		names = append(names, m.name)
	}
	if len(names) != 8 {
		t.Fatalf("carved %d shards, want 8", len(names))
	}
	// Two capacity slots on the holder, then spill: shards 0 and 1 go to
	// the holder, shard 2 must not (no slot was ever released).
	if names[0] != "holder" || names[1] != "holder" {
		t.Fatalf("idle holder did not take the first shards: %v", names)
	}
	if names[2] != "other" {
		t.Fatalf("saturated holder did not spill shard 2 to the other worker: %v", names)
	}
}

// gated blocks its first sweep call until released, so a test can hold a
// sweep in flight while it mutates the fleet.
type gated struct {
	Transport
	once    sync.Once
	release chan struct{}
}

func (g *gated) wait(ctx context.Context) {
	g.once.Do(func() {
		select {
		case <-g.release:
		case <-ctx.Done():
		}
	})
}

func (g *gated) Evaluate(ctx context.Context, q Query, s Shard) (*Partial, error) {
	g.wait(ctx)
	return g.Transport.Evaluate(ctx, q, s)
}

// TestJoinMidSweepTakesShards: a worker joining while a sweep is in
// flight starts receiving shards of that same sweep, and the merged
// frontier still equals the single-process answer.
func TestJoinMidSweepTakesShards(t *testing.T) {
	slow := &gated{Transport: NewLocal("original", resolveFake), release: make(chan struct{})}
	fleet := &liveFleet{}
	fleet.add(Member{Transport: slow})
	coord := NewFleet(fleet.read, Options{ShardSize: 8, Parallelism: 2})

	designs := testDesigns(240)
	want := singleProcessReference(t, designs)
	type answer struct {
		res *ParetoResult
		err error
	}
	done := make(chan answer, 1)
	go func() {
		res, err := coord.ParetoObserved(context.Background(), testQuery(), designs, nil)
		done <- answer{res, err}
	}()

	// With the original worker gated, the sweep is parked mid-flight.
	// Join a second worker, then release the gate.
	joiner := &counting{Transport: NewLocal("joiner", resolveFake)}
	fleet.add(Member{Transport: joiner, Capacity: 8})
	close(slow.release)

	a := <-done
	if a.err != nil {
		t.Fatal(a.err)
	}
	if a.res.Evaluated != len(designs) {
		t.Fatalf("evaluated %d, want %d", a.res.Evaluated, len(designs))
	}
	if joiner.calls.Load() == 0 {
		t.Error("mid-sweep joiner served no shards")
	}
	wantKeys, gotKeys := candKeys(want.Frontier), candKeys(a.res.Frontier)
	if len(wantKeys) != len(gotKeys) {
		t.Fatalf("frontier has %d points after mid-sweep join, want %d", len(gotKeys), len(wantKeys))
	}
	for i := range wantKeys {
		if wantKeys[i] != gotKeys[i] {
			t.Fatalf("frontier differs after mid-sweep join at %d", i)
		}
	}
}

// TestDrainedWorkerGetsNothing: once the fleet source drops a worker, a
// sweep routes no shard to it and the answer is unchanged — a departure
// is safe mid-campaign.
func TestDrainedWorkerGetsNothing(t *testing.T) {
	designs := testDesigns(200)
	want := singleProcessReference(t, designs)

	drained := &counting{Transport: NewLocal("drained", resolveFake)}
	steady := NewLocal("steady", resolveFake)
	fleet := &liveFleet{}
	fleet.add(Member{Transport: steady})
	fleet.add(Member{Transport: drained})
	coord := NewFleet(fleet.read, Options{ShardSize: 16})
	fleet.remove("drained")

	got, err := coord.ParetoObserved(context.Background(), testQuery(), designs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if drained.calls.Load() != 0 {
		t.Errorf("drained worker served %d shards, want 0", drained.calls.Load())
	}
	if got.Evaluated != len(designs) {
		t.Fatalf("evaluated %d after drain, want %d", got.Evaluated, len(designs))
	}
	wantKeys, gotKeys := candKeys(want.Frontier), candKeys(got.Frontier)
	if len(wantKeys) != len(gotKeys) {
		t.Fatalf("frontier has %d points after drain, want %d", len(gotKeys), len(wantKeys))
	}
	for i := range wantKeys {
		if wantKeys[i] != gotKeys[i] {
			t.Fatalf("frontier differs after drain at %d", i)
		}
	}
}

// sleepy wraps a Local transport with a fixed per-design latency so the
// adaptive sizer has something real to measure.
type sleepy struct {
	Transport
	perDesign time.Duration
}

func (s *sleepy) Evaluate(ctx context.Context, q Query, sh Shard) (*Partial, error) {
	time.Sleep(time.Duration(sh.Count) * s.perDesign)
	return s.Transport.Evaluate(ctx, q, sh)
}

// TestAdaptiveShardSizing: with a target shard duration configured, the
// sizer converges each worker's shards toward target/latency designs —
// and the unit arithmetic honours the clamps.
func TestAdaptiveShardSizing(t *testing.T) {
	coord := newTestCoordinator(t, []Transport{NewLocal("w", resolveFake)}, Options{
		ShardSize:       32,
		TargetShardTime: 50 * time.Millisecond,
	})
	coord.mu.Lock()
	w := stateFor(coord, "w")
	if got := coord.shardSizeLocked(w); got != 32 {
		t.Errorf("size before any observation: %d, want the configured 32", got)
	}
	w.inflight++ // observe releases one slot
	coord.mu.Unlock()

	// 100 designs in 100ms -> 1ms per design -> 50ms target = 50 designs.
	coord.observe(w, 100, 100*time.Millisecond)
	coord.mu.Lock()
	if got := coord.shardSizeLocked(w); got != 50 {
		t.Errorf("adaptive size %d, want 50 (50ms target at 1ms/design)", got)
	}
	coord.mu.Unlock()

	// A very fast worker clamps at maxShardSize, a very slow one at
	// minShardSize.
	coord.mu.Lock()
	w.ewmaPerDesignMS = 0.0001
	if got := coord.shardSizeLocked(w); got != maxShardSize {
		t.Errorf("fast-worker size %d, want clamp %d", got, maxShardSize)
	}
	w.ewmaPerDesignMS = 1e9
	if got := coord.shardSizeLocked(w); got != minShardSize {
		t.Errorf("slow-worker size %d, want clamp %d", got, minShardSize)
	}
	coord.mu.Unlock()
}

// TestAdaptiveSweepStillExact: adaptive sizing changes shard boundaries
// mid-sweep; the merged frontier must not notice.
func TestAdaptiveSweepStillExact(t *testing.T) {
	designs := testDesigns(300)
	want := singleProcessReference(t, designs)
	fleet := []Transport{
		&sleepy{Transport: NewLocal("slow", resolveFake), perDesign: 200 * time.Microsecond},
		NewLocal("fast", resolveFake),
	}
	coord := newTestCoordinator(t, fleet, Options{
		ShardSize:       16,
		TargetShardTime: 5 * time.Millisecond,
	})
	got, err := coord.ParetoObserved(context.Background(), testQuery(), designs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Evaluated != len(designs) {
		t.Fatalf("adaptive sweep evaluated %d, want %d", got.Evaluated, len(designs))
	}
	wantKeys, gotKeys := candKeys(want.Frontier), candKeys(got.Frontier)
	if len(wantKeys) != len(gotKeys) {
		t.Fatalf("adaptive frontier has %d points, want %d", len(gotKeys), len(wantKeys))
	}
	for i := range wantKeys {
		if wantKeys[i] != gotKeys[i] {
			t.Fatalf("adaptive frontier differs at %d", i)
		}
	}
	sizes := 0
	for _, name := range []string{"slow", "fast"} {
		if st := stateOf(coord, name); st != nil && st.ewmaPerDesignMS > 0 {
			sizes++
		}
	}
	if sizes == 0 {
		t.Error("no worker accumulated a latency observation")
	}
}
