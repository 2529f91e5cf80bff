package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestMembershipLifecycle walks one worker through the member table:
// join, re-join, advertise, leave, and the join-first protocol.
func TestMembershipLifecycle(t *testing.T) {
	coord := newTestCoordinator(t, nil, Options{})

	added, err := coord.Join(NewLocal("w0", resolveFake), MemberInfo{Capacity: 3, Benchmarks: []string{"gcc"}})
	if err != nil || !added {
		t.Fatalf("first join: added=%v err=%v, want true/nil", added, err)
	}
	if added, _ := coord.Join(NewLocal("w0", resolveFake), MemberInfo{}); added {
		t.Error("re-join reported the worker as new")
	}
	members := coord.Members()
	if len(members) != 1 || members[0].Name != "w0" {
		t.Fatalf("membership after join: %+v", members)
	}
	if members[0].Capacity != 3 {
		t.Errorf("advertised capacity not recorded: %+v", members[0])
	}

	// Heartbeats refresh the inventory.
	if err := coord.Heartbeat("w0", MemberInfo{Benchmarks: []string{"gcc", "mcf"}}); err != nil {
		t.Fatal(err)
	}
	members = coord.Members()
	if got := members[0].Benchmarks; len(got) != 2 || got[0] != "gcc" || got[1] != "mcf" {
		t.Errorf("heartbeat inventory not recorded: %v", got)
	}

	// Leave drains immediately; a second leave is a no-op, and the next
	// heartbeat demands a join.
	if !coord.Leave("w0") {
		t.Error("leave of a live member reported false")
	}
	if coord.Leave("w0") {
		t.Error("leave of an absent member reported true")
	}
	if members = coord.Members(); len(members) != 0 {
		t.Fatalf("departed member survived: %+v", members)
	}
	if err := coord.Heartbeat("w0", MemberInfo{}); !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("heartbeat after leave: %v, want ErrUnknownMember", err)
	}
	if added, _ := coord.Join(NewLocal("w0", resolveFake), MemberInfo{}); !added {
		t.Error("join after leave did not re-add the worker")
	}
}

// TestStaticMembersNeverExpire: the table has no lease of its own — the
// workers New starts with, like any joined member, stay until Leave,
// however long they go without a heartbeat.
func TestStaticMembersNeverExpire(t *testing.T) {
	coord := newTestCoordinator(t, localFleet(2), Options{})
	if got := coord.Workers(); len(got) != 2 {
		t.Fatalf("initial members = %v, want 2", got)
	}
	if _, err := coord.ParetoObserved(context.Background(), testQuery(), testDesigns(64), nil); err != nil {
		t.Fatal(err)
	}
	if got := coord.Workers(); len(got) != 2 {
		t.Fatalf("members without heartbeats dropped to %v", got)
	}
	coord.Leave("local-0")
	if got := coord.Workers(); len(got) != 1 || got[0] != "local-1" {
		t.Fatalf("after Leave the fleet is %v, want [local-1]", got)
	}
}

// TestAffinityRoutesToModelHolder is the acceptance-criterion affinity
// proof: with an idle fleet, every shard of a benchmark trained only on
// worker A is dispatched to A — the other workers see nothing — because
// A's heartbeat advertises the trained models.
func TestAffinityRoutesToModelHolder(t *testing.T) {
	holder := &counting{Transport: NewLocal("holder", resolveFake)}
	idle1 := &counting{Transport: NewLocal("idle1", resolveFake)}
	idle2 := &counting{Transport: NewLocal("idle2", resolveFake)}
	coord := newTestCoordinator(t, nil, Options{ShardSize: 16, WorkerCapacity: 64})
	for _, w := range []Transport{holder, idle1, idle2} {
		if _, err := coord.Join(w, MemberInfo{}); err != nil {
			t.Fatal(err)
		}
	}
	// Only the holder advertises gcc's trained models.
	if err := coord.Heartbeat("holder", MemberInfo{Benchmarks: []string{"gcc"}}); err != nil {
		t.Fatal(err)
	}

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
// flight and rejoins under the same name must not have the stale
// shard's completion booked against its fresh record.
func TestRejoinKeepsAccountingClean(t *testing.T) {
	coord := newTestCoordinator(t, nil, Options{ShardSize: 8})
	if _, err := coord.Join(NewLocal("w", resolveFake), MemberInfo{}); err != nil {
		t.Fatal(err)
	}
	cv := &carver{segments: []Segment{{Count: 8, Designs: testDesigns(8)}}}
	_, old, ok := coord.nextAssignment(cv, "gcc")
	if !ok || old == nil || old.name != "w" {
		t.Fatalf("assignment did not claim w: %+v", old)
	}
	// The worker leaves and rejoins while
	// the old shard is still in flight.
	coord.Leave("w")
	if _, err := coord.Join(NewLocal("w", resolveFake), MemberInfo{}); err != nil {
		t.Fatal(err)
	}
	if coord.isLive(old) {
		t.Fatal("stale member record still counts as live after rejoin")
	}
	// The stale shard completes: its release must land on the detached
	// record, leaving the fresh one untouched.
	coord.observe(old, 8, time.Millisecond)
	for _, m := range coord.Members() {
		if m.Name == "w" && (m.Inflight != 0 || m.ShardsDone != 0 || m.EWMAPerDesignMS != 0) {
			t.Fatalf("stale completion leaked into the rejoined record: %+v", m)
		}
	}
}

// TestAffinitySpillsOnlyUnderLoad drives the scheduler directly: while
// the model holder has a free capacity slot every shard goes to it; once
// its slots are claimed, the next shard spills to the other worker.
func TestAffinitySpillsOnlyUnderLoad(t *testing.T) {
	coord := newTestCoordinator(t, nil, Options{ShardSize: 8})
	if _, err := coord.Join(NewLocal("holder", resolveFake), MemberInfo{Capacity: 2, Benchmarks: []string{"gcc"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Join(NewLocal("other", resolveFake), MemberInfo{Capacity: 2}); err != nil {
		t.Fatal(err)
	}
	cv := &carver{segments: []Segment{{Count: 64, Designs: testDesigns(64)}}}
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
	coord := newTestCoordinator(t, []Transport{slow}, Options{ShardSize: 8, Parallelism: 2})

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
	if _, err := coord.Join(joiner, MemberInfo{Capacity: 8}); err != nil {
		t.Fatal(err)
	}
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

// TestDrainedWorkerGetsNothing: after Leave, a sweep routes no shard to
// the drained worker and the answer is unchanged — the operator's
// remove-from-fleet hook is safe mid-campaign.
func TestDrainedWorkerGetsNothing(t *testing.T) {
	designs := testDesigns(200)
	want := singleProcessReference(t, designs)

	drained := &counting{Transport: NewLocal("drained", resolveFake)}
	steady := NewLocal("steady", resolveFake)
	coord := newTestCoordinator(t, []Transport{steady, drained}, Options{ShardSize: 16})
	if !coord.Leave("drained") {
		t.Fatal("drain refused")
	}

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
	if got := coord.shardSizeLocked("w"); got != 32 {
		t.Errorf("size before any observation: %d, want the configured 32", got)
	}
	coord.mu.Unlock()

	// 100 designs in 100ms -> 1ms per design -> 50ms target = 50 designs.
	coord.mu.Lock()
	w := coord.members["w"]
	w.inflight++ // observe releases one slot
	coord.mu.Unlock()
	coord.observe(w, 100, 100*time.Millisecond)
	coord.mu.Lock()
	if got := coord.shardSizeLocked("w"); got != 50 {
		t.Errorf("adaptive size %d, want 50 (50ms target at 1ms/design)", got)
	}
	coord.mu.Unlock()

	// A very fast worker clamps at maxShardSize, a very slow one at
	// minShardSize.
	coord.mu.Lock()
	coord.members["w"].ewmaPerDesignMS = 0.0001
	if got := coord.shardSizeLocked("w"); got != maxShardSize {
		t.Errorf("fast-worker size %d, want clamp %d", got, maxShardSize)
	}
	coord.members["w"].ewmaPerDesignMS = 1e9
	if got := coord.shardSizeLocked("w"); got != minShardSize {
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
	for _, m := range coord.Members() {
		if m.EWMAPerDesignMS > 0 {
			sizes++
		}
	}
	if sizes == 0 {
		t.Error("no worker accumulated a latency observation")
	}
}
