package cluster

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// conformanceViews are the fleet shapes every policy must rank sanely:
// mixed capacity headroom, model inventory, queue depths, homes, and a
// saturated fleet.
func conformanceViews() []PlacementView {
	return []PlacementView{
		{
			Benchmark: "gcc",
			Workers: []WorkerView{
				{Name: "w-a", Home: true, HasModels: true, Inflight: 1, Capacity: 4, QueueDepth: 2, QueueTotal: 3, EWMAPerDesignMS: 0.2},
				{Name: "w-b", Home: true, Inflight: 0, Capacity: 4},
				{Name: "w-c", Inflight: 3, Capacity: 4, QueueTotal: 1, EWMAPerDesignMS: 1.5},
				{Name: "w-d", HasModels: true, Inflight: 4, Capacity: 4},
			},
			Deal: 0,
		},
		{
			Benchmark: "mcf",
			Workers: []WorkerView{
				{Name: "w-a", Home: true, Inflight: 4, Capacity: 4},
				{Name: "w-b", Inflight: 6, Capacity: 4, QueueTotal: 2},
			},
			Deal: 3,
		},
		{
			Benchmark: "gcc",
			Workers: []WorkerView{
				{Name: "solo", Home: true, HasModels: true, Inflight: 0, Capacity: 1},
			},
			Deal: 7,
		},
	}
}

// TestPolicyConformance runs every built-in policy through the shared
// placement contract: the ranking is a permutation of the view (nothing
// invented — so an evicted worker, absent from the view, can never be
// placed on; nothing dropped; no duplicates), it is deterministic under
// equal inputs, and capacity-respecting policies never rank a saturated
// worker above one with a free slot.
func TestPolicyConformance(t *testing.T) {
	for _, p := range Policies() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			for vi, v := range conformanceViews() {
				ranked := p.Rank(v)
				if len(ranked) != len(v.Workers) {
					t.Fatalf("view %d: Rank returned %d names for %d workers: %v", vi, len(ranked), len(v.Workers), ranked)
				}
				inView := make(map[string]bool, len(v.Workers))
				for _, w := range v.Workers {
					inView[w.Name] = true
				}
				seen := make(map[string]bool, len(ranked))
				for _, name := range ranked {
					if !inView[name] {
						t.Fatalf("view %d: Rank invented worker %q not in the view", vi, name)
					}
					if seen[name] {
						t.Fatalf("view %d: Rank returned %q twice", vi, name)
					}
					seen[name] = true
				}
				if again := p.Rank(v); !reflect.DeepEqual(ranked, again) {
					t.Fatalf("view %d: Rank is nondeterministic: %v then %v", vi, ranked, again)
				}
				// oversub deliberately ignores the capacity cutoff; the
				// other three must prefer any free worker over a full one.
				if p.Name() != "oversub" && len(ranked) > 0 {
					free := make(map[string]bool)
					for _, w := range v.Workers {
						if w.Inflight < w.Capacity {
							free[w.Name] = true
						}
					}
					if len(free) > 0 && !free[ranked[0]] {
						t.Fatalf("view %d: ranked %q (saturated) above free workers %v", vi, ranked[0], free)
					}
				}
			}
		})
	}
}

func TestPolicyByName(t *testing.T) {
	for _, want := range []string{"affinity", "least-loaded", "best-fit", "oversub"} {
		p, err := PolicyByName(want)
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", want, err)
		}
		if p.Name() != want {
			t.Fatalf("PolicyByName(%q).Name() = %q", want, p.Name())
		}
	}
	if _, err := PolicyByName("round-robin"); err == nil {
		t.Fatal("PolicyByName accepted an unknown policy")
	}
}

// TestPoliciesNeverPlaceOnEvicted drives each policy through the
// coordinator: a member that left the fleet must receive zero shards,
// whatever the ranking strategy, and the sweep must still equal the
// single-process answer.
func TestPoliciesNeverPlaceOnEvicted(t *testing.T) {
	for _, p := range Policies() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			survivor := &counting{Transport: NewLocal("survivor", resolveFake)}
			lapsed := &counting{Transport: NewLocal("lapsed", resolveFake)}
			coord := newTestCoordinator(t, []Transport{survivor}, Options{ShardSize: 64, Policy: p})
			if _, err := coord.Join(lapsed, MemberInfo{Benchmarks: []string{"gcc"}}); err != nil {
				t.Fatal(err)
			}
			// The member leaves before the sweep starts, advertising the
			// models: no policy may resurrect it.
			coord.Leave("lapsed")
			designs := testDesigns(400)
			res, err := coord.ParetoObserved(context.Background(), testQuery(), designs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := lapsed.calls.Load(); got != 0 {
				t.Fatalf("policy %s placed %d shards on an evicted member", p.Name(), got)
			}
			want := singleProcessReference(t, designs)
			if !reflect.DeepEqual(candKeys(res.Frontier), candKeys(want.Frontier)) {
				t.Fatalf("policy %s frontier diverged from single-process answer", p.Name())
			}
		})
	}
}

// TestLeastLoadedFollowsQueueDepths: the least-loaded policy must
// finally consume the heartbeat-advertised queue depths — a worker
// drowning in externally-submitted jobs repels shards even though the
// coordinator itself has nothing in flight on it.
func TestLeastLoadedFollowsQueueDepths(t *testing.T) {
	idle := &counting{Transport: NewLocal("idle", resolveFake)}
	drowning := &counting{Transport: NewLocal("drowning", resolveFake)}
	coord := newTestCoordinator(t, nil, Options{
		ShardSize:   64,
		Parallelism: 1,
		Policy:      leastLoadedPolicy{},
	})
	if _, err := coord.Join(idle, MemberInfo{Benchmarks: []string{"gcc"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Join(drowning, MemberInfo{
		Benchmarks:  []string{"gcc"},
		QueueDepths: map[string]int{"gcc": 7, "mcf": 2},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.ParetoObserved(context.Background(), testQuery(), testDesigns(300), nil); err != nil {
		t.Fatal(err)
	}
	if got := drowning.calls.Load(); got != 0 {
		t.Fatalf("least-loaded sent %d shards to the queue-deep worker with an idle one free", got)
	}
	if idle.calls.Load() == 0 {
		t.Fatal("no shards reached the idle worker")
	}
}

// TestHedgingRescuesStuckWorker: a worker that accepts shards and never
// answers must not hold the sweep hostage — hedged dispatch re-runs its
// shards elsewhere, the merged frontier still equals the single-process
// answer exactly, and at least one hedge is booked as won.
func TestHedgingRescuesStuckWorker(t *testing.T) {
	fast := NewLocal("fast", resolveFake)
	stuck := blocking{name: "stuck"}
	coord := newTestCoordinator(t, []Transport{fast, stuck}, Options{
		ShardSize:     64,
		Parallelism:   2,
		HedgeFactor:   2,
		HedgeMinDelay: time.Millisecond,
	})
	designs := testDesigns(500)
	res, err := coord.ParetoObserved(context.Background(), testQuery(), designs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != len(designs) {
		t.Fatalf("evaluated %d of %d designs", res.Evaluated, len(designs))
	}
	want := singleProcessReference(t, designs)
	if !reflect.DeepEqual(candKeys(res.Frontier), candKeys(want.Frontier)) {
		t.Fatal("hedged frontier diverged from single-process answer")
	}
	issued, won, wasted := coord.HedgeStats()
	if won == 0 {
		t.Fatalf("no hedge won against a stuck worker (issued=%d wasted=%d)", issued, wasted)
	}
	if issued != won+wasted {
		t.Fatalf("hedge accounting drifted: issued=%d won=%d wasted=%d", issued, won, wasted)
	}
}

// slowTransport completes every shard, ctx or not, after a fixed delay —
// a worker that is slow but correct, so hedges race genuinely duplicated
// work.
type slowTransport struct {
	Transport
	delay time.Duration
}

func (s slowTransport) Evaluate(ctx context.Context, q Query, sh Shard) (*Partial, error) {
	<-time.After(s.delay)
	return s.Transport.Evaluate(context.WithoutCancel(ctx), q, sh)
}

// TestHedgeDuplicatesMergeExactlyOnce is the idempotence proof behind
// "hedging is safe": when both the primary and the hedge complete the
// same shard, exactly one partial merges — the evaluated count stays
// exact (the collectors are not duplicate-idempotent, so a double merge
// would show) and the frontier is byte-identical to the single-process
// answer.
func TestHedgeDuplicatesMergeExactlyOnce(t *testing.T) {
	workers := []Transport{
		slowTransport{Transport: NewLocal("slow-a", resolveFake), delay: 15 * time.Millisecond},
		slowTransport{Transport: NewLocal("slow-b", resolveFake), delay: 15 * time.Millisecond},
	}
	coord := newTestCoordinator(t, workers, Options{
		ShardSize:   50,
		Parallelism: 2,
		// An aggressive trigger: after the first completions price the
		// fleet, nearly every shard hedges — and with both workers equally
		// slow, both attempts usually finish.
		HedgeFactor:   0.05,
		HedgeMinDelay: time.Millisecond,
	})
	designs := testDesigns(400)
	res, err := coord.ParetoObserved(context.Background(), testQuery(), designs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != len(designs) {
		t.Fatalf("evaluated %d of %d designs: a duplicate partial merged", res.Evaluated, len(designs))
	}
	want := singleProcessReference(t, designs)
	if !reflect.DeepEqual(candKeys(res.Frontier), candKeys(want.Frontier)) {
		t.Fatal("hedged frontier diverged from single-process answer")
	}
	issued, won, wasted := coord.HedgeStats()
	if issued == 0 {
		t.Fatal("no hedges issued under an aggressive hedge factor")
	}
	if issued != won+wasted {
		t.Fatalf("hedge accounting drifted: issued=%d won=%d wasted=%d", issued, won, wasted)
	}
}

// TestHedgingDisabledIssuesNone: the default configuration must never
// speculate.
func TestHedgingDisabledIssuesNone(t *testing.T) {
	coord := newTestCoordinator(t, localFleet(2), Options{ShardSize: 64})
	if _, err := coord.ParetoObserved(context.Background(), testQuery(), testDesigns(300), nil); err != nil {
		t.Fatal(err)
	}
	if issued, won, wasted := coord.HedgeStats(); issued+won+wasted != 0 {
		t.Fatalf("hedges booked with hedging disabled: %d/%d/%d", issued, won, wasted)
	}
}

// TestPolicyNameSurfaces pins the policy label on the placement
// series: the scrapeable record of which -policy a fleet schedules with.
func TestPolicyNameSurfaces(t *testing.T) {
	for _, p := range append(Policies(), nil) {
		reg := obs.NewRegistry(nil)
		newTestCoordinator(t, localFleet(1), Options{Policy: p, Obs: reg})
		want := "affinity"
		if p != nil {
			want = p.Name()
		}
		var buf strings.Builder
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if series := `dsed_cluster_placements_total{policy="` + want + `"}`; !strings.Contains(buf.String(), series) {
			t.Fatalf("exposition lacks %s:\n%s", series, buf.String())
		}
	}
}

// TestFleetEWMAMedian pins the cold-worker expectation hedging prices
// against.
func TestFleetEWMAMedian(t *testing.T) {
	coord := newTestCoordinator(t, localFleet(3), Options{})
	coord.mu.Lock()
	coord.members["local-0"].ewmaPerDesignMS = 0.1
	coord.members["local-1"].ewmaPerDesignMS = 0.4
	coord.members["local-2"].ewmaPerDesignMS = 9.0
	got := coord.fleetEWMALocked()
	coord.mu.Unlock()
	if got != 0.4 {
		t.Fatalf("fleet median EWMA = %v, want 0.4", got)
	}
	empty := newTestCoordinator(t, localFleet(2), Options{})
	empty.mu.Lock()
	defer empty.mu.Unlock()
	if got := empty.fleetEWMALocked(); got != 0 {
		t.Fatalf("unobserved fleet median = %v, want 0", got)
	}
}
