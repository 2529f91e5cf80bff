package cluster

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/mathx"
	"repro/internal/obs"
)

// randomView draws a fleet snapshot for rank: up to eight workers with
// mixed capacity headroom, model inventory and in-flight counts, some
// saturated or past capacity, in a shuffled input order.
func randomView(rng *mathx.RNG) []workerState {
	ws := make([]workerState, 1+rng.Intn(8))
	for i, j := range rng.Perm(len(ws)) {
		capacity := 1 + rng.Intn(4)
		ws[i] = workerState{
			name:      fmt.Sprintf("w-%d", j),
			hasModels: rng.Intn(2) == 0,
			inflight:  rng.Intn(capacity + 2),
			capacity:  capacity,
		}
	}
	return ws
}

// TestPolicyConformance is rank's contract over random fleet views: the
// ranking is a permutation of the view (nothing invented — so an evicted
// worker, absent from the view, can never be placed on; nothing dropped;
// no duplicates), tiers come in order, in-flight counts never decrease
// within a tier, and each tie among free workers is its name-ordered
// group rotated by the deal, while saturated ties keep name order.
func TestPolicyConformance(t *testing.T) {
	rng := mathx.NewRNG(24)
	for trial := 0; trial < 2000; trial++ {
		ws := randomView(rng)
		deal := rng.Intn(16)
		ranked := rank(ws, deal)
		byName := make(map[string]workerState, len(ws))
		for _, w := range ws {
			byName[w.name] = w
		}
		if len(ranked) != len(ws) {
			t.Fatalf("trial %d: rank returned %d names for %d workers: %v", trial, len(ranked), len(ws), ranked)
		}
		seen := make(map[string]bool, len(ranked))
		for _, name := range ranked {
			if _, ok := byName[name]; !ok || seen[name] {
				t.Fatalf("trial %d: rank invented or repeated %q: %v", trial, name, ranked)
			}
			seen[name] = true
		}
		ties := make(map[[2]int][]string)
		for i, name := range ranked {
			w := byName[name]
			if i > 0 {
				prev := byName[ranked[i-1]]
				if prev.tier() > w.tier() {
					t.Fatalf("trial %d: tier %d ranked above tier %d: %v", trial, prev.tier(), w.tier(), ranked)
				}
				if prev.tier() == w.tier() && prev.inflight > w.inflight {
					t.Fatalf("trial %d: %d in flight ranked above %d in tier %d: %v", trial, prev.inflight, w.inflight, w.tier(), ranked)
				}
			}
			key := [2]int{w.tier(), w.inflight}
			ties[key] = append(ties[key], name)
		}
		for key, got := range ties {
			want := append([]string(nil), got...)
			sort.Strings(want)
			if key[0] < 2 {
				k := deal % len(want)
				want = append(want[k:], want[:k]...)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: tie (tier %d, %d in flight) at deal %d ranked %v, want %v", trial, key[0], key[1], deal, got, want)
			}
		}
		if again := rank(ws, deal); !reflect.DeepEqual(ranked, again) {
			t.Fatalf("trial %d: rank is nondeterministic: %v then %v", trial, ranked, again)
		}
	}
}

// TestFewerInflightModelHolderFirst: among free model holders, the one
// with fewer shards in flight takes the next shard, whatever the deal —
// a busy holder is not handed more work while an idle one waits. Each
// decision is counted on the unlabelled placements series.
func TestFewerInflightModelHolderFirst(t *testing.T) {
	reg := obs.NewRegistry(nil)
	var fleet []Member
	for _, name := range []string{"holder-a", "holder-b"} {
		fleet = append(fleet, Member{Transport: NewLocal(name, resolveFake), Capacity: 4, Benchmarks: []string{"gcc"}})
	}
	coord := NewFleet(func() []Member { return fleet }, Options{ShardSize: 8, Obs: reg})
	coord.mu.Lock()
	stateFor(coord, "holder-a").inflight = 2
	coord.mu.Unlock()
	cv := &carver{n: 64, pinned: testDesigns(64)}
	for i := 0; i < 2; i++ {
		if _, m, ok := coord.nextAssignment(cv, "gcc"); !ok || m.name != "holder-b" {
			t.Fatalf("shard %d went to %+v, want the holder with fewer in flight", i, m)
		}
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\ndsed_cluster_placements_total 2\n") {
		t.Fatalf("exposition lacks two unlabelled placements:\n%s", buf.String())
	}
}

// TestPoliciesNeverPlaceOnEvicted drives placement through the
// coordinator: a member that left the fleet must receive zero shards,
// even though it advertised the models, and the sweep must still equal
// the single-process answer.
func TestPoliciesNeverPlaceOnEvicted(t *testing.T) {
	survivor := &counting{Transport: NewLocal("survivor", resolveFake)}
	lapsed := &counting{Transport: NewLocal("lapsed", resolveFake)}
	fleet := &liveFleet{}
	fleet.add(Member{Transport: survivor})
	fleet.add(Member{Transport: lapsed, Benchmarks: []string{"gcc"}})
	coord := NewFleet(fleet.read, Options{ShardSize: 64})
	// A placement sees the member while it advertises the models...
	if _, m, _ := coord.nextAssignment(&carver{n: 8, pinned: testDesigns(8)}, "gcc"); m == nil || m.name != "lapsed" {
		t.Fatalf("the advertised model holder was not placed on: %+v", m)
	} else {
		coord.release(m)
	}
	// ...then it leaves before the sweep starts: placement must not
	// resurrect it.
	fleet.remove("lapsed")
	designs := testDesigns(400)
	res, err := coord.ParetoObserved(context.Background(), testQuery(), designs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := lapsed.calls.Load(); got != 0 {
		t.Fatalf("placed %d shards on an evicted member", got)
	}
	want := singleProcessReference(t, designs)
	if !reflect.DeepEqual(candKeys(res.Frontier), candKeys(want.Frontier)) {
		t.Fatal("frontier diverged from single-process answer")
	}
}

// TestHedgingRescuesStuckWorker: a worker that accepts shards and never
// answers must not hold the sweep hostage — hedged dispatch re-runs its
// shards elsewhere, the merged frontier still equals the single-process
// answer exactly, and at least one hedge is booked as won.
func TestHedgingRescuesStuckWorker(t *testing.T) {
	fast := NewLocal("fast", resolveFake)
	stuck := blocking{name: "stuck"}
	reg := obs.NewRegistry(nil)
	coord := newTestCoordinator(t, []Transport{fast, stuck}, Options{
		ShardSize:     64,
		Parallelism:   2,
		HedgeFactor:   2,
		HedgeMinDelay: time.Millisecond,
		Obs:           reg,
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
	issued, won, wasted := hedgeCounts(reg)
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
	reg := obs.NewRegistry(nil)
	coord := newTestCoordinator(t, workers, Options{
		ShardSize:   50,
		Parallelism: 2,
		Obs:         reg,
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
	issued, won, wasted := hedgeCounts(reg)
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
	reg := obs.NewRegistry(nil)
	coord := newTestCoordinator(t, localFleet(2), Options{ShardSize: 64, Obs: reg})
	if _, err := coord.ParetoObserved(context.Background(), testQuery(), testDesigns(300), nil); err != nil {
		t.Fatal(err)
	}
	if issued, won, wasted := hedgeCounts(reg); issued+won+wasted != 0 {
		t.Fatalf("hedges booked with hedging disabled: %d/%d/%d", issued, won, wasted)
	}
}

// hedgeCounts reads the dsed_cluster_shard_hedges_total series by
// outcome.
func hedgeCounts(reg *obs.Registry) (issued, won, wasted int64) {
	read := func(result string) int64 {
		return reg.Counter("dsed_cluster_shard_hedges_total", "", obs.Label{Key: "result", Value: result}).Value()
	}
	return read(hedgeIssued), read(hedgeWon), read(hedgeWasted)
}

// TestFleetEWMAMedian pins the cold-worker expectation hedging prices
// against.
func TestFleetEWMAMedian(t *testing.T) {
	coord := newTestCoordinator(t, localFleet(3), Options{})
	coord.mu.Lock()
	stateFor(coord, "local-0").ewmaPerDesignMS = 0.1
	stateFor(coord, "local-1").ewmaPerDesignMS = 0.4
	stateFor(coord, "local-2").ewmaPerDesignMS = 9.0
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
