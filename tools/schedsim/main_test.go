package main

import (
	"context"
	"testing"
	"time"
)

// TestRunAllPoliciesExact drives all four legs (straggler names sorting
// last and first, hedging off and on) on a small churny fleet: every leg
// must merge the exact single-process frontier, and the hedged legs over
// a straggler-heavy fleet must actually speculate.
func TestRunAllPoliciesExact(t *testing.T) {
	results, err := run(context.Background(), config{
		designs:   600,
		shardSize: 64,
		fast:      2,
		slow:      1,
		fastDelay: 10 * time.Microsecond,
		slowDelay: 500 * time.Microsecond,
		hedge:     2,
		churn:     true,
		churnAt:   5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d legs, want 4 (straggler order last/first × hedge off/on)", len(results))
	}
	hedgesSeen := false
	for _, r := range results {
		if !r.exact {
			t.Errorf("stragglers first=%v, hedge=%v: frontier diverged from single-process answer", r.slowFirst, r.hedged)
		}
		if r.makespan <= 0 {
			t.Errorf("stragglers first=%v, hedge=%v: non-positive makespan", r.slowFirst, r.hedged)
		}
		if !r.hedged && r.issued+r.won+r.wasted != 0 {
			t.Errorf("stragglers first=%v: hedges booked on the unhedged leg", r.slowFirst)
		}
		if r.hedged && r.issued > 0 {
			hedgesSeen = true
			if r.issued != r.won+r.wasted {
				t.Errorf("stragglers first=%v: hedge accounting drifted: %d != %d+%d", r.slowFirst, r.issued, r.won, r.wasted)
			}
		}
	}
	if !hedgesSeen {
		t.Error("no hedged leg issued a single hedge against a 50x straggler")
	}
}
