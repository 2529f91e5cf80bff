package cluster

import (
	"context"
	"testing"

	"repro/internal/space"
	"repro/internal/wire"
)

// replicaState is what a peer would hold for an in-flight job at one
// merge boundary: the cumulative counters, the latest merged snapshot,
// and the shard ledger. The property tests below kill the "owner" at
// every such boundary and let an "adopter" resume from exactly this.
type replicaState struct {
	seed   Seed
	ledger []wire.ShardRange
}

// captureBoundaries runs one observed sweep and records the replicated
// state after every shard merge, in merge order.
func captureBoundaries(t *testing.T, run func(Observer) error) []replicaState {
	t.Helper()
	var states []replicaState
	var ledger []wire.ShardRange
	obs := func(p Progress) {
		ledger = wire.AddRange(ledger, wire.ShardRange{Start: p.ShardStart, Count: p.ShardLen})
		seed := Seed{Evaluated: p.Evaluated, Feasible: p.Feasible, Shards: p.Shards}
		if p.Indexed != nil {
			seed.Candidates = append([]IndexedCandidate(nil), p.Indexed...)
		} else {
			for _, c := range p.Candidates {
				seed.Candidates = append(seed.Candidates, IndexedCandidate{Index: -1, Candidate: c})
			}
		}
		states = append(states, replicaState{
			seed:   seed,
			ledger: append([]wire.ShardRange(nil), ledger...),
		})
	}
	if err := run(obs); err != nil {
		t.Fatal(err)
	}
	return states
}

// TestParetoAdoptionAtEveryShardBoundary is the job-survival property
// test for frontier sweeps: for every shard boundary k, an owner that
// dies after merging k shards leaves a replica whose resumed sweep
// evaluates exactly the complement and lands on the same frontier as
// the uninterrupted single-process run.
func TestParetoAdoptionAtEveryShardBoundary(t *testing.T) {
	designs := testDesigns(220)
	want := candKeys(singleProcessReference(t, designs).Frontier)
	q := testQuery()

	owner := newTestCoordinator(t, localFleet(3), Options{ShardSize: 32})
	states := captureBoundaries(t, func(obs Observer) error {
		_, err := owner.ParetoObserved(context.Background(), q, designs, obs)
		return err
	})
	if len(states) != (len(designs)+31)/32 {
		t.Fatalf("owner merged %d shards, want %d", len(states), (len(designs)+31)/32)
	}

	for k, st := range states {
		segments := Pin(SegmentsAfter(len(designs), st.ledger), designs)
		if got := segmentsTotal(segments) + wire.RangesTotal(st.ledger); got != len(designs) {
			t.Fatalf("boundary %d: ledger+complement covers %d designs, want %d", k, got, len(designs))
		}
		adopter := newTestCoordinator(t, localFleet(2), Options{ShardSize: 32})
		res, err := adopter.Run(context.Background(), q, segments, st.seed, nil)
		if err != nil {
			t.Fatalf("boundary %d: resume failed: %v", k, err)
		}
		// Exactly once: seeded counters plus resumed shards add up to the
		// whole design list, never more.
		if res.Evaluated != len(designs) {
			t.Fatalf("boundary %d: resumed job evaluated %d designs, want %d", k, res.Evaluated, len(designs))
		}
		got := candKeys(res.Candidates)
		if len(got) != len(want) {
			t.Fatalf("boundary %d: frontier has %d points, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("boundary %d: frontier differs at %d:\n  got  %s\n  want %s", k, i, got[i], want[i])
			}
		}
	}
}

// TestSweepAdoptionAtEveryShardBoundary is the same property for
// constrained top-K sweeps, where the snapshot must carry original
// design indices: top-K tie-breaks on index, so the adopter's answer is
// bit-identical only if the seed re-enters the collector as if the
// owner had never died.
func TestSweepAdoptionAtEveryShardBoundary(t *testing.T) {
	designs := testDesigns(180)
	q := testQuery()
	q.Kind = wire.JobSweep
	q.TopK = 9
	q.Constraints = nil

	owner := newTestCoordinator(t, localFleet(3), Options{ShardSize: 16})
	var want *Result
	states := captureBoundaries(t, func(obs Observer) error {
		res, err := owner.Run(context.Background(), q, fresh(designs), Seed{}, obs)
		want = res
		return err
	})

	for k, st := range states {
		segments := Pin(SegmentsAfter(len(designs), st.ledger), designs)
		adopter := newTestCoordinator(t, localFleet(2), Options{ShardSize: 16})
		res, err := adopter.Run(context.Background(), q, segments, st.seed, nil)
		if err != nil {
			t.Fatalf("boundary %d: resume failed: %v", k, err)
		}
		if res.Evaluated != len(designs) {
			t.Fatalf("boundary %d: resumed job evaluated %d designs, want %d", k, res.Evaluated, len(designs))
		}
		if res.Feasible != want.Feasible {
			t.Fatalf("boundary %d: resumed job found %d feasible, want %d", k, res.Feasible, want.Feasible)
		}
		if len(res.Candidates) != len(want.Candidates) {
			t.Fatalf("boundary %d: kept %d candidates, want %d", k, len(res.Candidates), len(want.Candidates))
		}
		for i := range want.Candidates {
			g, w := res.Candidates[i], want.Candidates[i]
			if g.Config.SweptValues() != w.Config.SweptValues() {
				t.Fatalf("boundary %d rank %d: config %v, want %v (tie-breaking drifted across adoption)",
					k, i, g.Config.SweptValues(), w.Config.SweptValues())
			}
			for j := range w.Scores {
				if g.Scores[j] != w.Scores[j] {
					t.Fatalf("boundary %d rank %d objective %d: score %v, want %v", k, i, j, g.Scores[j], w.Scores[j])
				}
			}
		}
	}
}

// TestResumeWithEverythingMerged: an adopter that inherits a fully
// merged ledger returns the seed's answer without dispatching anything.
func TestResumeWithEverythingMerged(t *testing.T) {
	designs := testDesigns(64)
	q := testQuery()
	owner := newTestCoordinator(t, localFleet(2), Options{ShardSize: 16})
	states := captureBoundaries(t, func(obs Observer) error {
		_, err := owner.ParetoObserved(context.Background(), q, designs, obs)
		return err
	})
	last := states[len(states)-1]
	if segs := SegmentsAfter(len(designs), last.ledger); len(segs) != 0 {
		t.Fatalf("full ledger leaves %d segments, want 0", len(segs))
	}
	// The adopter has no live workers at all — and must not need any.
	adopter := newTestCoordinator(t, nil, Options{ShardSize: 16})
	res, err := adopter.Run(context.Background(), q, nil, last.seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != len(designs) {
		t.Fatalf("evaluated %d, want %d", res.Evaluated, len(designs))
	}
	want := candKeys(singleProcessReference(t, designs).Frontier)
	got := candKeys(res.Candidates)
	if len(got) != len(want) {
		t.Fatalf("frontier has %d points, want %d", len(got), len(want))
	}
}

func TestSegmentsAfter(t *testing.T) {
	designs := testDesigns(10)
	cases := []struct {
		name   string
		ledger []wire.ShardRange
		want   [][2]int // (start, len) of each expected segment
	}{
		{"empty ledger", nil, [][2]int{{0, 10}}},
		{"prefix merged", []wire.ShardRange{{Start: 0, Count: 4}}, [][2]int{{4, 6}}},
		{"middle merged", []wire.ShardRange{{Start: 3, Count: 4}}, [][2]int{{0, 3}, {7, 3}}},
		{"suffix merged", []wire.ShardRange{{Start: 6, Count: 4}}, [][2]int{{0, 6}}},
		{"two holes", []wire.ShardRange{{Start: 2, Count: 2}, {Start: 6, Count: 2}}, [][2]int{{0, 2}, {4, 2}, {8, 2}}},
		{"all merged", []wire.ShardRange{{Start: 0, Count: 10}}, nil},
		{"overlong range clamps", []wire.ShardRange{{Start: 5, Count: 50}}, [][2]int{{0, 5}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			segs := SegmentsAfter(len(designs), tc.ledger)
			if len(segs) != len(tc.want) {
				t.Fatalf("got %d segments, want %d", len(segs), len(tc.want))
			}
			for i, w := range tc.want {
				if segs[i].Start != w[0] || segs[i].Count != w[1] || segs[i].Designs != nil {
					t.Fatalf("segment %d: (start %d, count %d, %d pinned), want (%d, %d) unpinned",
						i, segs[i].Start, segs[i].Count, len(segs[i].Designs), w[0], w[1])
				}
			}
			// Pinned segments must alias the original list, not copy it:
			// Start indexes into designs.
			for _, s := range Pin(segs, designs) {
				if len(s.Designs) != s.Count {
					t.Fatalf("segment at %d pins %d designs, want %d", s.Start, len(s.Designs), s.Count)
				}
				if len(s.Designs) > 0 && s.Designs[0].SweptValues() != designs[s.Start].SweptValues() {
					t.Fatalf("segment at %d does not alias the design list", s.Start)
				}
			}
		})
	}
}

// TestResumeRejectsEmptyJob: no segments and no merged shards is not a
// resumable job — it is a request to sweep nothing.
func TestResumeRejectsEmptyJob(t *testing.T) {
	coord := newTestCoordinator(t, localFleet(1), Options{})
	if _, err := coord.Run(context.Background(), testQuery(), nil, Seed{}, nil); err == nil {
		t.Error("pareto resume of an empty job returned no error")
	}
	sweep := testQuery()
	sweep.Kind = wire.JobSweep
	if _, err := coord.Run(context.Background(), sweep, []Segment{{Designs: []space.Config{}}}, Seed{}, nil); err == nil {
		t.Error("sweep resume of an empty job returned no error")
	}
}
