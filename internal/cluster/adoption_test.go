package cluster

import (
	"context"
	"testing"

	"repro/internal/explore"
	"repro/internal/space"
	"repro/internal/wire"
)

// An adopter re-runs an orphaned job from its spec alone: nothing the
// dead owner merged carries over. The property tests below kill the
// "owner" after every merge count k, from before its first merge to
// after its last, and check that a from-scratch re-run on another fleet,
// carved into other shards, lands on the uninterrupted answer.

// killAfter runs a job of q over designs on owner and cancels it from
// inside its k-th merge (k = 0: before it dispatches anything), the way
// a dead owner stops merging. It returns the last progress the owner
// observed and the merged answer it carried.
func killAfter(t *testing.T, owner *Coordinator, q Query, designs []space.Config, k int) (Progress, []explore.Candidate) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if k == 0 {
		cancel()
	}
	var last Progress
	var answer []explore.Candidate
	_, err := owner.Run(ctx, q, len(designs), designs, func(p Progress) {
		if p.Shards <= k {
			last, answer = p, p.Answer()
		}
		if p.Shards == k {
			cancel()
		}
	})
	if err == nil {
		t.Fatalf("owner killed after %d merges still finished its job", k)
	}
	if last.Shards != k {
		t.Fatalf("owner observed %d merges before its death, want %d", last.Shards, k)
	}
	return last, answer
}

// TestParetoAdoptionAtEveryShardBoundary is the job-survival property
// for frontier jobs: for every shard boundary k, an owner that dies
// after merging k shards leaves an adopter whose from-scratch re-run
// evaluates every design once and lands on the uninterrupted frontier.
func TestParetoAdoptionAtEveryShardBoundary(t *testing.T) {
	designs := testDesigns(220)
	want := candKeys(singleProcessReference(t, designs).Frontier)
	q := testQuery()
	shards := (len(designs) + 31) / 32

	for k := 0; k <= shards; k++ {
		killAfter(t, newTestCoordinator(t, localFleet(3), Options{ShardSize: 32, Parallelism: 1}), q, designs, k)
		// The adopter carves its own shards: the answer must not depend
		// on where the owner's shard boundaries fell.
		adopter := newTestCoordinator(t, localFleet(2), Options{ShardSize: 16 + 5*k})
		res, err := adopter.Run(context.Background(), q, len(designs), designs, nil)
		if err != nil {
			t.Fatalf("boundary %d: re-run failed: %v", k, err)
		}
		if res.Evaluated != len(designs) {
			t.Fatalf("boundary %d: re-run evaluated %d designs, want %d", k, res.Evaluated, len(designs))
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
// constrained top-K jobs, where selection tie-breaks on design indices:
// the re-run's shards index the same list, so its ranks match the
// uninterrupted run's config for config.
func TestSweepAdoptionAtEveryShardBoundary(t *testing.T) {
	designs := testDesigns(180)
	q := testQuery()
	q.Kind = wire.JobSweep
	q.TopK = 9
	q.Constraints = nil

	want, err := newTestCoordinator(t, localFleet(3), Options{ShardSize: 16}).Run(context.Background(), q, len(designs), designs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= want.Shards; k++ {
		killAfter(t, newTestCoordinator(t, localFleet(3), Options{ShardSize: 16, Parallelism: 1}), q, designs, k)
		adopter := newTestCoordinator(t, localFleet(2), Options{ShardSize: 8 + 3*k})
		res, err := adopter.Run(context.Background(), q, len(designs), designs, nil)
		if err != nil {
			t.Fatalf("boundary %d: re-run failed: %v", k, err)
		}
		if res.Evaluated != len(designs) {
			t.Fatalf("boundary %d: re-run evaluated %d designs, want %d", k, res.Evaluated, len(designs))
		}
		if res.Feasible != want.Feasible {
			t.Fatalf("boundary %d: re-run found %d feasible, want %d", k, res.Feasible, want.Feasible)
		}
		requireSameRanks(t, k, res.Candidates, want.Candidates)
	}
}

func requireSameRanks(t *testing.T, k int, got, want []explore.Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("boundary %d: kept %d candidates, want %d", k, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
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

// TestResumeWithEverythingMerged: an owner that merged every shard but
// died before answering leaves nothing behind but the spec. The
// adopter's re-run evaluates every design again and answers exactly the
// owner's last merged snapshot.
func TestResumeWithEverythingMerged(t *testing.T) {
	designs := testDesigns(64)
	q := testQuery()
	q.Kind = wire.JobSweep
	q.TopK = 5
	last, answer := killAfter(t, newTestCoordinator(t, localFleet(2), Options{ShardSize: 16, Parallelism: 1}), q, designs, 4)
	if last.Evaluated != len(designs) {
		t.Fatalf("owner merged %d designs before its death, want all %d", last.Evaluated, len(designs))
	}
	adopter := newTestCoordinator(t, localFleet(1), Options{ShardSize: 64})
	res, err := adopter.Run(context.Background(), q, len(designs), designs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != len(designs) || res.Feasible != last.Feasible {
		t.Fatalf("re-run evaluated %d (%d feasible), want %d (%d)", res.Evaluated, res.Feasible, len(designs), last.Feasible)
	}
	requireSameRanks(t, 4, res.Candidates, answer)
}

// TestResumeRejectsEmptyJob: a job over no designs, or whose pinned list
// disagrees with its count, is not a job to run.
func TestResumeRejectsEmptyJob(t *testing.T) {
	coord := newTestCoordinator(t, localFleet(1), Options{})
	if _, err := coord.Run(context.Background(), testQuery(), 0, nil, nil); err == nil {
		t.Error("pareto run of an empty job returned no error")
	}
	sweep := testQuery()
	sweep.Kind = wire.JobSweep
	if _, err := coord.Run(context.Background(), sweep, 0, []space.Config{}, nil); err == nil {
		t.Error("sweep run of an empty job returned no error")
	}
	if _, err := coord.Run(context.Background(), sweep, 3, testDesigns(2), nil); err == nil {
		t.Error("a run pinning 2 designs for a 3-design job returned no error")
	}
}
