package explore

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/space"
)

// randomMergeCandidates builds n candidates with nObj scores drawn from a small
// value set, so ties and duplicate score vectors (the frontier's edge
// cases) actually occur.
func randomMergeCandidates(rng *rand.Rand, n, nObj int) []Candidate {
	out := make([]Candidate, n)
	for i := range out {
		cfg := space.Baseline()
		cfg.ROBSize = 96 + i // make configs distinguishable
		scores := make([]float64, nObj)
		for j := range scores {
			scores[j] = float64(rng.Intn(12)) / 4
		}
		out[i] = Candidate{Config: cfg, Scores: scores}
	}
	return out
}

// shardSplit partitions [0,n) into k contiguous ranges (some possibly
// empty at the tail), mirroring the cluster coordinator's
// range-partitioning.
func shardSplit(n, k int) [][2]int {
	size := (n + k - 1) / k
	var out [][2]int
	for start := 0; start < n; start += size {
		end := start + size
		if end > n {
			end = n
		}
		out = append(out, [2]int{start, end})
	}
	return out
}

func frontierKey(c Candidate) string {
	return fmt.Sprintf("%v|%v", c.Config.SweptValues(), c.Scores)
}

func sortedKeys(cands []Candidate) []string {
	keys := make([]string, len(cands))
	for i, c := range cands {
		keys[i] = frontierKey(c)
	}
	sort.Strings(keys)
	return keys
}

// TestFrontierMergeEqualsSingleProcess is the distribution-losslessness
// property: splitting a candidate set into k shards, extracting per-shard
// frontiers, and merging them yields exactly the single-process
// ParetoFrontier — for any shard count, objective count, and tie pattern.
func TestFrontierMergeEqualsSingleProcess(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(400)
		nObj := 1 + rng.Intn(3)
		k := 1 + rng.Intn(8)
		cands := randomMergeCandidates(rng, n, nObj)

		want := ParetoFrontier(cands)

		merged := NewFrontierCollector()
		for _, s := range shardSplit(n, k) {
			part := NewFrontierCollector()
			// Per-shard frontiers first (what a worker ships), then the
			// collector merge.
			for i, c := range ParetoFrontier(cands[s[0]:s[1]]) {
				part.Collect(s[0]+i, c)
			}
			merged.Merge(part)
		}

		got := merged.Frontier()
		wantKeys, gotKeys := sortedKeys(want), sortedKeys(got)
		if len(wantKeys) != len(gotKeys) {
			t.Fatalf("seed %d (n=%d k=%d obj=%d): merged frontier has %d points, single-process %d",
				seed, n, k, nObj, len(gotKeys), len(wantKeys))
		}
		for i := range wantKeys {
			if wantKeys[i] != gotKeys[i] {
				t.Fatalf("seed %d (n=%d k=%d obj=%d): frontier mismatch at %d:\n  got  %s\n  want %s",
					seed, n, k, nObj, i, gotKeys[i], wantKeys[i])
			}
		}
	}
}

// TestFrontierMergeSeenAccumulates proves Merge preserves the sweep-size
// accounting across shards.
func TestFrontierMergeSeenAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cands := randomMergeCandidates(rng, 100, 2)
	merged := NewFrontierCollector()
	for _, s := range shardSplit(len(cands), 4) {
		part := NewFrontierCollector()
		for i := s[0]; i < s[1]; i++ {
			part.Collect(i, cands[i])
		}
		merged.Merge(part)
	}
	if merged.Seen() != len(cands) {
		t.Fatalf("merged Seen() = %d, want %d", merged.Seen(), len(cands))
	}
}

// TestTopKMergeEqualsSingleProcess: per-shard top-K collectors (tagged
// with global design indexes) merged together must agree with one
// collector fed the whole sweep — exactly, including tie-breaking order
// and the seen/feasible counters.
func TestTopKMergeEqualsSingleProcess(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		n := 1 + rng.Intn(400)
		nObj := 1 + rng.Intn(3)
		k := 1 + rng.Intn(8)
		topk := 1 + rng.Intn(12)
		objective := rng.Intn(nObj)
		var constraints []Constraint
		if nObj > 1 && rng.Intn(2) == 0 {
			constraints = []Constraint{{Objective: (objective + 1) % nObj, Max: 1.5}}
		}
		cands := randomMergeCandidates(rng, n, nObj)

		single := NewTopK(topk, objective, constraints)
		for i, c := range cands {
			single.Collect(i, c)
		}

		merged := NewTopK(topk, objective, constraints)
		for _, s := range shardSplit(n, k) {
			part := NewTopK(topk, objective, constraints)
			for i := s[0]; i < s[1]; i++ {
				part.Collect(i, cands[i])
			}
			merged.Merge(part)
		}

		if merged.Seen() != single.Seen() || merged.Feasible() != single.Feasible() {
			t.Fatalf("seed %d: merged seen/feasible = %d/%d, single = %d/%d",
				seed, merged.Seen(), merged.Feasible(), single.Seen(), single.Feasible())
		}
		got, want := merged.Results(), single.Results()
		if len(got) != len(want) {
			t.Fatalf("seed %d (n=%d k=%d topk=%d): merged kept %d, single kept %d",
				seed, n, k, topk, len(got), len(want))
		}
		for i := range want {
			if frontierKey(got[i]) != frontierKey(want[i]) {
				t.Fatalf("seed %d (n=%d k=%d topk=%d): rank %d differs:\n  got  %s\n  want %s",
					seed, n, k, topk, i, frontierKey(got[i]), frontierKey(want[i]))
			}
		}
	}
}

// TestTopKMergeRejectsMismatchedRules: merging collectors with different
// selection rules is a programming error and must fail loudly.
func TestTopKMergeRejectsMismatchedRules(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging TopK collectors with different k did not panic")
		}
	}()
	a := NewTopK(3, 0, nil)
	b := NewTopK(5, 0, nil)
	a.Merge(b)
}

// TestFrontierOrderMatchesStableSort holds Frontier's index-permutation
// sort to the reflection sort it replaced (sort.SliceStable by lexLess
// over deep copies) on tie-heavy frontiers: duplicate score vectors, and
// first-objective ties that the later objectives order, must come back
// in the same order, collector order breaking exact ties.
func TestFrontierOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := range 40 {
		nObj := 2 + trial%3
		f := NewFrontierCollector()
		for i := range 50 + rng.Intn(400) {
			// Every vector sums to the same total, so none dominates
			// another and all join the frontier, with few distinct values
			// per objective.
			scores := make([]float64, nObj)
			sum := 0
			for j := range nObj - 1 {
				v := rng.Intn(4)
				scores[j], sum = float64(v)/4, sum+v
			}
			scores[nObj-1] = float64(3*(nObj-1)-sum) / 4
			cfg := space.Baseline()
			cfg.ROBSize = 96 + i
			f.Collect(i, Candidate{Config: cfg, Scores: scores})
		}
		// Duplicates of members, arriving in a shuffled order, survive.
		members := append([]Candidate(nil), f.frontier...)
		rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
		for i, m := range members[:len(members)/2] {
			m.Config.IQSize = 1000 + i
			f.Collect(0, Candidate{Config: m.Config, Scores: append([]float64(nil), m.Scores...)})
		}
		want := make([]Candidate, len(f.frontier))
		for i, c := range f.frontier {
			want[i] = Candidate{Config: c.Config, Scores: append([]float64(nil), c.Scores...)}
		}
		sort.SliceStable(want, func(a, b int) bool { return lexLess(want[a].Scores, want[b].Scores) })
		got := f.Frontier()
		ties := 0
		for i := range want {
			if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
				t.Fatalf("trial %d: rank %d is %v, the stable sort's %v", trial, i, got[i], want[i])
			}
			if i > 0 && want[i].Scores[0] == want[i-1].Scores[0] {
				ties++
			}
		}
		if len(got) != len(want) || ties == 0 {
			t.Fatalf("trial %d: %d points for %d, %d first-objective ties", trial, len(got), len(want), ties)
		}
	}
}
