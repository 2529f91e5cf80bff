package explore

import (
	"math"
	"slices"
)

// dominatesScores reports whether scores a are at least as good as b
// everywhere and strictly better somewhere (minimisation).
func dominatesScores(a, b []float64) bool {
	strictly := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strictly = true
		}
	}
	return strictly
}

// lexCmp orders score vectors lexicographically — the preprocessing order
// shared by every frontier algorithm below. After sorting by it no
// candidate can dominate one that precedes it.
func lexCmp(a, b []float64) int {
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// lexKey2 is the flat sort key for two-objective frontiers.
type lexKey2 struct {
	a, b float64
	i    int32
}

// ParetoFrontier extracts the non-dominated candidates, preserving input
// order. Exactly-equal candidates do not dominate each other, so
// duplicates of a frontier point all survive — the same convention as a
// brute-force pairwise scan, at O(n log n) for one or two objectives and
// divide-and-conquer (Kung et al.) cost for higher dimensions instead of
// O(n²).
func ParetoFrontier(cands []Candidate) []Candidate {
	n := len(cands)
	if n == 0 {
		return nil
	}
	// Dominance prefilter: one linear pass against a single aggressive
	// pivot — the candidate with the smallest score sum — discards the
	// bulk of a random sweep before the O(n log n) sort pays off. A point
	// the pivot dominates cannot be on the frontier, and removing
	// dominated points never changes dominance among survivors, so the
	// kept set is identical. (NaN scores neither win the pivot race nor
	// dominate anything, so they pass through unharmed.)
	pivot := 0
	bestSum := math.Inf(1)
	for i := range cands {
		s := 0.0
		for _, v := range cands[i].Scores {
			s += v
		}
		if s < bestSum {
			bestSum, pivot = s, i
		}
	}
	pv := cands[pivot].Scores
	idx := make([]int, 0, n)
	for i := range cands {
		if !dominatesScores(pv, cands[i].Scores) {
			idx = append(idx, i)
		}
	}
	// Unstable sort is safe here: the sort is internal (results are
	// re-emitted in input order via the kept mask below), and frontier
	// membership depends only on score values — candidates with equal
	// score vectors are interchangeable to every algorithm underneath and
	// never dominate each other, so any lexCmp-consistent order yields the
	// same kept set. Pattern-defeating quicksort beats a stable merge by a
	// wide margin at sweep sizes. For the ubiquitous two-objective sweep
	// the comparator runs on flat value keys instead of chasing
	// cands[i].Scores through two indirections per comparison.
	if len(cands[0].Scores) == 2 {
		keys := make([]lexKey2, len(idx))
		for k, i := range idx {
			s := cands[i].Scores
			keys[k] = lexKey2{a: s[0], b: s[1], i: int32(i)}
		}
		slices.SortFunc(keys, func(p, q lexKey2) int {
			switch {
			case p.a < q.a:
				return -1
			case p.a > q.a:
				return 1
			case p.b < q.b:
				return -1
			case p.b > q.b:
				return 1
			}
			return 0
		})
		for k := range keys {
			idx[k] = int(keys[k].i)
		}
	} else {
		slices.SortFunc(idx, func(a, b int) int {
			return lexCmp(cands[a].Scores, cands[b].Scores)
		})
	}
	var keep []int
	switch len(cands[0].Scores) {
	case 0:
		keep = idx // no objectives: nothing can dominate
	case 1:
		keep = frontier1D(cands, idx)
	case 2:
		keep = frontier2D(cands, idx)
	default:
		keep = frontierDC(cands, idx)
	}
	kept := make([]bool, n)
	for _, i := range keep {
		kept[i] = true
	}
	out := make([]Candidate, 0, len(keep))
	for i, c := range cands {
		if kept[i] {
			out = append(out, c)
		}
	}
	return out
}

// frontier1D keeps every candidate tied with the minimum.
func frontier1D(cands []Candidate, idx []int) []int {
	min := cands[idx[0]].Scores[0]
	var keep []int
	for _, i := range idx {
		if cands[i].Scores[0] != min {
			break
		}
		keep = append(keep, i)
	}
	return keep
}

// frontier2D is the classic sorted sweep: walk groups of equal first
// score; within a group only candidates at the group's minimal second
// score survive, and only if every strictly-better-on-x group seen so far
// had a strictly worse second score.
func frontier2D(cands []Candidate, idx []int) []int {
	var keep []int
	bestY := math.Inf(1)
	for g := 0; g < len(idx); {
		x := cands[idx[g]].Scores[0]
		end := g
		gminY := math.Inf(1)
		for end < len(idx) && cands[idx[end]].Scores[0] == x {
			if y := cands[idx[end]].Scores[1]; y < gminY {
				gminY = y
			}
			end++
		}
		for _, i := range idx[g:end] {
			if y := cands[i].Scores[1]; y == gminY && y < bestY {
				keep = append(keep, i)
			}
		}
		if gminY < bestY {
			bestY = gminY
		}
		g = end
	}
	return keep
}

// frontierDC is Kung's divide and conquer over the lex-sorted order: a
// later candidate can never dominate an earlier one, so the left half's
// frontier is final and the right half's survivors only need checking
// against it.
func frontierDC(cands []Candidate, idx []int) []int {
	if len(idx) <= 64 {
		return bruteFrontier(cands, idx)
	}
	mid := len(idx) / 2
	left := frontierDC(cands, idx[:mid])
	right := frontierDC(cands, idx[mid:])
	out := left
	for _, r := range right {
		dominated := false
		for _, l := range left {
			if dominatesScores(cands[l].Scores, cands[r].Scores) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, r)
		}
	}
	return out
}

// bruteFrontier is the pairwise base case.
func bruteFrontier(cands []Candidate, idx []int) []int {
	var keep []int
	for _, i := range idx {
		dominated := false
		for _, j := range idx {
			if i != j && dominatesScores(cands[j].Scores, cands[i].Scores) {
				dominated = true
				break
			}
		}
		if !dominated {
			keep = append(keep, i)
		}
	}
	return keep
}

// incumbentCap caps a sweep worker's incumbent. Each subtree test scans
// it, so it stays small even when the frontier is large; pruning against
// fewer points only prunes less, never wrongly.
const incumbentCap = 64

// incumbent is a pruning sweep worker's capped Pareto set of score
// vectors: the sweep's seed, if any (FrontierCollector.Seed), then those
// it has scored in the current sweep (worker.offerBest) — every one a
// real design's scores, so a member that beats a subtree's low corner in
// every objective dominates every design of the subtree. Its
// vectors live in one preallocated array, so offering a vector allocates
// nothing. Once full, it drops an arriving vector that evicts no member.
type incumbent struct {
	m, n int
	pts  []float64 // n vectors of m scores, member i at pts[i*m:]
	// hint indexes the member that last beat a corner; it is tried
	// first, like FrontierCollector's.
	hint int
}

func newIncumbent(m int) incumbent {
	return incumbent{m: m, pts: make([]float64, incumbentCap*m)}
}

func (in *incumbent) at(i int) []float64 { return in.pts[i*in.m : (i+1)*in.m : (i+1)*in.m] }

// offer adds s unless a member is at least as good in every objective,
// evicting the members s dominates.
func (in *incumbent) offer(s []float64) {
	for i := 0; i < in.n; i++ {
		if covers(in.at(i), s) {
			return
		}
	}
	kept := 0
	for i := 0; i < in.n; i++ {
		if dominatesScores(s, in.at(i)) {
			continue
		}
		if kept != i {
			copy(in.at(kept), in.at(i))
		}
		kept++
	}
	if in.n = kept; in.n < incumbentCap {
		copy(in.at(in.n), s)
		in.n++
	}
}

// beats reports whether some member is strictly below lo in every
// objective. A NaN anywhere compares false, so it never beats.
func (in *incumbent) beats(lo []float64) bool {
	if in.hint < in.n && below(in.at(in.hint), lo) {
		return true
	}
	for i := 0; i < in.n; i++ {
		if below(in.at(i), lo) {
			in.hint = i
			return true
		}
	}
	return false
}

// covers reports whether a is at least as good as b in every objective.
func covers(a, b []float64) bool {
	for i := range a {
		if !(a[i] <= b[i]) {
			return false
		}
	}
	return true
}

// below reports whether a is strictly better than b in every objective.
func below(a, b []float64) bool {
	for i := range a {
		if !(a[i] < b[i]) {
			return false
		}
	}
	return true
}
