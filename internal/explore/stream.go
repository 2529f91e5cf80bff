package explore

import (
	"sort"
	"sync"
)

// TopK is a streaming Collector that retains the k best feasible
// candidates by one objective (lower is better), so constrained selection
// over a million-design sweep holds k candidates alive instead of all of
// them. Ties break towards the lower design index, which makes the
// result deterministic no matter how a parallel sweep interleaves. Its
// methods are safe for concurrent use, so a snapshot may be taken while a
// sweep collects.
type TopK struct {
	objective   int
	k           int
	constraints []Constraint

	mu       sync.Mutex
	seen     int
	feasible int
	heap     []topkEntry // max-heap: worst retained candidate at the root
}

type topkEntry struct {
	c     Candidate
	index int
}

// NewTopK builds a collector keeping the k minimisers of the given
// objective among candidates satisfying every constraint.
func NewTopK(k, objective int, constraints []Constraint) *TopK {
	if k < 1 {
		k = 1
	}
	return &TopK{objective: objective, k: k, constraints: constraints}
}

// before reports whether score sa at index ia ranks strictly better
// than score sb at index ib: lower score first, then lower index.
func before(sa float64, ia int, sb float64, ib int) bool {
	if sa != sb {
		return sa < sb
	}
	return ia < ib
}

// worse orders heap entries: higher score first, then higher index.
func (t *TopK) worse(a, b topkEntry) bool {
	return before(b.c.Scores[t.objective], b.index, a.c.Scores[t.objective], a.index)
}

// Collect offers one candidate. It implements Collector.
func (t *TopK) Collect(index int, c Candidate) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.offer(index, c.Scores) {
		t.insert(topkEntry{c: c, index: index})
	}
}

// collectChunk offers a sweep chunk's candidates, decoding the Config of
// only those the heap takes. It implements chunkCollector.
func (t *TopK) collectChunk(c *chunk) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for j := 0; j < c.n; j++ {
		if s := c.scoresOf(j); t.offer(c.start+j, s) {
			t.insert(topkEntry{c: Candidate{Config: c.config(j), Scores: s}, index: c.start + j})
		}
	}
}

// offer counts one candidate and reports whether the heap takes it: it
// is feasible, and the heap has room or it ranks before the worst
// retained entry.
func (t *TopK) offer(index int, scores []float64) bool {
	t.seen++
	for _, con := range t.constraints {
		if scores[con.Objective] > con.Max {
			return false
		}
	}
	t.feasible++
	if len(t.heap) < t.k {
		return true
	}
	root := t.heap[0]
	return before(scores[t.objective], index, root.c.Scores[t.objective], root.index)
}

// insert offers one already-feasible entry to the bounded heap. The
// entry's Scores may be caller scratch (see Collector), so retained
// entries get their own copy; once the heap is full, each accepted entry
// reuses the evicted root's buffer, keeping steady-state collection
// allocation-free.
func (t *TopK) insert(e topkEntry) {
	if len(t.heap) < t.k {
		e.c.Scores = append([]float64(nil), e.c.Scores...)
		t.heap = append(t.heap, e)
		t.siftUp(len(t.heap) - 1)
		return
	}
	if t.worse(t.heap[0], e) {
		e.c.Scores = append(t.heap[0].c.Scores[:0], e.c.Scores...)
		t.heap[0] = e
		t.siftDown(0)
	}
}

// Merge folds another collector's retained candidates and counters into t,
// so a sweep can be partitioned into shards, collected per shard, and
// merged: top-K selection is associative (the global top K is a subset of
// the union of shard top Ks), so the merged result equals collecting the
// whole sweep into one TopK — exactly, provided the shards' candidate
// indexes form a consistent total order across shards: distinct, and
// ordering any two candidates the same way global design indexes would.
// Global design indexes satisfy this directly; so does the cluster
// transports' shard-start-plus-rank tagging (ranks are order-preserving
// within a shard and shard ranges do not overlap). Both collectors must
// have been built with the same k, objective, and constraints; o must not
// be t, nor be merging t into itself at the same time.
func (t *TopK) Merge(o *TopK) {
	if o.k != t.k || o.objective != t.objective || len(o.constraints) != len(t.constraints) {
		panic("explore: merging TopK collectors with different selection rules")
	}
	for i, con := range t.constraints {
		if o.constraints[i] != con {
			panic("explore: merging TopK collectors with different constraints")
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seen += o.seen
	t.feasible += o.feasible
	for _, e := range o.heap {
		t.insert(e)
	}
}

func (t *TopK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.worse(t.heap[i], t.heap[parent]) {
			return
		}
		t.heap[i], t.heap[parent] = t.heap[parent], t.heap[i]
		i = parent
	}
}

func (t *TopK) siftDown(i int) {
	for {
		worst := i
		for _, child := range []int{2*i + 1, 2*i + 2} {
			if child < len(t.heap) && t.worse(t.heap[child], t.heap[worst]) {
				worst = child
			}
		}
		if worst == i {
			return
		}
		t.heap[i], t.heap[worst] = t.heap[worst], t.heap[i]
		i = worst
	}
}

// Results returns the retained candidates, best first. Scores are deep
// copies: the collector recycles its internal buffers as collection
// continues, so snapshots taken mid-sweep must not alias them.
func (t *TopK) Results() []Candidate {
	entries := t.Entries()
	out := make([]Candidate, len(entries))
	for i, e := range entries {
		out[i] = e.Candidate
	}
	return out
}

// IndexedEntry is one retained candidate together with its position in
// the original design list — the replication form of a TopK snapshot.
// Results drops indices, but selection tie-breaks on them, so a
// snapshot that will later re-enter a collector via Collect (job
// adoption) must carry them to stay bit-identical with an uninterrupted
// run.
type IndexedEntry struct {
	Index     int
	Candidate Candidate
}

// Entries returns the retained candidates with their original design
// indices, best first. Scores are deep copies, like Results.
func (t *TopK) Entries() []IndexedEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	entries := append([]topkEntry(nil), t.heap...)
	sort.Slice(entries, func(a, b int) bool { return t.worse(entries[b], entries[a]) })
	out := make([]IndexedEntry, len(entries))
	for i, e := range entries {
		out[i] = IndexedEntry{
			Index:     e.index,
			Candidate: Candidate{Config: e.c.Config, Scores: append([]float64(nil), e.c.Scores...)},
		}
	}
	return out
}

// Seen returns how many candidates were offered.
func (t *TopK) Seen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seen
}

// Feasible returns how many offered candidates satisfied the constraints.
func (t *TopK) Feasible() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.feasible
}

// FrontierCollector is a streaming Collector that maintains the Pareto
// frontier incrementally: each arriving candidate is dropped if a
// retained one dominates it, and evicts any retained candidates it
// dominates. The non-dominated set is unique, so the result is
// independent of arrival order. Memory stays proportional to the
// frontier, not the sweep. Its methods are safe for concurrent use, so a
// snapshot may be taken while a sweep collects.
type FrontierCollector struct {
	mu       sync.Mutex
	seen     int
	frontier []Candidate
	// free holds the Scores buffers of evicted frontier members for reuse,
	// so a stabilised frontier churns without allocating (arriving
	// candidates carry caller scratch — see Collector — and retained ones
	// need their own copy).
	free [][]float64
	// hint indexes the member that last rejected an arrival. Designs that
	// arrive together score alike, so it is checked first and usually
	// rejects the next arrival without a scan. Rejecting on any member's
	// dominance is correct, so the hint needs no upkeep when members move.
	hint int
}

// NewFrontierCollector builds an empty streaming frontier.
func NewFrontierCollector() *FrontierCollector {
	return &FrontierCollector{}
}

// Collect offers one candidate. It implements Collector.
func (f *FrontierCollector) Collect(_ int, c Candidate) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seen++
	f.add(c)
}

// collectChunk offers a sweep chunk's candidates, decoding the Config of
// only those that join the frontier. It implements chunkCollector.
func (f *FrontierCollector) collectChunk(c *chunk) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seen += c.n
	for j := 0; j < c.n; j++ {
		if m := f.admit(c.scoresOf(j)); m != nil {
			m.Config = c.config(j)
		}
	}
}

// add is Collect without the lock and the seen counter.
func (f *FrontierCollector) add(c Candidate) {
	if m := f.admit(c.Scores); m != nil {
		m.Config = c.Config
	}
}

// admit offers a candidate's scores to the frontier. When no member
// dominates them it evicts the members they dominate, appends a member
// holding a copy of the scores, and returns it for the caller to fill in
// its Config; otherwise it returns nil.
func (f *FrontierCollector) admit(scores []float64) *Candidate {
	if f.hint < len(f.frontier) && dominatesScores(f.frontier[f.hint].Scores, scores) {
		return nil
	}
	// Members are visited in place and moved only when an eviction opens a
	// gap: a Candidate carries a whole Config, and this runs per design.
	kept := 0
	for i := range f.frontier {
		old := &f.frontier[i]
		if dominatesScores(old.Scores, scores) {
			f.hint = i
			return nil // arriving candidate loses; survivors were already mutually non-dominated
		}
		if dominatesScores(scores, old.Scores) {
			f.free = append(f.free, old.Scores[:0])
			continue
		}
		if kept != i {
			f.frontier[kept] = *old
		}
		kept++
	}
	var buf []float64
	if n := len(f.free); n > 0 {
		buf, f.free = f.free[n-1], f.free[:n-1]
	}
	f.frontier = append(f.frontier[:kept], Candidate{Scores: append(buf, scores...)})
	return &f.frontier[kept]
}

// Merge folds another frontier into f, so a sweep can be partitioned into
// shards, collected per shard, and merged. Pareto dominance is associative:
// the frontier of a union is the frontier of the union of the parts'
// frontiers, so the merged collector holds exactly the frontier (and total
// seen count) one collector would have accumulated over the whole sweep.
// o must not be f itself, nor be merging f into itself at the same time.
func (f *FrontierCollector) Merge(o *FrontierCollector) {
	o.mu.Lock()
	defer o.mu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seen += o.seen
	for _, c := range o.frontier {
		f.add(c)
	}
}

// Seen returns how many candidates were offered.
func (f *FrontierCollector) Seen() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seen
}

// Frontier returns the current non-dominated set sorted by the first
// objective (ascending, ties by the second and so on). Scores are deep
// copies: the collector recycles evicted members' buffers as collection
// continues, so snapshots taken mid-sweep must not alias them.
func (f *FrontierCollector) Frontier() []Candidate {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Candidate, len(f.frontier))
	for i, c := range f.frontier {
		out[i] = Candidate{Config: c.Config, Scores: append([]float64(nil), c.Scores...)}
	}
	sort.SliceStable(out, func(a, b int) bool { return lexLess(out[a].Scores, out[b].Scores) })
	return out
}
