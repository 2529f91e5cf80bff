package cluster

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/space"
	"repro/internal/wire"
)

// This file is the job-survival seam of the leaderless control plane:
// a distributed sweep can start from a replicated mid-flight state —
// the segments of the design list not yet covered by the shard ledger,
// plus the latest merged cumulative snapshot — instead of from zero.
// Because the collectors are associative and snapshots cumulative, a
// peer that adopts an orphaned job and resumes it here produces the
// exact answer the dead owner would have: every design merges exactly
// once across the handoff (the ledger excludes the merged ranges, and
// the PR 9 invariant — dedup at the coordinator, not the collector —
// guarantees it within each run).

// Segment is one contiguous, not-yet-merged range [Start, Start+Count)
// of a sweep's design list. Start is the range's offset in the full
// list; preserving it keeps candidate indices — and therefore top-K
// tie-breaking — identical to the uninterrupted run. Designs is set only
// for a pinned space (an explicit list or an LHS sample) and then holds
// the range's Count designs; a range of a named, unsampled space is its
// position alone, and its shards travel as windows (Query.Space).
type Segment struct {
	Start   int
	Count   int
	Designs []space.Config
}

// Seed is the replicated merged-so-far state a resumed sweep starts
// from: cumulative counters plus the latest merged snapshot (with
// original design indices, see Progress.Indexed).
type Seed struct {
	Evaluated  int
	Feasible   int
	Shards     int
	Candidates []IndexedCandidate
}

// SegmentsAfter computes the complement of a merged-shard ledger over a
// design list of n designs — the segments a job still has to dispatch:
// all of [0, n) for a fresh job's empty ledger, what the dead owner left
// for an adopter. The ledger must be sorted and coalesced (wire.AddRange
// maintains both); out-of-bounds ranges are clamped. The segments name
// positions only; Pin attaches a pinned list's designs.
func SegmentsAfter(n int, done []wire.ShardRange) []Segment {
	var segs []Segment
	pos := 0
	for _, r := range done {
		start, end := min(r.Start, n), min(r.Start+r.Count, n)
		if start > pos {
			segs = append(segs, Segment{Start: pos, Count: start - pos})
		}
		pos = max(pos, end)
	}
	if pos < n {
		segs = append(segs, Segment{Start: pos, Count: n - pos})
	}
	return segs
}

// Pin attaches to each segment its range of the pinned design list,
// aliasing it, and returns segs.
func Pin(segs []Segment, designs []space.Config) []Segment {
	for i, s := range segs {
		segs[i].Designs = designs[s.Start : s.Start+s.Count]
	}
	return segs
}

func segmentsTotal(segs []Segment) int {
	n := 0
	for _, s := range segs {
		n += s.Count
	}
	return n
}

// Run distributes one job of the query's kind over the fleet, or resumes
// one: it evaluates the given segments shard by shard, folds every
// shard's partial answer into the kind's collector, seeded from seed,
// and returns the merged answer, which equals the single-process answer
// over the same designs up to ordering (a top K candidate for
// candidate). Seed candidates re-enter the collector with their
// original indices, so a resumed top K tie-breaks exactly as the
// uninterrupted job would. obs, when non-nil, sees the merged answer
// after every shard. With every segment already merged it returns the
// seed's answer directly.
func (c *Coordinator) Run(ctx context.Context, q Query, segments []Segment, seed Seed, obs Observer) (*Result, error) {
	merged := q.NewCollector()
	for _, ic := range seed.Candidates {
		merged.Collect(ic.Index, ic.Candidate)
	}
	if segmentsTotal(segments) == 0 {
		if seed.Shards == 0 {
			return nil, fmt.Errorf("cluster: no designs to sweep")
		}
		answer, _, _ := Snapshot(merged)
		return &Result{Evaluated: seed.Evaluated, Feasible: seed.Feasible, Candidates: answer}, nil
	}
	var mu sync.Mutex
	evaluated, feasible, mergedShards := seed.Evaluated, seed.Feasible, seed.Shards
	shards, retries, err := c.run(ctx, q, segments, func(worker string, s Shard, p *Partial) {
		c.metrics.mergeSize.Observe(float64(len(p.Candidates)))
		workers := len(c.fleet())
		mu.Lock()
		defer mu.Unlock()
		// The partial's counters cover the whole shard; its candidates
		// are only the shard's survivors, so the job's counts are the
		// partial sums, never the merged collector's.
		evaluated += p.Evaluated
		feasible += p.Feasible
		mergedShards++
		for _, ic := range p.Candidates {
			merged.Collect(ic.Index, ic.Candidate)
		}
		if obs != nil {
			answer, _, indexed := Snapshot(merged)
			obs(Progress{
				Worker:     worker,
				Delta:      p.Evaluated,
				Evaluated:  evaluated,
				Feasible:   feasible,
				Shards:     mergedShards,
				Workers:    workers,
				Candidates: answer,
				ShardStart: s.Start,
				ShardLen:   s.Count,
				Indexed:    indexed,
			})
		}
	})
	if err != nil {
		return nil, err
	}
	answer, _, _ := Snapshot(merged)
	return &Result{Evaluated: evaluated, Feasible: feasible, Candidates: answer, Shards: shards, Retries: retries}, nil
}
