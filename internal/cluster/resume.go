package cluster

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/explore"
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

// ParetoResumeObserved runs (or resumes) a distributed frontier sweep
// over the given segments, starting from seed. ParetoObserved is the
// fresh-sweep special case (one segment, empty seed). With every
// segment already merged it returns the seed's answer directly.
func (c *Coordinator) ParetoResumeObserved(ctx context.Context, q Query, segments []Segment, seed Seed, obs Observer) (*ParetoResult, error) {
	merged := explore.NewFrontierCollector()
	for _, ic := range seed.Candidates {
		merged.Collect(ic.Index, ic.Candidate)
	}
	var mu sync.Mutex
	evaluated := seed.Evaluated
	mergedShards := seed.Shards
	if segmentsTotal(segments) == 0 {
		if seed.Shards == 0 {
			return nil, fmt.Errorf("cluster: no designs to sweep")
		}
		return &ParetoResult{Evaluated: evaluated, Frontier: merged.Frontier()}, nil
	}
	shards, retries, err := c.run(ctx, q, segments, Transport.Pareto, func(worker string, s Shard, p *Partial) {
		// The rebuilt per-shard collector exists to feed Merge; its seen
		// counter covers only the shipped frontier, so the authoritative
		// design count is the summed partial.Evaluated, not merged.Seen().
		part := explore.NewFrontierCollector()
		for _, ic := range p.Candidates {
			part.Collect(ic.Index, ic.Candidate)
		}
		c.metrics.mergeSize.Observe(float64(len(p.Candidates)))
		mu.Lock()
		defer mu.Unlock()
		evaluated += p.Evaluated
		mergedShards++
		merged.Merge(part)
		if obs != nil {
			// Feasible stays zero: feasibility is a constrained-sweep
			// notion with no meaning on a frontier job.
			obs(Progress{
				Worker:     worker,
				Delta:      p.Evaluated,
				Evaluated:  evaluated,
				Shards:     mergedShards,
				Workers:    c.memberCount(),
				Candidates: merged.Frontier(),
				ShardStart: s.Start,
				ShardLen:   s.Count,
			})
		}
	})
	if err != nil {
		return nil, err
	}
	return &ParetoResult{
		Evaluated: evaluated,
		Frontier:  merged.Frontier(),
		Shards:    shards,
		Retries:   retries,
	}, nil
}

// SweepResumeObserved runs (or resumes) a distributed constrained top-K
// sweep over the given segments, starting from seed. Seed candidates
// re-enter the collector with their original indices, so tie-breaking —
// and therefore the final top K — is bit-identical to the uninterrupted
// run.
func (c *Coordinator) SweepResumeObserved(ctx context.Context, q Query, segments []Segment, seed Seed, obs Observer) (*SweepResult, error) {
	if q.TopK <= 0 {
		q.TopK = 10
	}
	merged := explore.NewTopK(q.TopK, q.Objective, q.Constraints)
	for _, ic := range seed.Candidates {
		merged.Collect(ic.Index, ic.Candidate)
	}
	var mu sync.Mutex
	evaluated, feasible := seed.Evaluated, seed.Feasible
	mergedShards := seed.Shards
	if segmentsTotal(segments) == 0 {
		if seed.Shards == 0 {
			return nil, fmt.Errorf("cluster: no designs to sweep")
		}
		return &SweepResult{Evaluated: evaluated, Feasible: feasible, Candidates: merged.Results()}, nil
	}
	shards, retries, err := c.run(ctx, q, segments, Transport.Sweep, func(worker string, s Shard, p *Partial) {
		part := explore.NewTopK(q.TopK, q.Objective, q.Constraints)
		for _, ic := range p.Candidates {
			part.Collect(ic.Index, ic.Candidate)
		}
		c.metrics.mergeSize.Observe(float64(len(p.Candidates)))
		mu.Lock()
		defer mu.Unlock()
		// The partial's counters cover the whole shard; the rebuilt
		// collector saw only its k survivors, so the response counts come
		// from the partial sums, not the merged collector.
		evaluated += p.Evaluated
		feasible += p.Feasible
		mergedShards++
		merged.Merge(part)
		if obs != nil {
			obs(Progress{
				Worker:     worker,
				Delta:      p.Evaluated,
				Evaluated:  evaluated,
				Feasible:   feasible,
				Shards:     mergedShards,
				Workers:    c.memberCount(),
				Candidates: merged.Results(),
				ShardStart: s.Start,
				ShardLen:   s.Count,
				Indexed:    indexedEntries(merged),
			})
		}
	})
	if err != nil {
		return nil, err
	}
	return &SweepResult{
		Evaluated:  evaluated,
		Feasible:   feasible,
		Candidates: merged.Results(),
		Shards:     shards,
		Retries:    retries,
	}, nil
}

// indexedEntries converts a TopK's retained entries to the replication
// form.
func indexedEntries(t *explore.TopK) []IndexedCandidate {
	entries := t.Entries()
	out := make([]IndexedCandidate, len(entries))
	for i, e := range entries {
		out[i] = IndexedCandidate{Index: e.Index, Candidate: e.Candidate}
	}
	return out
}
