package cluster

import (
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/space"
)

// This file is the coordinator's shard scheduler: shards are carved off
// the design list on demand (not pre-partitioned), each sized for the
// worker about to take it, and each placed on the first worker of one
// ranking rule (rank) over the fleet source's current answer.

// carver hands out contiguous shards of a job's design list on demand.
// Shard boundaries do not affect the merged answer (the reductions are
// associative and property-tested shard-size-independent), so the carver
// is free to size every bite for whichever worker takes it. Each shard's
// Start is its offset in the job's list, which keeps every candidate's
// index, and so top-K tie-breaking, independent of the carving. Callers
// serialise access (the coordinator carves under its own lock).
type carver struct {
	n      int            // the job's design count
	pinned []space.Config // its designs, when pinned (nil for a window)
	off    int            // designs carved so far
	// incumbent is what each shard carved from now on carries as
	// Shard.Incumbent; a frontier job's Run replaces it after every
	// merge of its window shards.
	incumbent atomic.Pointer[[][]float64]
}

// take carves the next shard of up to size designs; ok is false once the
// list is exhausted.
func (cv *carver) take(size int) (Shard, bool) {
	if cv.off >= cv.n {
		return Shard{}, false
	}
	size = min(max(size, 1), cv.n-cv.off)
	shard := Shard{Start: cv.off, Count: size}
	if cv.pinned != nil {
		shard.Designs = cv.pinned[cv.off : cv.off+size]
	}
	if inc := cv.incumbent.Load(); inc != nil {
		shard.Incumbent = *inc
	}
	cv.off += size
	return shard, true
}

// nextAssignment carves the next shard and claims a worker slot for it.
// The shard is sized for the chosen worker's observed latency (adaptive
// sizing) and the pick sees the fleet as it is right now — a worker that
// joined a second ago is already schedulable, an evicted one already
// isn't. The worker is nil when none is live (the shard then
// fails with a diagnosable error instead of blocking forever).
func (c *Coordinator) nextAssignment(cv *carver, benchmark string) (Shard, *worker, bool) {
	fleet := c.fleet()
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.pickLocked(fleet, benchmark, nil)
	s, ok := cv.take(c.shardSizeLocked(m))
	if !ok {
		return Shard{}, nil, false
	}
	if m != nil {
		m.inflight++
	}
	return s, m, true
}

// claimRetry picks and claims the scheduler's next choice among live
// workers not yet tried for a failing shard (nil when none is left).
func (c *Coordinator) claimRetry(benchmark string, tried map[string]bool) *worker {
	fleet := c.fleet()
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.pickLocked(fleet, benchmark, tried)
	if m != nil {
		m.inflight++
	}
	return m
}

// pickLocked routes one shard to the top-ranked worker among the live
// fleet, just read from the fleet source, not yet tried for it.
// Liveness and tried-exclusion are enforced here, before ranking, so a
// shard cannot land on an evicted or exhausted worker (nil when none is
// left).
func (c *Coordinator) pickLocked(fleet []Member, benchmark string, tried map[string]bool) *worker {
	c.trackLocked(fleet)
	ws := make([]workerState, 0, len(fleet))
	for _, m := range fleet {
		name := m.Name()
		if tried[name] {
			continue
		}
		ws = append(ws, workerState{
			name:      name,
			hasModels: slices.Contains(m.Benchmarks, benchmark),
			inflight:  c.workers[name].inflight,
			capacity:  c.capacityFor(m.Capacity),
		})
	}
	if len(ws) == 0 {
		return nil
	}
	c.metrics.placements.Inc()
	return c.workers[rank(ws, c.nextDeal())[0]]
}

// workerState is one live worker as the placement rule sees it: the
// coordinator's in-flight count against the worker's advertised
// capacity, and whether it advertises the benchmark's trained models.
type workerState struct {
	name      string
	hasModels bool
	inflight  int
	capacity  int
}

// tier is a worker's placement class: free workers advertising the
// benchmark's models (0), other free workers (1), saturated ones (2).
// A model holder never trains on demand mid-sweep; a saturated worker
// is used only when nothing has a free slot, so the sweep still moves.
func (w workerState) tier() int {
	switch {
	case w.inflight >= w.capacity:
		return 2
	case w.hasModels:
		return 0
	}
	return 1
}

// rank orders workers best first: by tier, then fewest in-flight shards,
// with ties among free workers dealt round-robin over name order,
// rotated by deal so consecutive placements share equally-ranked
// workers. Saturated ties keep name order. rank is pure: the result is
// a permutation of ws's names, determined by ws and deal alone.
func rank(ws []workerState, deal int) []string {
	ws = append([]workerState(nil), ws...)
	sort.Slice(ws, func(a, b int) bool {
		x, y := ws[a], ws[b]
		if x.tier() != y.tier() {
			return x.tier() < y.tier()
		}
		if x.inflight != y.inflight {
			return x.inflight < y.inflight
		}
		return x.name < y.name
	})
	out := make([]string, 0, len(ws))
	for i := 0; i < len(ws); {
		j := i + 1
		for j < len(ws) && ws[j].tier() == ws[i].tier() && ws[j].inflight == ws[i].inflight {
			j++
		}
		tie := ws[i:j]
		k := 0
		if ws[i].tier() < 2 {
			k = deal % len(tie)
		}
		for n := range tie {
			out = append(out, tie[(k+n)%len(tie)].name)
		}
		i = j
	}
	return out
}

// nextDeal advances the round-robin dealing counter (held under c.mu).
func (c *Coordinator) nextDeal() int {
	d := c.deal
	c.deal++
	return d
}

// shardSizeLocked sizes the next shard for one worker. Fixed ShardSize
// until adaptive sizing is on (TargetShardTime > 0) and the worker has a
// latency observation; then the size that would take about
// TargetShardTime at the worker's per-design EWMA, clamped to
// [minShardSize, maxShardSize].
func (c *Coordinator) shardSizeLocked(m *worker) int {
	size := c.opts.ShardSize
	if c.opts.TargetShardTime <= 0 || m == nil || m.ewmaPerDesignMS <= 0 {
		return size
	}
	targetMS := float64(c.opts.TargetShardTime.Microseconds()) / 1000
	adaptive := int(targetMS / m.ewmaPerDesignMS)
	if adaptive < minShardSize {
		return minShardSize
	}
	if adaptive > maxShardSize {
		return maxShardSize
	}
	return adaptive
}
