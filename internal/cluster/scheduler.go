package cluster

// This file is the coordinator's shard scheduler: shards are carved off
// the design list on demand (not pre-partitioned), each sized for the
// worker about to take it, and each placed by the configured Policy
// (policy.go) over a snapshot of the live fleet — benchmark-affinity
// ring routing by default, queue-depth, packing, or oversubscription
// strategies by choice.

// carver hands out contiguous shards of a sweep's remaining design
// segments on demand. A fresh sweep is one segment covering the whole
// list; an adopted sweep's segments are the complement of the replicated
// shard ledger, with Start offsets preserved so every candidate keeps
// the index it would have had in the uninterrupted run. Shard boundaries
// do not affect the merged answer (the reductions are associative and
// property-tested shard-size-independent), so the carver is free to size
// every bite for whichever worker takes it. Callers serialise access
// (the coordinator carves under its own lock).
type carver struct {
	segments []Segment
	seg      int // current segment
	off      int // offset within it
}

// take carves the next shard of up to n designs; ok is false when every
// segment is exhausted. A shard never spans segments: the ranges between
// them are already merged, and re-evaluating them would double-count.
func (cv *carver) take(n int) (Shard, bool) {
	for cv.seg < len(cv.segments) && cv.off >= cv.segments[cv.seg].Count {
		cv.seg++
		cv.off = 0
	}
	if cv.seg >= len(cv.segments) {
		return Shard{}, false
	}
	if n < 1 {
		n = 1
	}
	s := cv.segments[cv.seg]
	n = min(n, s.Count-cv.off)
	shard := Shard{Start: s.Start + cv.off, Count: n}
	if s.Designs != nil {
		shard.Designs = s.Designs[cv.off : cv.off+n]
	}
	cv.off += n
	return shard, true
}

// nextAssignment carves the next shard and claims a worker slot for it.
// The shard is sized for the chosen worker's observed latency (adaptive
// sizing) and the pick sees the fleet as it is right now — a worker that
// joined a second ago is already schedulable, an evicted one already
// isn't. The claimed member is nil when no live worker exists (the shard
// then fails with a diagnosable error instead of blocking forever).
func (c *Coordinator) nextAssignment(cv *carver, benchmark string) (Shard, *member, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	name := c.pickWorkerLocked(benchmark, nil)
	s, ok := cv.take(c.shardSizeLocked(name))
	if !ok {
		return Shard{}, nil, false
	}
	m := c.members[name]
	if m != nil {
		m.inflight++
	}
	return s, m, true
}

// claimRetry picks and claims the scheduler's next choice among live
// workers not yet tried for a failing shard (nil when none is left).
func (c *Coordinator) claimRetry(benchmark string, tried map[string]bool) *member {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.members[c.pickWorkerLocked(benchmark, tried)]
	if m != nil {
		m.inflight++
	}
	return m
}

// pickWorkerLocked routes one shard: it snapshots the live, untried
// fleet into a PlacementView and takes the configured Policy's top
// ranked worker. Liveness and tried-exclusion are enforced here, outside
// the policy — a policy cannot place on an evicted or exhausted worker
// even if it misranks.
func (c *Coordinator) pickWorkerLocked(benchmark string, tried map[string]bool) string {
	v, ok := c.placementViewLocked(benchmark, tried)
	if !ok {
		return ""
	}
	for _, name := range c.policy.Rank(v) {
		if m := c.members[name]; m != nil && !tried[name] {
			c.metrics.placements.Inc()
			return name
		}
	}
	return ""
}

// placementViewLocked builds the fleet snapshot a Policy ranks: live,
// untried workers in consistent-hash ring order for the benchmark, each
// annotated with dispatch state (inflight, EWMA) and heartbeat adverts
// (capacity, model inventory, queue depths). The leading Replicas ring
// positions are marked Home — the set Warm pre-places models on.
func (c *Coordinator) placementViewLocked(benchmark string, tried map[string]bool) (PlacementView, bool) {
	if len(c.members) == 0 {
		return PlacementView{}, false
	}
	order := c.ring.order(benchmark)
	replicas := c.replicasLocked()
	if replicas > len(order) {
		replicas = len(order)
	}
	v := PlacementView{Benchmark: benchmark, Workers: make([]WorkerView, 0, len(order)), Deal: c.nextDeal()}
	for i, name := range order {
		if tried[name] {
			continue
		}
		m := c.members[name]
		if m == nil {
			continue
		}
		w := WorkerView{
			Name:            name,
			Home:            i < replicas,
			HasModels:       m.benchmarks[benchmark],
			Inflight:        m.inflight,
			Capacity:        m.capacity,
			EWMAPerDesignMS: m.ewmaPerDesignMS,
		}
		for b, n := range m.queueDepths {
			w.QueueTotal += n
			if b == benchmark {
				w.QueueDepth = n
			}
		}
		v.Workers = append(v.Workers, w)
	}
	if len(v.Workers) == 0 {
		return PlacementView{}, false
	}
	return v, true
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
func (c *Coordinator) shardSizeLocked(name string) int {
	size := c.opts.ShardSize
	if c.opts.TargetShardTime <= 0 || name == "" {
		return size
	}
	m := c.members[name]
	if m == nil || m.ewmaPerDesignMS <= 0 {
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
