package cluster

import (
	"slices"
	"time"
)

// This file is the coordinator's view of the fleet. The coordinator
// keeps no member table: it reads its fleet source at every placement,
// retry and liveness check, so the fleet it schedules over is whatever
// the source says right now. In a peer that source is the gossip table,
// the only liveness authority. The coordinator keeps only its own
// scheduler state per worker name, and an in-flight sweep re-dispatches
// only the shards orphaned by a departure.

// Member is one worker as the fleet source reports it.
type Member struct {
	Transport
	// Capacity bounds how many shards the coordinator schedules on the
	// worker at once before placement treats it as saturated (0 =
	// workerCapacity).
	Capacity int
	// Benchmarks is the worker's trained-model inventory: the benchmarks
	// whose every served metric is already in its registry. The scheduler
	// routes shards for these benchmarks to the worker first.
	Benchmarks []string
}

// worker is the scheduler's state for one worker name. It outlives the
// name's presence in the fleet only while a shard is still in flight on
// it, so a worker that returns after a clean departure starts cold.
type worker struct {
	name string
	// transport is the one the fleet source reported with the name when
	// the state was created.
	transport Transport
	// inflight counts shards currently dispatched to the worker.
	inflight int
	// ewmaPerDesignMS tracks the worker's observed per-design latency
	// (0 until the first completed shard); adaptive sizing derives the
	// worker's next shard size from it.
	ewmaPerDesignMS float64
	// gen is the fleet read that last saw the name.
	gen uint64
	// inst holds the worker's pre-registered metric handles (latency
	// histogram, fault taxonomy), created when the coordinator first
	// sees the name.
	inst workerInstruments
}

// trackLocked records one read of the fleet source. A name seen for the
// first time gets fresh scheduler state; a departed worker's state is
// dropped once nothing of it is in flight.
func (c *Coordinator) trackLocked(fleet []Member) {
	c.gen++
	for _, m := range fleet {
		c.stateLocked(m.Transport).gen = c.gen
	}
	for name, w := range c.workers {
		if w.gen != c.gen && w.inflight == 0 {
			delete(c.workers, name)
		}
	}
}

// stateLocked returns t's scheduler state, creating it (and the
// worker's metric series) on first sight of t's name.
func (c *Coordinator) stateLocked(t Transport) *worker {
	w, ok := c.workers[t.Name()]
	if !ok {
		w = &worker{name: t.Name(), transport: t, inst: c.metrics.worker(t.Name())}
		c.workers[w.name] = w
	}
	return w
}

// isLive reports whether m's worker is in the fleet right now.
func (c *Coordinator) isLive(m *worker) bool {
	return slices.ContainsFunc(c.fleet(), func(f Member) bool { return f.Name() == m.name })
}

// capacityFor resolves an advertised capacity against the default.
func (c *Coordinator) capacityFor(advertised int) int {
	if advertised > 0 {
		return advertised
	}
	return workerCapacity
}

// now is the coordinator's clock (injectable for deterministic tests).
func (c *Coordinator) now() time.Time {
	if c.clock != nil {
		return c.clock()
	}
	return time.Now()
}
