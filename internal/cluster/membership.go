package cluster

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// This file is the coordinator's member table: the live fleet behind
// placement. Members join through Join, refresh their advertised
// inventory through Heartbeat and drain through Leave. The table holds
// no lease of its own: the serving layer's membership view (gossip)
// decides liveness and projects it here through those three calls. An
// in-flight sweep re-dispatches only the shards orphaned by a departure.

// ErrUnknownMember answers a heartbeat for a worker the coordinator does
// not know (never joined, or already left): it must Join again.
var ErrUnknownMember = errors.New("cluster: unknown member (join first)")

// MemberInfo is what a member advertises when joining and on every
// heartbeat.
type MemberInfo struct {
	// Capacity bounds how many shards the coordinator schedules on the
	// worker at once before placement treats it as saturated (0 = the
	// coordinator's default).
	Capacity int
	// Benchmarks is the worker's trained-model inventory: the benchmarks
	// whose every served metric is already in its registry. The scheduler
	// routes shards for these benchmarks to the worker first.
	Benchmarks []string
}

// member is one fleet entry: its transport, advertised inventory, and
// the scheduler's per-worker statistics. Shard claims hold the *member
// pointer, not the name: a worker that leaves and rejoins mid-shard
// gets a fresh record, and the stale shard's accounting lands
// harmlessly on the detached one instead of corrupting the new record's
// inflight count.
type member struct {
	name      string
	transport Transport
	capacity  int
	// benchmarks is the heartbeat-advertised trained inventory.
	benchmarks map[string]bool
	// inflight counts shards currently dispatched to the worker.
	inflight int
	// ewmaPerDesignMS tracks the worker's observed per-design latency
	// (0 until the first completed shard); adaptive sizing derives the
	// worker's next shard size from it.
	ewmaPerDesignMS float64
	shardsDone      int
	// inst holds the worker's pre-registered metric handles (latency
	// histogram, fault taxonomy), created on fleet entry.
	inst workerInstruments
}

// MemberStatus is one member's row in membership reports.
type MemberStatus struct {
	Name     string
	Capacity int
	// Benchmarks is the advertised trained inventory, sorted.
	Benchmarks []string
	Inflight   int
	ShardsDone int
	// EWMAPerDesignMS is the scheduler's latency estimate (0 = no
	// completed shard yet).
	EWMAPerDesignMS float64
	// Failures counts transport faults and timeouts booked against the
	// worker; Rejections counts its deterministic 4xx verdicts, which
	// blame the request, not the worker; Busy counts its retryable
	// at-capacity verdicts (429s) — load, not sickness.
	Failures   int
	Rejections int
	Busy       int
}

// Join adds a worker (or refreshes one already present: a re-join is a
// heartbeat that also carries the transport); a new member is
// schedulable at once, also by sweeps already in flight. It reports
// whether the worker was new.
func (c *Coordinator) Join(t Transport, info MemberInfo) (bool, error) {
	name := t.Name()
	if name == "" {
		return false, fmt.Errorf("cluster: joining worker has an empty name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.members[name]; ok {
		m.benchmarks = benchmarkSet(info.Benchmarks)
		if info.Capacity > 0 {
			m.capacity = info.Capacity
		}
		c.metrics.event("rejoin")
		return false, nil
	}
	c.members[name] = &member{
		name:       name,
		transport:  t,
		capacity:   c.capacityFor(info.Capacity),
		benchmarks: benchmarkSet(info.Benchmarks),
		inst:       c.metrics.worker(name),
	}
	c.metrics.event("join")
	c.metrics.membersGauge.Set(float64(len(c.members)))
	return true, nil
}

// Heartbeat refreshes a member's advertised inventory. Unknown members
// answer ErrUnknownMember: the worker must Join first.
func (c *Coordinator) Heartbeat(name string, info MemberInfo) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.members[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownMember, name)
	}
	m.benchmarks = benchmarkSet(info.Benchmarks)
	if info.Capacity > 0 {
		m.capacity = info.Capacity
	}
	return nil
}

// Leave drains a worker immediately: it comes off the member table, new
// shards stop routing to it, and its in-flight shards (if any
// fail) re-dispatch to the survivors. It reports whether the worker was a
// member.
func (c *Coordinator) Leave(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.members[name]; !ok {
		return false
	}
	delete(c.members, name)
	c.metrics.event("leave")
	c.metrics.membersGauge.Set(float64(len(c.members)))
	return true
}

// Members reports the live fleet sorted by name.
func (c *Coordinator) Members() []MemberStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]MemberStatus, 0, len(c.members))
	for name, m := range c.members {
		st := MemberStatus{
			Name:            name,
			Capacity:        m.capacity,
			Benchmarks:      sortedBenchmarks(m.benchmarks),
			Inflight:        m.inflight,
			ShardsDone:      m.shardsDone,
			EWMAPerDesignMS: m.ewmaPerDesignMS,
			Failures:        c.failures[name],
			Rejections:      c.rejections[name],
			Busy:            c.busy[name],
		}
		out = append(out, st)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// Workers returns the live fleet's names, sorted — the dynamic successor
// of the construction-order list, still stable for reports.
func (c *Coordinator) Workers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.members))
	for name := range c.members {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// capacityFor resolves an advertised capacity against the default.
func (c *Coordinator) capacityFor(advertised int) int {
	if advertised > 0 {
		return advertised
	}
	return c.opts.WorkerCapacity
}

// now is the coordinator's clock (injectable for deterministic tests).
func (c *Coordinator) now() time.Time {
	if c.clock != nil {
		return c.clock()
	}
	return time.Now()
}

func benchmarkSet(list []string) map[string]bool {
	if len(list) == 0 {
		return nil
	}
	set := make(map[string]bool, len(list))
	for _, b := range list {
		set[b] = true
	}
	return set
}

func sortedBenchmarks(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for b := range set {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}
