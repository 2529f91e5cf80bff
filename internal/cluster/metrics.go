package cluster

import "repro/internal/obs"

// clusterMetrics holds the coordinator's pre-registered obs handles.
// Built over a nil registry every handle is nil and discards, so the
// record sites need no conditionals.
type clusterMetrics struct {
	reg        *obs.Registry
	retries    *obs.Counter
	mergeSize  *obs.Histogram
	placements *obs.Counter
	hedges     map[string]*obs.Counter
}

func newClusterMetrics(reg *obs.Registry) *clusterMetrics {
	m := &clusterMetrics{reg: reg}
	m.retries = reg.Counter("dsed_cluster_shard_retries_total",
		"Shard attempts that failed or spilled and were re-dispatched to another worker.")
	m.mergeSize = reg.Histogram("dsed_cluster_merge_candidates",
		"Candidates carried by each merged shard partial.", obs.SizeBuckets)
	m.placements = reg.Counter("dsed_cluster_placements_total",
		"Shard placement decisions.")
	m.hedges = make(map[string]*obs.Counter, 3)
	for _, result := range []string{hedgeIssued, hedgeWon, hedgeWasted} {
		m.hedges[result] = reg.Counter("dsed_cluster_shard_hedges_total",
			"Speculative shard attempts, by outcome: issued when a shard outlived its "+
				"expected duration, won when the hedge's answer merged first, wasted otherwise.",
			obs.Label{Key: "result", Value: result})
	}
	return m
}

// workerInstruments are one worker's per-name series — the scrapeable
// fault taxonomy (failures, rejections, busy) plus the shard latency
// signal straggler hedging feeds on. They are created when the
// coordinator first sees the worker's name, so every series exists (at
// zero) before its first shard or fault, and they outlive a departure:
// the taxonomy counts the coordinator's lifetime.
type workerInstruments struct {
	latency    *obs.Histogram
	shards     *obs.Counter
	failures   *obs.Counter
	rejections *obs.Counter
	busy       *obs.Counter
}

func (m *clusterMetrics) worker(name string) workerInstruments {
	l := obs.Label{Key: "worker", Value: name}
	return workerInstruments{
		latency: m.reg.Histogram("dsed_cluster_shard_latency_ms",
			"Completed shard round-trip latency, per worker.", obs.LatencyMSBuckets, l),
		shards: m.reg.Counter("dsed_cluster_shards_total",
			"Shards completed, per worker.", l),
		failures: m.reg.Counter("dsed_cluster_worker_failures_total",
			"Transport faults and timeouts booked against the worker.", l),
		rejections: m.reg.Counter("dsed_cluster_worker_rejections_total",
			"The worker's deterministic 4xx verdicts (blame the request, not the worker).", l),
		busy: m.reg.Counter("dsed_cluster_worker_busy_total",
			"The worker's retryable at-capacity verdicts (load, not sickness).", l),
	}
}
