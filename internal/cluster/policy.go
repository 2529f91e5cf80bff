package cluster

import (
	"fmt"
	"sort"
)

// This file is the coordinator's placement-policy seam. The decision
// "which worker takes the next shard" used to be one hardcoded heuristic
// inside pickWorker; it is now a Policy value ranking a PlacementView —
// a pure function over an explicit fleet snapshot — so competing
// strategies can be swapped per coordinator (-policy), conformance-
// tested against each other, and raced in tools/schedsim.
//
// Liveness is not a policy concern: departed members are off the table
// and the coordinator filters already-tried workers before building the view, so
// a policy cannot place on a dead or exhausted worker by construction.

// WorkerView is one live worker as a placement policy sees it: the
// coordinator's own dispatch state (Inflight, EWMAPerDesignMS) joined
// with the worker's latest heartbeat adverts (Capacity, QueueDepth,
// model inventory).
type WorkerView struct {
	Name string
	// Home marks one of the benchmark's Replicas ring-home workers —
	// where Warm pre-places models and ring-order dispatch lands first.
	Home bool
	// HasModels reports whether the worker's heartbeat advertises the
	// benchmark's trained models (affinity's primary signal).
	HasModels bool
	// Inflight is the coordinator's count of shards currently dispatched
	// to the worker; Capacity is the worker's concurrent-shard budget.
	Inflight int
	Capacity int
	// QueueDepth is the worker's advertised running-job count for this
	// benchmark; QueueTotal sums its advertised depths across all
	// benchmarks. Depths arrive in heartbeats, so they lag by up to one
	// heartbeat interval — policies treat them as load trend, not truth.
	QueueDepth int
	QueueTotal int
	// EWMAPerDesignMS is the coordinator's per-design latency estimate
	// for the worker (0 until its first completed shard).
	EWMAPerDesignMS float64
}

// PlacementView is the input to one placement decision: the live,
// not-yet-tried fleet in consistent-hash ring order for the benchmark.
type PlacementView struct {
	Benchmark string
	// Workers holds only live workers not already tried for this shard,
	// in ring order (so Workers[i].Home ⇒ i is among the leading
	// positions, and "clockwise from the benchmark's home" is the slice
	// order).
	Workers []WorkerView
	// Deal is a monotone dealing counter for round-robin rotation, so
	// equally-ranked workers share load across consecutive decisions.
	Deal int
}

// Policy ranks workers for one shard placement. Rank returns worker
// names best-first; it must be a permutation of v.Workers (no inventions,
// no drops, no duplicates) and deterministic given equal inputs — Deal
// included. The coordinator dispatches to the first ranked worker and
// re-ranks with a fresh view on every retry.
type Policy interface {
	Name() string
	Rank(v PlacementView) []string
}

// Policies returns one instance of every built-in policy, in
// presentation order: affinity (the default), least-loaded, best-fit,
// oversub.
func Policies() []Policy {
	return []Policy{affinityPolicy{}, leastLoadedPolicy{}, bestFitPolicy{}, oversubPolicy{}}
}

// PolicyByName resolves a -policy flag value to its implementation.
func PolicyByName(name string) (Policy, error) {
	for _, p := range Policies() {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("cluster: unknown policy %q (have affinity, least-loaded, best-fit, oversub)", name)
}

// affinityPolicy is the fleet's historical routing rule, now explicit:
//
//  1. Workers advertising the benchmark's trained models, under
//     capacity, dealt round-robin.
//  2. The benchmark's ring-home replicas (where Warm pre-places models),
//     under capacity, dealt round-robin.
//  3. The rest of the ring clockwise, under capacity.
//  4. A saturated fleet: least-inflight first — the sweep must progress
//     even with every slot taken.
//
// It maximises model-cache hits and keeps cold workers from training on
// demand mid-sweep, at the cost of ignoring queue depths entirely: a
// slow-but-affine worker keeps receiving shards until its capacity
// fills.
type affinityPolicy struct{}

func (affinityPolicy) Name() string { return "affinity" }

func (affinityPolicy) Rank(v PlacementView) []string {
	var affine, home, rest []string
	var saturated []WorkerView
	for _, w := range v.Workers {
		free := w.Inflight < w.Capacity
		switch {
		case free && w.HasModels:
			affine = append(affine, w.Name)
		case free && w.Home:
			home = append(home, w.Name)
		case free:
			rest = append(rest, w.Name)
		default:
			saturated = append(saturated, w)
		}
	}
	sort.Strings(affine)
	sort.Slice(saturated, func(a, b int) bool {
		if saturated[a].Inflight != saturated[b].Inflight {
			return saturated[a].Inflight < saturated[b].Inflight
		}
		return saturated[a].Name < saturated[b].Name
	})
	out := make([]string, 0, len(v.Workers))
	out = append(out, rotated(affine, v.Deal)...)
	out = append(out, rotated(home, v.Deal)...)
	out = append(out, rest...)
	for _, w := range saturated {
		out = append(out, w.Name)
	}
	return out
}

// leastLoadedPolicy ranks by total observed load — coordinator-known
// inflight shards plus the worker's heartbeat-advertised queue depths
// across all benchmarks — so a worker busy with *other* traffic (jobs
// submitted directly to it, other coordinators) finally repels shards.
// Under-capacity workers always outrank saturated ones; ties prefer
// model holders, then name. Choose it for heterogeneous or shared
// fleets where queue depth is the honest load signal; its failure mode
// is cache-blindness — it will happily send a cold worker a shard that
// trains models on demand if that worker is idle.
type leastLoadedPolicy struct{}

func (leastLoadedPolicy) Name() string { return "least-loaded" }

func (leastLoadedPolicy) Rank(v PlacementView) []string {
	ws := append([]WorkerView(nil), v.Workers...)
	sort.SliceStable(ws, func(a, b int) bool {
		x, y := ws[a], ws[b]
		xOver, yOver := x.Inflight >= x.Capacity, y.Inflight >= y.Capacity
		if xOver != yOver {
			return !xOver
		}
		xl, yl := x.Inflight+x.QueueTotal, y.Inflight+y.QueueTotal
		if xl != yl {
			return xl < yl
		}
		if x.HasModels != y.HasModels {
			return x.HasModels
		}
		return x.Name < y.Name
	})
	return viewNames(ws)
}

// bestFitPolicy packs shards onto the fewest workers: among workers with
// free slots it prefers the *tightest* fit (least remaining capacity),
// so load concentrates and the rest of the fleet stays drained — the
// shape you want before scaling in, or when idle workers should stay
// cold for other tenants. Ties prefer model holders, then name; a fully
// saturated fleet falls back to least-overloaded. Its failure mode is
// head-of-line risk: concentrating on few workers makes each of them a
// bigger straggler surface, so pair it with hedging.
type bestFitPolicy struct{}

func (bestFitPolicy) Name() string { return "best-fit" }

func (bestFitPolicy) Rank(v PlacementView) []string {
	ws := append([]WorkerView(nil), v.Workers...)
	sort.SliceStable(ws, func(a, b int) bool {
		x, y := ws[a], ws[b]
		xFree, yFree := x.Capacity-x.Inflight, y.Capacity-y.Inflight
		if (xFree > 0) != (yFree > 0) {
			return xFree > 0
		}
		if xFree > 0 {
			if xFree != yFree {
				return xFree < yFree
			}
			if x.HasModels != y.HasModels {
				return x.HasModels
			}
			return x.Name < y.Name
		}
		if xFree != yFree {
			return xFree > yFree // least overloaded first
		}
		return x.Name < y.Name
	})
	return viewNames(ws)
}

// oversubPolicy ignores the capacity cutoff entirely and ranks by
// occupancy ratio (inflight + advertised queue) / capacity, allowing
// ratios past 1.0 — it trusts the worker's own admission control (429
// busy verdicts spill shards back for re-dispatch) instead of the
// coordinator's bookkeeping. Choose it when worker capacities are
// conservative and the fleet should be saturated for raw throughput;
// its failure mode is spill churn — every refused shard costs a round
// trip and lands in the busy column. Ties prefer the faster observed
// EWMA (unknown counts as fast, so new workers get probed), then name.
type oversubPolicy struct{}

func (oversubPolicy) Name() string { return "oversub" }

func (oversubPolicy) Rank(v PlacementView) []string {
	occ := func(w WorkerView) float64 {
		cap := w.Capacity
		if cap < 1 {
			cap = 1
		}
		return float64(w.Inflight+w.QueueTotal) / float64(cap)
	}
	ws := append([]WorkerView(nil), v.Workers...)
	sort.SliceStable(ws, func(a, b int) bool {
		x, y := ws[a], ws[b]
		xo, yo := occ(x), occ(y)
		if xo != yo {
			return xo < yo
		}
		if x.EWMAPerDesignMS != y.EWMAPerDesignMS {
			return x.EWMAPerDesignMS < y.EWMAPerDesignMS
		}
		return x.Name < y.Name
	})
	return viewNames(ws)
}

// rotated returns names rotated left by deal%len — the round-robin deal
// over an equally-preferred group.
func rotated(names []string, deal int) []string {
	if len(names) < 2 {
		return names
	}
	k := deal % len(names)
	out := make([]string, 0, len(names))
	out = append(out, names[k:]...)
	out = append(out, names[:k]...)
	return out
}

func viewNames(ws []WorkerView) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name
	}
	return out
}
