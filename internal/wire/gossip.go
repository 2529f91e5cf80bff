package wire

import (
	"errors"
	"fmt"
	"net"
	"sort"

	"repro/internal/obs"
)

// This file is the leaderless control plane's wire surface: anti-entropy
// membership digests exchanged between symmetric peers (POST /v1/gossip)
// and the job-replication payloads that let a peer adopt and finish an
// orphaned sweep (POST /v1/jobs/replicate). Replication is cheap by
// design — merged snapshots are cumulative and mergeable (PR 3–5), so a
// job's whole recoverable state is its spec, its latest snapshot, and a
// ledger of merged shard ranges.

// Gossip member states, in increasing "badness". For one incarnation a
// worse state always wins a merge; a node escapes suspicion only by
// re-asserting itself under a higher incarnation (refutation).
const (
	GossipAlive   = "alive"
	GossipSuspect = "suspect"
	GossipDead    = "dead"
)

// GossipEntry is one row of the versioned member table. Ordering between
// two entries for the same node is (Incarnation, state badness, Beat):
// higher incarnation wins outright; within an incarnation dead > suspect
// > alive; between two alive entries the higher heartbeat counter is
// fresher. Beat is bumped only by the node the entry describes,
// Incarnation only by that node refuting a suspicion about itself.
type GossipEntry struct {
	Addr        string `json:"addr"`
	Incarnation uint64 `json:"incarnation"`
	Beat        uint64 `json:"beat"`
	State       string `json:"state"`
	// Inventory is what drives shard placement: Capacity bounds the
	// node's concurrent shards (0 = the scheduler's default), Benchmarks
	// is its trained-model inventory (benchmarks with every served metric
	// in memory, routed there first).
	Capacity   int      `json:"capacity,omitempty"`
	Benchmarks []string `json:"benchmarks,omitempty"`
}

// MaxGossipEntries bounds one digest; fleets larger than this gossip a
// random subset per round and still converge.
const MaxGossipEntries = 1024

// MaxInventoryBenchmarks bounds the trained-model inventory one entry
// may advertise; a node holding more models than
// this advertises its first MaxInventoryBenchmarks and still benefits
// from affinity for those.
const MaxInventoryBenchmarks = 256

// MaxGossipCounter bounds an entry's Incarnation and Beat. No honest node
// counts that high, and the bound lets a refuting node step one past any
// claim without overflowing.
const MaxGossipCounter = 1 << 53

// maxBenchmarkName bounds one advertised benchmark name.
const maxBenchmarkName = 128

// Validate rejects an entry that must not reach the membership table:
// every accepted entry becomes a dialable transport and a scheduling
// member, whether it arrived in a request or in a response digest.
func (e GossipEntry) Validate() error {
	if e.Addr == "" {
		return errors.New("gossip entry without an address")
	}
	if _, port, err := net.SplitHostPort(e.Addr); err != nil || port == "" {
		return fmt.Errorf("gossip entry addr %q is not host:port", e.Addr)
	}
	switch e.State {
	case GossipAlive, GossipSuspect, GossipDead:
	default:
		return fmt.Errorf("unknown gossip state %q", e.State)
	}
	if e.Incarnation > MaxGossipCounter || e.Beat > MaxGossipCounter {
		return fmt.Errorf("gossip entry counters (incarnation %d, beat %d) exceed %d", e.Incarnation, e.Beat, uint64(MaxGossipCounter))
	}
	if e.Capacity < 0 {
		return fmt.Errorf("capacity %d is negative", e.Capacity)
	}
	if len(e.Benchmarks) > MaxInventoryBenchmarks {
		return fmt.Errorf("inventory lists %d benchmarks, at most %d are usable", len(e.Benchmarks), MaxInventoryBenchmarks)
	}
	for _, b := range e.Benchmarks {
		if b == "" || len(b) > maxBenchmarkName {
			return fmt.Errorf("inventory benchmark name %q is empty or oversized", b)
		}
	}
	return nil
}

// validateDigest checks one digest, request or response, entry by entry.
func validateDigest(entries []GossipEntry) error {
	if len(entries) > MaxGossipEntries {
		return fmt.Errorf("gossip digest carries at most %d entries (got %d)", MaxGossipEntries, len(entries))
	}
	for _, e := range entries {
		if err := e.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// GossipRequest is the body of POST /v1/gossip: the sender's full
// digest. The response carries the receiver's digest back, making every
// exchange push-pull.
type GossipRequest struct {
	From    string        `json:"from"`
	Entries []GossipEntry `json:"entries"`
}

// Validate rejects malformed digests.
func (r GossipRequest) Validate() error {
	if r.From == "" {
		return errors.New("gossip needs a from address")
	}
	return validateDigest(r.Entries)
}

// GossipResponse answers POST /v1/gossip with the receiver's digest.
type GossipResponse struct {
	From    string        `json:"from"`
	Entries []GossipEntry `json:"entries"`
}

// Validate rejects a malformed answer digest: the sender merges a
// response only once it passes the same checks a request does.
func (r GossipResponse) Validate() error { return validateDigest(r.Entries) }

// ShardRange is one merged [Start, Start+Count) slice of a sweep's
// design list — the unit of the replicated shard ledger. A resuming
// adopter re-dispatches only the complement, so every design is merged
// exactly once across the handoff.
type ShardRange struct {
	Start int `json:"start"`
	Count int `json:"count"`
}

// AddRange inserts r into a ledger kept sorted by Start, coalescing
// adjacent and overlapping ranges, and returns the updated ledger.
func AddRange(ledger []ShardRange, r ShardRange) []ShardRange {
	if r.Count <= 0 {
		return ledger
	}
	ledger = append(ledger, r)
	sort.Slice(ledger, func(i, j int) bool { return ledger[i].Start < ledger[j].Start })
	out := ledger[:1]
	for _, next := range ledger[1:] {
		last := &out[len(out)-1]
		if next.Start <= last.Start+last.Count {
			if end := next.Start + next.Count; end > last.Start+last.Count {
				last.Count = end - last.Start
			}
			continue
		}
		out = append(out, next)
	}
	return out
}

// RangesTotal sums the designs covered by a (coalesced) ledger.
func RangesTotal(ledger []ShardRange) int {
	n := 0
	for _, r := range ledger {
		n += r.Count
	}
	return n
}

// SnapshotCandidate is one retained candidate of a replicated cumulative
// snapshot. Index is the candidate's position in the job's full design
// list: top-K selection tie-breaks on it, so replicating indices keeps
// an adopted job's answer bit-identical to the unkilled run. Frontier
// jobs ignore indices (Index is -1 there).
type SnapshotCandidate struct {
	Index     int       `json:"index"`
	Candidate Candidate `json:"candidate"`
}

// MaxReplicatedSpans bounds the trace excerpt a replication payload
// carries; an adopter splices these under the owner's root span so the
// job's cross-node trace tree survives the owner.
const MaxReplicatedSpans = 512

// ReplicateRequest is the body of POST /v1/jobs/replicate: the owning
// node's latest recoverable state for one job, pushed to each of its f
// replicas after every merged shard. Seq orders payloads (replicas keep
// the newest); Done retires the entry once the job finishes.
type ReplicateRequest struct {
	JobID string  `json:"job_id"`
	Kind  JobKind `json:"kind"`
	Owner string  `json:"owner"`
	// Replicas is the adoption order: when the owner dies, the first
	// alive address adopts. Every replica holds the same list, so the
	// fleet agrees on the successor without an election.
	Replicas  []string `json:"replicas,omitempty"`
	Benchmark string   `json:"benchmark"`
	Designs   int      `json:"designs"`
	Seq       int      `json:"seq"`

	// Exactly one of Sweep/Pareto holds the job's spec, with the design
	// list in resolvable (seed-deterministic) form.
	Sweep  *SweepRequest  `json:"sweep,omitempty"`
	Pareto *ParetoRequest `json:"pareto,omitempty"`

	// Merged-so-far state: cumulative counters, the latest merged
	// snapshot, and the ledger of shard ranges it already covers.
	Evaluated int                 `json:"evaluated"`
	Feasible  int                 `json:"feasible"`
	Shards    int                 `json:"shards"`
	Retries   int                 `json:"retries"`
	Snapshot  []SnapshotCandidate `json:"snapshot,omitempty"`
	Ledger    []ShardRange        `json:"ledger,omitempty"`

	// Trace splice: the owner's root span context plus the spans
	// recorded so far, so the adopter continues the same tree.
	Traceparent string     `json:"traceparent,omitempty"`
	Spans       []obs.Span `json:"spans,omitempty"`

	Done bool `json:"done,omitempty"`
}

// Replica returns the replication payload of a job with spec j, before
// any state: its kind, and the spec in the field that kind names.
func (j JobSpec) Replica() ReplicateRequest {
	r := ReplicateRequest{Kind: j.Kind, Benchmark: j.Benchmark}
	switch req := j.Request().(type) {
	case SweepRequest:
		r.Sweep = &req
	case ParetoRequest:
		r.Pareto = &req
	}
	return r
}

// Spec returns the replicated job's spec, from the field its kind names.
func (r ReplicateRequest) Spec() JobSpec {
	if r.Sweep != nil {
		return r.Sweep.Spec()
	}
	if r.Pareto != nil {
		return r.Pareto.Spec()
	}
	return JobSpec{Kind: r.Kind}
}

// Validate rejects malformed replication payloads. An adopter resumes a
// job from the payload alone, so it is held to what resuming relies on:
// a spec its own submission would pass, a ledger in the sorted,
// disjoint, coalesced form AddRange keeps, and a snapshot that re-enters
// the kind's collector cleanly.
func (r ReplicateRequest) Validate() error {
	if r.JobID == "" {
		return errors.New("replicate needs a job id")
	}
	if r.Owner == "" {
		return errors.New("replicate needs an owner address")
	}
	if r.Done {
		return nil // a retirement notice needs no spec
	}
	switch {
	case r.Kind != JobSweep && r.Kind != JobPareto:
		return fmt.Errorf("unknown replica kind %q", r.Kind)
	case (r.Sweep != nil) != (r.Kind == JobSweep) || (r.Pareto != nil) != (r.Kind == JobPareto):
		return fmt.Errorf("a %s replica must carry exactly its %s spec", r.Kind, r.Kind)
	}
	spec := r.Spec()
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("replicated spec: %w", err)
	}
	if r.Designs <= 0 {
		return errors.New("replicate needs the job's design count")
	}
	if len(r.Spans) > MaxReplicatedSpans {
		return fmt.Errorf("replicate carries at most %d spans (got %d)", MaxReplicatedSpans, len(r.Spans))
	}
	end := -1 // the next range must start past this: the previous range's end
	for _, rg := range r.Ledger {
		if rg.Start <= end || rg.Count <= 0 || rg.Count > r.Designs-rg.Start {
			return fmt.Errorf("ledger range [%d,+%d) is out of order, empty, adjacent to its predecessor or outside the job's %d designs", rg.Start, rg.Count, r.Designs)
		}
		end = rg.Start + rg.Count
	}
	for _, sc := range r.Snapshot {
		if len(sc.Candidate.Scores) != len(spec.Objectives) {
			return fmt.Errorf("snapshot candidate carries %d scores for %d objectives", len(sc.Candidate.Scores), len(spec.Objectives))
		}
		if r.Kind == JobSweep && (sc.Index < 0 || sc.Index >= r.Designs) {
			return fmt.Errorf("top-K snapshot index %d outside the job's %d designs", sc.Index, r.Designs)
		}
	}
	return nil
}

// ReplicateResponse acknowledges a replication payload.
type ReplicateResponse struct {
	JobID string `json:"job_id"`
	Seq   int    `json:"seq"`
}
