package wire

import (
	"errors"
	"fmt"
	"net"

	"repro/internal/obs"
)

// This file is the leaderless control plane's wire surface: anti-entropy
// membership digests exchanged between symmetric peers (POST /v1/gossip)
// and the job-replication payloads that let a peer adopt and finish an
// orphaned sweep (POST /v1/jobs/replicate). Replication is cheap by
// design: every answer is a deterministic function of the job's spec and
// the models, so the spec is a job's whole recoverable state, and an
// adopter re-runs the job from it.

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

// MaxReplicatedSpans bounds the trace excerpt a replication payload
// carries; an adopter splices these under the owner's root span so the
// job's cross-node trace tree survives the owner.
const MaxReplicatedSpans = 512

// ReplicateRequest is the body of POST /v1/jobs/replicate: what a
// replica needs to adopt one job if its owner dies — the job's identity,
// its spec and its trace context — pushed to each of the owner's f
// replicas once as the job starts and again every gossip round while
// the job runs. Its size does not grow with the job's progress.
// Done retires the entry once the job finishes.
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
	// Seq is the owner run's stream sequence floor: 0 for a fresh job,
	// and for an adopted one the sequence number its updates start past.
	// An adopter's floor exceeds every seq its predecessor could have
	// published, so replicas drop a lower Seq (a dead owner's late push)
	// and a failed-over stream's sequence keeps rising.
	Seq int `json:"seq"`

	// Exactly one of Sweep/Pareto holds the job's spec, with the design
	// list in resolvable (seed-deterministic) form.
	Sweep  *SweepRequest  `json:"sweep,omitempty"`
	Pareto *ParetoRequest `json:"pareto,omitempty"`

	// Trace splice: the owner's root span context plus the spans
	// recorded so far, so the adopter continues the same tree.
	Traceparent string     `json:"traceparent,omitempty"`
	Spans       []obs.Span `json:"spans,omitempty"`

	Done bool `json:"done,omitempty"`
}

// Replica returns the replication payload of a job with spec j: its
// kind, and the spec in the field that kind names.
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

// Validate rejects malformed replication payloads. An adopter re-runs a
// job from the payload alone, so it is held to what its own submission
// would pass: a known kind carrying exactly its spec, a spec that
// validates, and a design count and sequence floor a restart can use.
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
	if err := r.Spec().Validate(); err != nil {
		return fmt.Errorf("replicated spec: %w", err)
	}
	if r.Designs <= 0 || r.Designs > maxReplicaCount {
		return fmt.Errorf("replicate design count %d is outside [1, %d]", r.Designs, maxReplicaCount)
	}
	if r.Seq < 0 || r.Seq > maxReplicaCount {
		return fmt.Errorf("replicate seq %d is outside [0, %d]", r.Seq, maxReplicaCount)
	}
	if len(r.Spans) > MaxReplicatedSpans {
		return fmt.Errorf("replicate carries at most %d spans (got %d)", MaxReplicatedSpans, len(r.Spans))
	}
	return nil
}

// maxReplicaCount bounds a payload's design count and sequence floor, so
// AdoptedSeq cannot overflow.
const maxReplicaCount = 1 << 30

// AdoptedSeq is the sequence floor an adopter of this job starts its
// updates past. An owner run publishes one opening update, at most one
// update per merged shard (a shard holds at least one design) and one
// final, so it never publishes past Seq + Designs + 2: every update of
// the adopted run outranks every update the dead owner could have
// published, and a failed-over stream reader's sequence keeps rising.
func (r ReplicateRequest) AdoptedSeq() int { return r.Seq + r.Designs + 2 }

// ReplicateResponse acknowledges a replication payload.
type ReplicateResponse struct {
	JobID string `json:"job_id"`
	Seq   int    `json:"seq"`
}
