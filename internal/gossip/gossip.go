// Package gossip is the fleet's leaderless membership layer: a
// versioned member table replicated between symmetric peers by periodic
// anti-entropy digest exchange, in the SWIM tradition. Every peer
// converges on the same view — who is alive, suspect, or dead — without
// any distinguished node, which is what lets any daemon accept a sweep
// and coordinate it (cmd/dsed peer mode) and lets a replica notice an
// owner's death and adopt its jobs.
//
// The table is deliberately transport-free: it merges digests and ages
// entries under an injected clock, and the caller (the peer loop in
// cmd/dsed) drives rounds over HTTP. That keeps every state transition
// — suspicion, death, incarnation refutation — unit-testable with a
// fake clock, no sleeps.
package gossip

import (
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Options configures a member table.
type Options struct {
	// Self is this node's dialable address (host:port); the table seeds
	// itself with an alive entry for it and refutes any suspicion of it.
	Self string
	// SuspectAfter is how long without fresh evidence an alive member
	// stays trusted; past it the member turns suspect. Default 10s.
	SuspectAfter time.Duration
	// DeadAfter is how long without fresh evidence a member (suspect or
	// not) is declared dead. Default 3×SuspectAfter.
	DeadAfter time.Duration
	// Clock injects time for tests (default time.Now).
	Clock func() time.Time
	// Obs registers the gossip series; nil discards.
	Obs *obs.Registry
}

// Table is the versioned member table. All methods are safe for
// concurrent use.
type Table struct {
	opts  Options
	clock func() time.Time

	mu      sync.Mutex
	self    *entry
	entries map[string]*entry

	rounds      map[string]*obs.Counter
	divergence  *obs.Gauge
	refutations *obs.Counter
	states      map[string]*obs.Gauge
	members     *obs.Gauge
	churn       map[string]*obs.Counter
}

type entry struct {
	wire.GossipEntry
	// seen is the local arrival time of the freshest evidence for this
	// entry; suspect/dead transitions age against it.
	seen time.Time
	// joined records that the entry has been alive before, so a return
	// to alive counts as a rejoin.
	joined bool
}

// New builds a table seeded with an alive entry for Self.
func New(opts Options) *Table {
	if opts.SuspectAfter <= 0 {
		opts.SuspectAfter = 10 * time.Second
	}
	if opts.DeadAfter <= 0 {
		opts.DeadAfter = 3 * opts.SuspectAfter
	}
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	t := &Table{
		opts:    opts,
		clock:   clock,
		entries: make(map[string]*entry),
	}
	t.self = &entry{GossipEntry: wire.GossipEntry{Addr: opts.Self, State: wire.GossipAlive}, seen: clock()}
	t.entries[opts.Self] = t.self
	reg := opts.Obs
	// The alive entries are the fleet the coordinator schedules over, so
	// the table also keeps the fleet's size and churn series.
	t.members = reg.Gauge("dsed_cluster_members", "Live fleet members: the alive entries the coordinator schedules over.")
	t.churn = map[string]*obs.Counter{}
	for _, ev := range []string{"join", "rejoin", "leave"} {
		t.churn[ev] = reg.Counter("dsed_cluster_membership_events_total",
			"Members entering (join, or rejoin after a departure) or leaving the alive set.",
			obs.Label{Key: "event", Value: ev})
	}
	t.churnLocked(t.self, "")
	t.rounds = map[string]*obs.Counter{}
	for _, result := range []string{"ok", "error"} {
		t.rounds[result] = reg.Counter("dsed_gossip_rounds_total",
			"Anti-entropy gossip exchanges attempted, by result.",
			obs.Label{Key: "result", Value: result})
	}
	t.divergence = reg.Gauge("dsed_gossip_members_divergence",
		"Entries changed by the most recent digest merge — zero once the fleet's views converge.")
	t.refutations = reg.Counter("dsed_gossip_refutations_total",
		"Incarnation bumps made to refute a suspicion or death claim about this node.")
	t.states = map[string]*obs.Gauge{}
	for _, state := range []string{wire.GossipAlive, wire.GossipSuspect, wire.GossipDead} {
		t.states[state] = reg.Gauge("dsed_gossip_members",
			"Member-table entries by state, as this node currently sees them.",
			obs.Label{Key: "state", Value: state})
	}
	t.gaugeStatesLocked()
	return t
}

// SetLocalInfo refreshes the inventory this node advertises about
// itself (capacity, trained benchmarks) and bumps its heartbeat counter
// so the refreshed entry wins merges fleet-wide.
func (t *Table) SetLocalInfo(capacity int, benchmarks []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.self.Capacity = capacity
	t.self.Benchmarks = benchmarks
	t.self.Beat++
	t.self.State = wire.GossipAlive
	t.self.seen = t.clock()
}

// Digest snapshots the table for a push-pull exchange, self first.
func (t *Table) Digest() []wire.GossipEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]wire.GossipEntry, 0, len(t.entries))
	out = append(out, t.self.GossipEntry)
	for addr, e := range t.entries {
		if addr != t.opts.Self {
			out = append(out, e.GossipEntry)
		}
	}
	sort.Slice(out[1:], func(i, j int) bool { return out[1+i].Addr < out[1+j].Addr })
	return out
}

// badness ranks states within one incarnation: a worse claim always
// propagates, and only a higher incarnation overturns it.
func badness(state string) int {
	switch state {
	case wire.GossipDead:
		return 2
	case wire.GossipSuspect:
		return 1
	default:
		return 0
	}
}

// fresher reports whether candidate carries strictly newer information
// than current under the (Incarnation, badness, Beat) order.
func fresher(candidate, current wire.GossipEntry) bool {
	if candidate.Incarnation != current.Incarnation {
		return candidate.Incarnation > current.Incarnation
	}
	if b, c := badness(candidate.State), badness(current.State); b != c {
		return b > c
	}
	return candidate.State == wire.GossipAlive && candidate.Beat > current.Beat
}

// Merge folds a received digest into the table and returns how many
// entries changed — the instantaneous view divergence from that peer,
// exported as dsed_gossip_members_divergence. Claims about Self are
// never accepted; refute answers them. The digest must have passed
// wire validation, which bounds the counters refutation increments.
func (t *Table) Merge(digest []wire.GossipEntry) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.clock()
	changed := 0
	for _, in := range digest {
		if in.Addr == "" {
			continue
		}
		if in.Addr == t.opts.Self {
			if t.refuteLocked(in, now) {
				changed++
			}
			continue
		}
		cur, ok := t.entries[in.Addr]
		if !ok {
			cur = &entry{GossipEntry: in, seen: now}
			t.entries[in.Addr] = cur
			t.churnLocked(cur, "")
			changed++
			continue
		}
		if fresher(in, cur.GossipEntry) {
			was := cur.State
			cur.GossipEntry = in
			t.churnLocked(cur, was)
			if in.State == wire.GossipAlive {
				cur.seen = now
			}
			changed++
		}
	}
	t.divergence.Set(float64(changed))
	t.gaugeStatesLocked()
	return changed
}

// refuteLocked answers a claim about this node so that our own entry
// outranks it fleet-wide: a suspect or dead claim is refuted by moving
// our incarnation past the claim's, and an alive record fresher than
// ours (one remembered from before a restart) is overtaken at its own
// incarnation with a higher beat. Our incarnation thus ends at the
// highest any claim demands, whatever order the claims arrive in. It
// reports whether our entry changed.
func (t *Table) refuteLocked(in wire.GossipEntry, now time.Time) bool {
	inc := in.Incarnation
	if badness(in.State) > badness(wire.GossipAlive) {
		inc++
	}
	switch {
	case inc > t.self.Incarnation:
		t.self.Incarnation = inc
		t.refutations.Inc()
	case inc < t.self.Incarnation || in.State != wire.GossipAlive || in.Beat <= t.self.Beat:
		return false // stale, already refuted, or our own entry echoed back
	}
	if in.State == wire.GossipAlive && in.Beat >= t.self.Beat {
		t.self.Beat = in.Beat + 1
	}
	t.self.State = wire.GossipAlive
	t.self.seen = now
	return true
}

// Witness records direct evidence that addr is reachable right now — a
// completed HTTP exchange with it — postponing its suspect/dead aging.
// It does not overturn a suspect/dead state (only the node itself can,
// by refuting with a higher incarnation), so the fleet-wide order never
// regresses.
func (t *Table) Witness(addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[addr]; ok && addr != t.opts.Self {
		e.seen = t.clock()
	}
}

// Sweep ages entries against the injected clock: alive members unseen
// for SuspectAfter turn suspect, anything unseen for DeadAfter turns
// dead. Returns the number of transitions made.
func (t *Table) Sweep() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.clock()
	transitions := 0
	for addr, e := range t.entries {
		if addr == t.opts.Self {
			continue
		}
		age := now.Sub(e.seen)
		was := e.State
		switch {
		case e.State != wire.GossipDead && age >= t.opts.DeadAfter:
			e.State = wire.GossipDead
			transitions++
		case e.State == wire.GossipAlive && age >= t.opts.SuspectAfter:
			e.State = wire.GossipSuspect
			transitions++
		}
		t.churnLocked(e, was)
	}
	if transitions > 0 {
		t.gaugeStatesLocked()
	}
	return transitions
}

// NoteRound books one gossip exchange attempt for the metrics plane.
func (t *Table) NoteRound(ok bool) {
	if ok {
		t.rounds["ok"].Inc()
	} else {
		t.rounds["error"].Inc()
	}
}

// Snapshot copies the full table, self first, rest sorted by address.
func (t *Table) Snapshot() []wire.GossipEntry {
	return t.Digest()
}

// Alive lists the members currently believed alive, self included,
// sorted by address.
func (t *Table) Alive() []wire.GossipEntry {
	out := t.Digest()
	kept := out[:0]
	for _, e := range out {
		if e.State == wire.GossipAlive {
			kept = append(kept, e)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Addr < kept[j].Addr })
	return kept
}

// State returns the table's current verdict on addr ("" if unknown).
func (t *Table) State(addr string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[addr]; ok {
		return e.State
	}
	return ""
}

// churnLocked books e's move into or out of the alive set, from state
// was.
func (t *Table) churnLocked(e *entry, was string) {
	switch {
	case was != wire.GossipAlive && e.State == wire.GossipAlive && e.joined:
		t.churn["rejoin"].Inc()
	case was != wire.GossipAlive && e.State == wire.GossipAlive:
		e.joined = true
		t.churn["join"].Inc()
	case was == wire.GossipAlive && e.State != wire.GossipAlive:
		t.churn["leave"].Inc()
	}
}

// gaugeStatesLocked re-derives the per-state member gauges and the
// fleet size.
func (t *Table) gaugeStatesLocked() {
	counts := map[string]int{}
	for _, e := range t.entries {
		counts[e.State]++
	}
	for state, g := range t.states {
		g.Set(float64(counts[state]))
	}
	t.members.Set(float64(counts[wire.GossipAlive]))
}
