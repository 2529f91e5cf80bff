package gossip

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// fakeClock is a settable clock; gossip transitions are pure functions
// of it, so none of these tests sleep.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTable(self string, clock *fakeClock) *Table {
	return New(Options{
		Self:         self,
		SuspectAfter: 10 * time.Second,
		DeadAfter:    30 * time.Second,
		Clock:        clock.now,
	})
}

func TestSuspectDeadTransitions(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	tb := newTable("a:1", clock)
	tb.Merge([]wire.GossipEntry{{Addr: "b:1", State: wire.GossipAlive, Beat: 1}})

	if got := tb.State("b:1"); got != wire.GossipAlive {
		t.Fatalf("fresh member state = %q, want alive", got)
	}
	clock.advance(9 * time.Second)
	if n := tb.Sweep(); n != 0 {
		t.Fatalf("premature transitions: %d", n)
	}
	clock.advance(2 * time.Second) // 11s unseen > SuspectAfter
	if n := tb.Sweep(); n != 1 || tb.State("b:1") != wire.GossipSuspect {
		t.Fatalf("after 11s: %d transitions, state %q; want 1, suspect", n, tb.State("b:1"))
	}
	clock.advance(20 * time.Second) // 31s unseen > DeadAfter
	if n := tb.Sweep(); n != 1 || tb.State("b:1") != wire.GossipDead {
		t.Fatalf("after 31s: %d transitions, state %q; want 1, dead", n, tb.State("b:1"))
	}
	// Dead is sticky at this incarnation: a stale alive claim loses.
	tb.Merge([]wire.GossipEntry{{Addr: "b:1", State: wire.GossipAlive, Beat: 50}})
	if got := tb.State("b:1"); got != wire.GossipDead {
		t.Fatalf("stale alive overturned death: state %q", got)
	}
	// A higher incarnation resurrects it.
	tb.Merge([]wire.GossipEntry{{Addr: "b:1", Incarnation: 1, State: wire.GossipAlive}})
	if got := tb.State("b:1"); got != wire.GossipAlive {
		t.Fatalf("incarnation bump did not resurrect: state %q", got)
	}
}

func TestWitnessPostponesSuspicion(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	tb := newTable("a:1", clock)
	tb.Merge([]wire.GossipEntry{{Addr: "b:1", State: wire.GossipAlive}})
	clock.advance(9 * time.Second)
	tb.Witness("b:1") // direct contact resets the aging clock
	clock.advance(9 * time.Second)
	if n := tb.Sweep(); n != 0 || tb.State("b:1") != wire.GossipAlive {
		t.Fatalf("witnessed member aged anyway: %d transitions, state %q", n, tb.State("b:1"))
	}
}

func TestIncarnationRefutation(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	tb := newTable("a:1", clock)
	// The fleet thinks we are suspect at our current incarnation.
	tb.Merge([]wire.GossipEntry{{Addr: "a:1", Incarnation: 0, State: wire.GossipSuspect}})
	self := tb.Digest()[0]
	if self.Incarnation != 1 || self.State != wire.GossipAlive {
		t.Fatalf("self after suspicion = inc %d state %q, want inc 1 alive", self.Incarnation, self.State)
	}
	// A death claim at the bumped incarnation forces another bump.
	tb.Merge([]wire.GossipEntry{{Addr: "a:1", Incarnation: 1, State: wire.GossipDead}})
	self = tb.Digest()[0]
	if self.Incarnation != 2 || self.State != wire.GossipAlive {
		t.Fatalf("self after death claim = inc %d state %q, want inc 2 alive", self.Incarnation, self.State)
	}
	// An alive claim about us at a lower incarnation changes nothing.
	tb.Merge([]wire.GossipEntry{{Addr: "a:1", Incarnation: 0, State: wire.GossipAlive}})
	if self = tb.Digest()[0]; self.Incarnation != 2 {
		t.Fatalf("stale self claim moved incarnation to %d", self.Incarnation)
	}
}

func TestMergePrecedence(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	tb := newTable("a:1", clock)
	tb.Merge([]wire.GossipEntry{{Addr: "b:1", Incarnation: 1, Beat: 5, State: wire.GossipAlive}})

	cases := []struct {
		name  string
		in    wire.GossipEntry
		state string
		beat  uint64
	}{
		{"stale incarnation loses", wire.GossipEntry{Addr: "b:1", Incarnation: 0, Beat: 99, State: wire.GossipDead}, wire.GossipAlive, 5},
		{"same incarnation higher beat wins", wire.GossipEntry{Addr: "b:1", Incarnation: 1, Beat: 7, State: wire.GossipAlive}, wire.GossipAlive, 7},
		{"same incarnation lower beat loses", wire.GossipEntry{Addr: "b:1", Incarnation: 1, Beat: 6, State: wire.GossipAlive}, wire.GossipAlive, 7},
		{"suspect beats alive at same incarnation", wire.GossipEntry{Addr: "b:1", Incarnation: 1, Beat: 0, State: wire.GossipSuspect}, wire.GossipSuspect, 0},
		{"dead beats suspect at same incarnation", wire.GossipEntry{Addr: "b:1", Incarnation: 1, Beat: 0, State: wire.GossipDead}, wire.GossipDead, 0},
		{"higher incarnation beats dead", wire.GossipEntry{Addr: "b:1", Incarnation: 2, Beat: 0, State: wire.GossipAlive}, wire.GossipAlive, 0},
	}
	for _, tc := range cases {
		tb.Merge([]wire.GossipEntry{tc.in})
		got := entryFor(t, tb, "b:1")
		if got.State != tc.state || got.Beat != tc.beat {
			t.Fatalf("%s: state %q beat %d, want %q %d", tc.name, got.State, got.Beat, tc.state, tc.beat)
		}
	}
}

func TestDigestConvergence(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	a, b := newTable("a:1", clock), newTable("b:1", clock)
	a.SetLocalInfo(4, []string{"gcc"})
	b.SetLocalInfo(2, []string{"mcf"})
	// One push-pull exchange: a pushes to b, b answers with its digest.
	if changed := b.Merge(a.Digest()); changed == 0 {
		t.Fatal("b learned nothing from a's digest")
	}
	if changed := a.Merge(b.Digest()); changed == 0 {
		t.Fatal("a learned nothing from b's digest")
	}
	// Second exchange changes nothing: the views converged.
	if changed := b.Merge(a.Digest()); changed != 0 {
		t.Fatalf("views did not converge: %d entries still changing", changed)
	}
	if got := len(a.Alive()); got != 2 {
		t.Fatalf("a sees %d alive members, want 2", got)
	}
	if e := entryFor(t, a, "b:1"); e.Capacity != 2 || len(e.Benchmarks) != 1 || e.Benchmarks[0] != "mcf" {
		t.Fatalf("inventory did not replicate: %+v", e)
	}
}

func entryFor(t *testing.T, tb *Table, addr string) wire.GossipEntry {
	t.Helper()
	for _, e := range tb.Snapshot() {
		if e.Addr == addr {
			return e
		}
	}
	t.Fatalf("no entry for %s", addr)
	return wire.GossipEntry{}
}

// A node restarted at incarnation 0 while the fleet remembers its old
// alive record overtakes that record — same incarnation, higher beat —
// so its fresh inventory wins merges fleet-wide; an equal record (its
// own entry echoed back) changes nothing.
func TestRefutationOvertakesRememberedRecord(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	tb := newTable("a:1", clock)
	if n := tb.Merge([]wire.GossipEntry{{Addr: "a:1", Incarnation: 3, Beat: 40, State: wire.GossipAlive}}); n != 1 {
		t.Fatalf("remembered record changed %d entries, want 1", n)
	}
	self := tb.Digest()[0]
	if self.Incarnation != 3 || self.Beat != 41 || self.State != wire.GossipAlive {
		t.Fatalf("self after the remembered record = %+v, want inc 3 beat 41 alive", self)
	}
	if n := tb.Merge([]wire.GossipEntry{self}); n != 0 {
		t.Fatalf("own entry echoed back changed %d entries, want 0", n)
	}
}

// TestFleetSeries pins the fleet series the table keeps for the
// coordinator: dsed_cluster_members is the alive count from the first
// moment (no round, no job), and dsed_cluster_membership_events_total
// counts entries entering and leaving the alive set — join the first
// time, rejoin after a departure, leave on suspicion or death.
func TestFleetSeries(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	reg := obs.NewRegistry(nil)
	tb := New(Options{Self: "a:1", SuspectAfter: 10 * time.Second, DeadAfter: 30 * time.Second, Clock: clock.now, Obs: reg})
	check := func(step string, members float64, join, rejoin, leave int64) {
		t.Helper()
		if got := reg.Gauge("dsed_cluster_members", "").Value(); got != members {
			t.Errorf("%s: dsed_cluster_members = %v, want %v", step, got, members)
		}
		for ev, want := range map[string]int64{"join": join, "rejoin": rejoin, "leave": leave} {
			if got := reg.Counter("dsed_cluster_membership_events_total", "", obs.Label{Key: "event", Value: ev}).Value(); got != want {
				t.Errorf("%s: %s events = %d, want %d", step, ev, got, want)
			}
		}
	}
	check("boot", 1, 1, 0, 0)
	tb.Merge([]wire.GossipEntry{
		{Addr: "b:1", State: wire.GossipAlive},
		{Addr: "c:1", State: wire.GossipSuspect},
	})
	check("b alive, c suspect", 2, 2, 0, 0)
	clock.advance(11 * time.Second)
	tb.Sweep()
	check("b suspect", 1, 2, 0, 1)
	clock.advance(20 * time.Second)
	tb.Sweep()
	check("b dead", 1, 2, 0, 1)
	tb.Merge([]wire.GossipEntry{
		{Addr: "b:1", Incarnation: 1, State: wire.GossipAlive},
		{Addr: "c:1", Incarnation: 1, State: wire.GossipAlive},
	})
	check("b back, c alive", 3, 3, 1, 1)
}
