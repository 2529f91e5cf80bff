package avf

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

func TestEmptyStructuresHaveZeroAVF(t *testing.T) {
	tr := NewTracker(32, 96)
	for i := 0; i < 100; i++ {
		tr.Tick()
	}
	if tr.IQAVF() != 0 || tr.ROBAVF() != 0 {
		t.Errorf("empty structures AVF = %v/%v, want 0", tr.IQAVF(), tr.ROBAVF())
	}
}

func TestFullyResidentACEInstruction(t *testing.T) {
	tr := NewTracker(4, 8)
	tr.OnDispatch(false)
	for i := 0; i < 10; i++ {
		tr.Tick()
	}
	// One ACE entry in a 4-entry IQ for all 10 cycles → AVF 0.25.
	if got := tr.IQAVF(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("IQ AVF = %v, want 0.25", got)
	}
	// And 1/8 in the ROB.
	if got := tr.ROBAVF(); math.Abs(got-0.125) > 1e-12 {
		t.Errorf("ROB AVF = %v, want 0.125", got)
	}
}

func TestDeadInstructionsAreUnACE(t *testing.T) {
	tr := NewTracker(4, 8)
	tr.OnDispatch(true) // dynamically dead
	for i := 0; i < 10; i++ {
		tr.Tick()
	}
	if tr.IQAVF() != 0 {
		t.Errorf("dead instruction contributed AVF %v", tr.IQAVF())
	}
	tr.OnIssue(true)
	tr.OnCommit(true)
}

func TestIssueRemovesFromIQButNotROB(t *testing.T) {
	tr := NewTracker(4, 8)
	tr.OnDispatch(false)
	tr.Tick() // cycle with entry in both
	tr.OnIssue(false)
	tr.Tick()                                           // entry only in ROB
	if got := tr.IQAVF(); math.Abs(got-0.125) > 1e-12 { // 1 of 2 cycles × 1/4
		t.Errorf("IQ AVF = %v, want 0.125", got)
	}
	if got := tr.ROBAVF(); math.Abs(got-0.125) > 1e-12 { // 2 of 2 cycles × 1/8
		t.Errorf("ROB AVF = %v, want 0.125", got)
	}
}

func TestIntervalAVF(t *testing.T) {
	tr := NewTracker(2, 4)
	tr.OnDispatch(false)
	tr.Tick()
	s1 := tr.Snapshot()
	tr.OnDispatch(false)
	tr.Tick()
	tr.Tick()
	iq, rob := tr.IntervalAVF(s1, tr.Snapshot())
	// Interval covers 2 cycles with 2 ACE entries in a 2-entry IQ → 1.0.
	if math.Abs(iq-1) > 1e-12 {
		t.Errorf("interval IQ AVF = %v, want 1", iq)
	}
	if math.Abs(rob-0.5) > 1e-12 {
		t.Errorf("interval ROB AVF = %v, want 0.5", rob)
	}
}

func TestIntervalAVFEmptyInterval(t *testing.T) {
	tr := NewTracker(2, 4)
	s := tr.Snapshot()
	iq, rob := tr.IntervalAVF(s, s)
	if iq != 0 || rob != 0 {
		t.Error("zero-cycle interval should report zero AVF")
	}
}

func TestUnderflowPanics(t *testing.T) {
	tr := NewTracker(2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on IQ ACE underflow")
		}
	}()
	tr.OnIssue(false)
}

func TestBadSizesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive sizes")
		}
	}()
	NewTracker(0, 4)
}

// Property: AVF always lies in [0,1] under random well-formed event
// sequences, and IQ AVF ≤ ROB-AVF × robSize/iqSize relation holds trivially
// through occupancy (checked as bounds only).
func TestAVFBoundsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		iqSize, robSize := 4+rng.Intn(28), 16+rng.Intn(80)
		tr := NewTracker(iqSize, robSize)
		type live struct{ dead, issued bool }
		var inflight []live
		unissued := 0
		for step := 0; step < 2000; step++ {
			switch rng.Intn(4) {
			case 0: // dispatch, respecting ROB and IQ capacity as the CPU does
				if len(inflight) < robSize && unissued < iqSize {
					d := rng.Float64() < 0.3
					tr.OnDispatch(d)
					inflight = append(inflight, live{dead: d})
					unissued++
				}
			case 1: // issue the oldest unissued
				for i := range inflight {
					if !inflight[i].issued {
						tr.OnIssue(inflight[i].dead)
						inflight[i].issued = true
						unissued--
						break
					}
				}
			case 2: // commit the oldest if issued
				if len(inflight) > 0 && inflight[0].issued {
					tr.OnCommit(inflight[0].dead)
					inflight = inflight[1:]
				}
			default:
				tr.Tick()
			}
		}
		tr.Tick()
		iq, rob := tr.IQAVF(), tr.ROBAVF()
		return iq >= 0 && iq <= 1 && rob >= 0 && rob <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTickNIsKTicks(t *testing.T) {
	a, b := NewTracker(32, 64), NewTracker(32, 64)
	for _, tr := range []*Tracker{a, b} {
		tr.OnDispatch(false)
		tr.OnDispatch(false)
		tr.OnDispatch(true)
		tr.OnIssue(false)
	}
	for i := 0; i < 37; i++ {
		a.Tick()
	}
	b.TickN(37)
	if a.Snapshot() != b.Snapshot() {
		t.Errorf("TickN(37) = %+v, 37 Ticks = %+v", b.Snapshot(), a.Snapshot())
	}
}
