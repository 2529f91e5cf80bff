// Package avf implements Architectural Vulnerability Factor accounting in
// the style of Mukherjee et al. (MICRO 2003): a structure's AVF over an
// interval is the fraction of its bit-cycles occupied by ACE state —
// state whose corruption would change the program's result.
//
// The CPU model feeds the tracker occupancy events; dynamically dead
// instructions (tagged by the workload generator) are un-ACE, as are empty
// entries. Entries are treated as uniform bit containers, so AVF is
// computed over entry-cycles.
package avf

import "fmt"

// Tracker accumulates ACE entry-cycles for the instruction queue and
// reorder buffer of one core.
type Tracker struct {
	iqSize  int
	robSize int

	curIQACE  int
	curROBACE int

	cycles       uint64
	iqACECycles  uint64
	robACECycles uint64
}

// NewTracker builds a tracker for the given structure sizes.
func NewTracker(iqSize, robSize int) *Tracker {
	if iqSize <= 0 || robSize <= 0 {
		panic(fmt.Sprintf("avf: non-positive structure sizes (%d, %d)", iqSize, robSize))
	}
	return &Tracker{iqSize: iqSize, robSize: robSize}
}

// OnDispatch records an instruction entering the ROB and IQ.
func (t *Tracker) OnDispatch(dead bool) {
	if !dead {
		t.curIQACE++
		t.curROBACE++
	}
}

// OnIssue records an instruction leaving the IQ.
func (t *Tracker) OnIssue(dead bool) {
	if !dead {
		t.curIQACE--
		if t.curIQACE < 0 {
			panic("avf: IQ ACE underflow")
		}
	}
}

// OnCommit records an instruction leaving the ROB.
func (t *Tracker) OnCommit(dead bool) {
	if !dead {
		t.curROBACE--
		if t.curROBACE < 0 {
			panic("avf: ROB ACE underflow")
		}
	}
}

// Tick accumulates one cycle of residency.
func (t *Tracker) Tick() { t.TickN(1) }

// TickN accumulates k cycles of unchanged residency: exactly k Ticks.
func (t *Tracker) TickN(k uint64) {
	t.cycles += k
	t.iqACECycles += k * uint64(t.curIQACE)
	t.robACECycles += k * uint64(t.curROBACE)
}

// CurrentIQACE returns the number of ACE entries resident in the IQ now —
// the signal the DVM policy samples.
func (t *Tracker) CurrentIQACE() int { return t.curIQACE }

// Cycles returns the number of accumulated cycles.
func (t *Tracker) Cycles() uint64 { return t.cycles }

// IQAVF returns the cumulative instruction-queue AVF.
func (t *Tracker) IQAVF() float64 {
	if t.cycles == 0 {
		return 0
	}
	return float64(t.iqACECycles) / (float64(t.iqSize) * float64(t.cycles))
}

// ROBAVF returns the cumulative reorder-buffer AVF.
func (t *Tracker) ROBAVF() float64 {
	if t.cycles == 0 {
		return 0
	}
	return float64(t.robACECycles) / (float64(t.robSize) * float64(t.cycles))
}

// Snapshot captures the raw accumulators so a caller can compute interval
// (delta) AVFs.
type Snapshot struct {
	Cycles       uint64
	IQACECycles  uint64
	ROBACECycles uint64
}

// Snapshot returns the current accumulator values.
func (t *Tracker) Snapshot() Snapshot {
	return Snapshot{Cycles: t.cycles, IQACECycles: t.iqACECycles, ROBACECycles: t.robACECycles}
}

// IntervalAVF computes the IQ and ROB AVF between two snapshots.
func (t *Tracker) IntervalAVF(from, to Snapshot) (iqAVF, robAVF float64) {
	dc := to.Cycles - from.Cycles
	if dc == 0 {
		return 0, 0
	}
	iqAVF = float64(to.IQACECycles-from.IQACECycles) / (float64(t.iqSize) * float64(dc))
	robAVF = float64(to.ROBACECycles-from.ROBACECycles) / (float64(t.robSize) * float64(dc))
	return iqAVF, robAVF
}
