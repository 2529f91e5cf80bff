package cpu

import (
	"fmt"

	"repro/internal/avf"
)

// Interval is the per-sample summary of one slice of execution — the unit
// the paper's workload-dynamics traces are built from (128 samples per run
// by default).
type Interval struct {
	Instrs uint64
	Cycles uint64

	// Activity counts within the interval (inputs to the power model).
	Fetches, Issues, Commits uint64
	IL1Accesses, IL1Misses   uint64
	DL1Accesses, DL1Misses   uint64
	L2Accesses, L2Misses     uint64
	ITLBMisses, DTLBMisses   uint64
	Branches, Mispredicts    uint64
	IntOps, FPOps, MemOps    uint64

	// Mean structure occupancies over the interval (entries).
	AvgROBOcc, AvgIQOcc, AvgLSQOcc float64

	// Reliability metrics.
	IQAVF  float64
	ROBAVF float64

	// DVM throttle activity (0 when DVM is disabled).
	DVMStallCycles uint64
}

// CPI returns cycles per committed instruction for the interval.
func (iv Interval) CPI() float64 {
	if iv.Instrs == 0 {
		return 0
	}
	return float64(iv.Cycles) / float64(iv.Instrs)
}

// IPC returns committed instructions per cycle for the interval.
func (iv Interval) IPC() float64 {
	if iv.Cycles == 0 {
		return 0
	}
	return float64(iv.Instrs) / float64(iv.Cycles)
}

// String renders the headline interval numbers.
func (iv Interval) String() string {
	return fmt.Sprintf("instrs=%d cycles=%d cpi=%.3f iqavf=%.3f",
		iv.Instrs, iv.Cycles, iv.CPI(), iv.IQAVF)
}

// Run simulates totalInstrs committed instructions, split into numSamples
// equal intervals, and returns the per-interval statistics. It returns
// ErrDeadlock if the pipeline stops making progress (a model invariant
// violation, not a workload property).
func (c *Core) Run(totalInstrs uint64, numSamples int) ([]Interval, error) {
	if totalInstrs == 0 || numSamples <= 0 {
		return nil, fmt.Errorf("cpu: Run needs positive instructions and samples, got %d/%d", totalInstrs, numSamples)
	}
	if totalInstrs%uint64(numSamples) != 0 {
		return nil, fmt.Errorf("cpu: totalInstrs %d not divisible by numSamples %d", totalInstrs, numSamples)
	}
	perSample := totalInstrs / uint64(numSamples)

	intervals := make([]Interval, 0, numSamples)
	lastCounters := c.c
	lastCycle := c.cycle
	lastCommitted := c.committed
	lastAVF := c.tracker.Snapshot()
	watchdogCommitted := c.committed
	watchdogCycle := c.cycle

	target := c.committed + totalInstrs
	c.commitStop = target
	nextBoundary := c.committed + perSample
	for c.committed < target {
		// Idle cycles elapse in bulk, but never past a check that acts
		// after a cycle: the watchdog's next one, or the snapshot still
		// owed when one commit group crossed more than one boundary. So
		// every interval and a deadlock's cycle come out as if stepped.
		limit := watchdogCycle + watchdogWindow - c.cycle
		if c.committed >= nextBoundary {
			limit = 1
		}
		if k := c.idleCycles(limit); k > 0 {
			c.elapse(k)
		} else {
			c.step()
		}
		if c.committed >= nextBoundary {
			iv := c.snapshotInterval(lastCounters, lastCycle, lastCommitted, lastAVF)
			intervals = append(intervals, iv)
			lastCounters = c.c
			lastCycle = c.cycle
			lastCommitted = c.committed
			lastAVF = c.tracker.Snapshot()
			nextBoundary += perSample
		}
		if c.cycle-watchdogCycle >= watchdogWindow {
			if c.committed == watchdogCommitted {
				return nil, fmt.Errorf("%w at cycle %d (%d committed)", ErrDeadlock, c.cycle, c.committed)
			}
			watchdogCommitted = c.committed
			watchdogCycle = c.cycle
		}
	}
	return intervals, nil
}

// snapshotInterval computes the delta statistics since the given snapshot.
func (c *Core) snapshotInterval(prev counters, prevCycle, prevCommitted uint64, prevAVF avf.Snapshot) Interval {
	cur := c.c
	dc := c.cycle - prevCycle
	iv := Interval{
		Instrs: c.committed - prevCommitted,
		Cycles: dc,

		Fetches:     cur.fetches - prev.fetches,
		Issues:      cur.issues - prev.issues,
		Commits:     cur.commits - prev.commits,
		IL1Accesses: cur.il1Access - prev.il1Access,
		IL1Misses:   cur.il1Miss - prev.il1Miss,
		DL1Accesses: cur.dl1Access - prev.dl1Access,
		DL1Misses:   cur.dl1Miss - prev.dl1Miss,
		L2Accesses:  cur.l2Access - prev.l2Access,
		L2Misses:    cur.l2Miss - prev.l2Miss,
		ITLBMisses:  cur.itlbMiss - prev.itlbMiss,
		DTLBMisses:  cur.dtlbMiss - prev.dtlbMiss,
		Branches:    cur.branches - prev.branches,
		Mispredicts: cur.mispredicts - prev.mispredicts,
		IntOps:      cur.intOps - prev.intOps,
		FPOps:       cur.fpOps - prev.fpOps,
		MemOps:      cur.memOps - prev.memOps,

		DVMStallCycles: cur.dvmStallCycles - prev.dvmStallCycles,
	}
	if dc > 0 {
		iv.AvgROBOcc = float64(cur.robOccSum-prev.robOccSum) / float64(dc)
		iv.AvgIQOcc = float64(cur.iqOccSum-prev.iqOccSum) / float64(dc)
		iv.AvgLSQOcc = float64(cur.lsqOccSum-prev.lsqOccSum) / float64(dc)
	}
	iv.IQAVF, iv.ROBAVF = c.tracker.IntervalAVF(prevAVF, c.tracker.Snapshot())
	return iv
}

// Cycles returns the total elapsed cycles.
func (c *Core) Cycles() uint64 { return c.cycle }

// Committed returns the total committed instructions.
func (c *Core) Committed() uint64 { return c.committed }
