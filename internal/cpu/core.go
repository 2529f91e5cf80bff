// Package cpu implements the cycle-level out-of-order superscalar timing
// model used as the detailed simulator substrate (DESIGN.md: substitution
// for the paper's modified SimpleScalar).
//
// The model executes a workload.Generator instruction stream through a
// fetch → dispatch → issue → writeback → commit pipeline with:
//
//   - a decoupled fetch unit with gshare/BTB/RAS prediction, IL1 and ITLB;
//     fetch stalls on instruction-cache misses and on unresolved
//     mispredicted branches (stall-on-mispredict; no wrong-path execution);
//   - dispatch into ROB, IQ and LSQ subject to capacity and to the DVM
//     throttle when enabled;
//   - dataflow issue limited by issue width and Table 1 functional-unit
//     pools, with loads probing DL1/DTLB/L2/memory for their latency;
//   - in-order commit bounded by commit width.
//
// Every structure the nine design parameters name (fetch width, ROB, IQ,
// LSQ, both L1s, L2 and the two latencies) has first-class timing effect.
//
// Run skips cycles in which nothing can happen. The core is quiescent
// when this cycle's completion-wheel slot and the ready queue are empty,
// the ROB head cannot commit (not completed, ROB empty, or the run's
// commit budget reached), dispatch is blocked (empty fetch buffer, or no
// ROB, IQ or — for a memory op — LSQ entry), fetch is blocked (an
// unresolved mispredict, an instruction-fetch stall, or a full buffer),
// and no DVM controller samples the cycle. A quiescent core stays so
// until the next wheel completion or the end of the fetch stall, so Run
// elapses the cycles up to that event in one step: the occupancy sums
// and the AVF tracker take k cycles at the unchanged occupancies, exactly
// what k single steps would add. The run is bit-identical to stepping
// every cycle, including the cycle at which the watchdog reports a
// deadlock; a run with DVM steps every cycle.
package cpu

import (
	"fmt"
	"math/bits"

	"repro/internal/avf"
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/dvm"
	"repro/internal/space"
	"repro/internal/workload"
)

// wheelSize bounds the completion time wheel; it must exceed the largest
// possible single-instruction latency (TLB miss + memory + L2 + L1).
const wheelSize = 1024

// mispredictRedirectPenalty is the front-end refill delay after a resolved
// misprediction, on top of the resolution delay itself.
const mispredictRedirectPenalty = 3

// Execution latencies per op class (cycles); loads compute theirs from the
// memory hierarchy.
var execLatency = [workload.NumOpClasses]uint64{
	workload.OpIntALU: 1,
	workload.OpIntMul: 7,
	workload.OpFPALU:  4,
	workload.OpFPMul:  12,
	workload.OpLoad:   0, // computed
	workload.OpStore:  1,
	workload.OpBranch: 1,
}

type robEntry struct {
	seq       uint64
	op        workload.OpClass
	dead      bool
	inIQ      bool
	usesLSQ   bool
	completed bool

	pendingDeps int32
	// consumers lists the dependence edges of the entries waiting on this
	// one: edge 2·slot+k is dependence k of the entry at slot, whose
	// depNext[k] links the next edge.
	consumers list
	depNext   [2]int32
	// nextDone links the next entry completing in the same wheel slot.
	nextDone int32

	mispredicted bool
	// Memory hierarchy outcomes recorded at dispatch, consumed by
	// loadLatency at issue.
	dl1Miss  bool
	l2Miss   bool
	dtlbMiss bool
}

// list is a FIFO threaded through the ROB entries' own link fields, so the
// completion wheel and the dependence lists allocate nothing. head and
// tail are -1 when the list is empty.
type list struct{ head, tail int32 }

var emptyList = list{head: -1, tail: -1}

// fetchedInst is an instruction waiting in the fetch buffer for dispatch.
type fetchedInst struct {
	inst         workload.Inst
	mispredicted bool
}

// Core is one simulated processor bound to a configuration and a workload.
type Core struct {
	cfg space.Config
	gen workload.Generator

	il1, dl1, l2 *cache.Cache
	itlb, dtlb   *cache.TLB
	gshare       *bpred.Gshare
	btb          *bpred.BTB
	ras          *bpred.RAS
	tracker      *avf.Tracker
	dvmCtl       *dvm.Controller

	cycle uint64
	seq   uint64

	rob      []robEntry
	robHead  int
	robCount int
	iqCount  int
	lsqCount int
	readyQ   []int32

	fetchQ          []fetchedInst
	fetchHead       int  // dispatch cursor into fetchQ; compacted per cycle
	fetchBlocked    bool // an in-flight mispredicted branch gates fetch
	blockedSlot     int32
	blockedInQ      bool // the blocking branch is still in the fetch queue
	fetchStallUntil uint64

	wheel [wheelSize]list // ROB slots completing at cycle ≡ index
	// wheelOcc has bit s set while wheel[s] holds completions, so the next
	// pending completion is found a word at a time.
	wheelOcc [wheelSize / 64]uint64

	outstandingL2 int

	committed uint64
	// commitStop bounds commit so a Run retires exactly its instruction
	// budget even when the final cycle could retire a full commit group.
	commitStop uint64
	c          counters
}

// counters accumulates activity; interval stats are deltas of this.
type counters struct {
	fetches, dispatches, issues, commits uint64
	il1Access, il1Miss                   uint64
	dl1Access, dl1Miss                   uint64
	l2Access, l2Miss                     uint64
	itlbMiss, dtlbMiss                   uint64
	branches, mispredicts                uint64
	intOps, fpOps, memOps                uint64
	robOccSum, iqOccSum, lsqOccSum       uint64
	dvmStallCycles                       uint64
}

// New builds a core for the configuration and workload. The workload
// generator is reset so every run starts from the same stream position.
func New(cfg space.Config, gen workload.Generator) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Core{cfg: cfg, gen: gen}
	var err error
	if c.il1, err = cache.New("il1", cfg.IL1SizeKB, cfg.IL1Assoc, cfg.IL1LineB); err != nil {
		return nil, err
	}
	if c.dl1, err = cache.New("dl1", cfg.DL1SizeKB, cfg.DL1Assoc, cfg.DL1LineB); err != nil {
		return nil, err
	}
	if c.l2, err = cache.New("l2", cfg.L2SizeKB, cfg.L2Assoc, cfg.L2LineB); err != nil {
		return nil, err
	}
	if c.itlb, err = cache.NewTLB("itlb", cfg.ITLBEntries, 4); err != nil {
		return nil, err
	}
	if c.dtlb, err = cache.NewTLB("dtlb", cfg.DTLBEntries, 4); err != nil {
		return nil, err
	}
	c.gshare = bpred.NewGshare(cfg.BPredEntries, cfg.GHistBits)
	c.btb = bpred.NewBTB(cfg.BTBEntries, 4)
	c.ras = bpred.NewRAS(cfg.RASEntries)
	c.tracker = avf.NewTracker(cfg.IQSize, cfg.ROBSize)
	c.rob = make([]robEntry, cfg.ROBSize)
	c.fetchQ = make([]fetchedInst, 0, 4*cfg.FetchWidth)
	c.blockedSlot = -1
	for i := range c.wheel {
		c.wheel[i] = emptyList
	}
	gen.Reset()
	return c, nil
}

// EnableDVM attaches the Section 5 IQ vulnerability-management policy with
// the given online sampling interval (in cycles).
func (c *Core) EnableDVM(threshold float64, sampleIntervalCycles uint64) {
	c.dvmCtl = dvm.NewController(threshold, c.cfg.IQSize, sampleIntervalCycles)
}

// Config returns the core's configuration.
func (c *Core) Config() space.Config { return c.cfg }

// step advances the simulation one cycle.
func (c *Core) step() {
	c.writeback()
	c.commit()
	c.issue()
	c.dispatch()
	// Compact the fetch buffer so fetch sees its true free capacity.
	if c.fetchHead > 0 {
		n := copy(c.fetchQ, c.fetchQ[c.fetchHead:])
		c.fetchQ = c.fetchQ[:n]
		c.fetchHead = 0
	}
	c.fetch()
	if c.dvmCtl != nil {
		c.dvmCtl.Tick(c.tracker.CurrentIQACE())
	}
	c.elapse(1)
}

// elapse accounts k cycles of residency at the current occupancies and
// advances the clock past them.
func (c *Core) elapse(k uint64) {
	c.c.robOccSum += k * uint64(c.robCount)
	c.c.iqOccSum += k * uint64(c.iqCount)
	c.c.lsqOccSum += k * uint64(c.lsqCount)
	c.tracker.TickN(k)
	c.cycle += k
}

// idleCycles returns how many cycles, starting with this one and at most
// limit, would step without effect: nothing completes, issues, commits,
// dispatches or fetches in them, so Run may elapse them in bulk. It
// returns 0 when this cycle must step: something can happen in it, a DVM
// controller samples every cycle, or no event is pending at all (a
// deadlock, which the watchdog must see cycle by cycle).
func (c *Core) idleCycles(limit uint64) uint64 {
	if c.dvmCtl != nil || len(c.readyQ) > 0 {
		return 0
	}
	if c.robCount > 0 && c.committed < c.commitStop && c.rob[c.robHead].completed {
		return 0
	}
	if c.fetchHead < len(c.fetchQ) && !c.windowFull(c.fetchQ[c.fetchHead].inst.Op) {
		return 0
	}
	next, pending := c.nextCompletion()
	if !c.fetchBlocked && len(c.fetchQ) < cap(c.fetchQ) {
		if c.cycle >= c.fetchStallUntil {
			return 0
		}
		if stall := c.fetchStallUntil - c.cycle; !pending || stall < next {
			next, pending = stall, true
		}
	}
	if !pending {
		return 0
	}
	return min(next, limit)
}

// nextCompletion returns how many cycles from now the nearest non-empty
// wheel slot lies (0: this cycle's), and false if the wheel is empty.
func (c *Core) nextCompletion() (uint64, bool) {
	start := c.cycle % wheelSize
	w := start / 64
	word := c.wheelOcc[w] &^ (1<<(start%64) - 1)
	// One pass over the other words, then the first word's low bits,
	// which hold the slots that wrap around to the far end of the wheel.
	for i := 0; i <= len(c.wheelOcc); i++ {
		if word != 0 {
			slot := w*64 + uint64(bits.TrailingZeros64(word))
			return (slot - start + wheelSize) % wheelSize, true
		}
		w = (w + 1) % uint64(len(c.wheelOcc))
		word = c.wheelOcc[w]
	}
	return 0, false
}

// writeback drains this cycle's completions, waking dependents.
func (c *Core) writeback() {
	s := c.cycle % wheelSize
	slot := &c.wheel[s]
	c.wheelOcc[s/64] &^= 1 << (s % 64)
	for idx := slot.head; idx >= 0; idx = c.rob[idx].nextDone {
		e := &c.rob[idx]
		e.completed = true
		if e.op == workload.OpLoad && e.l2Miss {
			c.outstandingL2--
		}
		if e.mispredicted && c.fetchBlocked && !c.blockedInQ && c.blockedSlot == idx {
			c.fetchBlocked = false
			c.blockedSlot = -1
			resume := c.cycle + mispredictRedirectPenalty
			if resume > c.fetchStallUntil {
				c.fetchStallUntil = resume
			}
		}
		for edge := e.consumers.head; edge >= 0; edge = c.rob[edge/2].depNext[edge%2] {
			consumer := edge / 2
			ce := &c.rob[consumer]
			ce.pendingDeps--
			if ce.pendingDeps == 0 && ce.inIQ {
				c.readyQ = append(c.readyQ, consumer)
			}
		}
	}
	*slot = emptyList
}

// commit retires completed instructions in order.
func (c *Core) commit() {
	width := c.cfg.FetchWidth
	for n := 0; n < width && c.robCount > 0 && c.committed < c.commitStop; n++ {
		e := &c.rob[c.robHead]
		if !e.completed {
			return
		}
		if e.usesLSQ {
			c.lsqCount--
		}
		c.tracker.OnCommit(e.dead)
		c.robHead = (c.robHead + 1) % len(c.rob)
		c.robCount--
		c.committed++
		c.c.commits++
	}
}

// issue selects ready instructions oldest-first subject to issue width and
// functional unit availability.
func (c *Core) issue() {
	if len(c.readyQ) == 0 {
		return
	}
	width := c.cfg.FetchWidth
	// Per-class issue slots this cycle (Table 1 functional unit pools).
	var slots [workload.NumOpClasses]int
	slots[workload.OpIntALU] = c.cfg.IntALU
	slots[workload.OpIntMul] = c.cfg.IntMulDiv
	slots[workload.OpFPALU] = c.cfg.FPALU
	slots[workload.OpFPMul] = c.cfg.FPMulDiv
	slots[workload.OpLoad] = c.cfg.MemPorts
	slots[workload.OpStore] = c.cfg.MemPorts
	slots[workload.OpBranch] = c.cfg.IntALU

	issued := 0
	for issued < width {
		// Oldest eligible ready instruction.
		best := -1
		var bestSeq uint64
		for i, idx := range c.readyQ {
			e := &c.rob[idx]
			if slots[e.op] <= 0 {
				continue
			}
			if best == -1 || e.seq < bestSeq {
				best, bestSeq = i, e.seq
			}
		}
		if best == -1 {
			return
		}
		idx := c.readyQ[best]
		c.readyQ[best] = c.readyQ[len(c.readyQ)-1]
		c.readyQ = c.readyQ[:len(c.readyQ)-1]

		e := &c.rob[idx]
		slots[e.op]--
		if e.op == workload.OpBranch || e.op == workload.OpIntALU || e.op == workload.OpIntMul {
			c.c.intOps++
		} else if e.op == workload.OpFPALU || e.op == workload.OpFPMul {
			c.c.fpOps++
		}
		e.inIQ = false
		c.iqCount--
		c.tracker.OnIssue(e.dead)
		c.c.issues++

		lat := execLatency[e.op]
		if e.op == workload.OpLoad {
			lat = c.loadLatency(e)
		}
		if lat == 0 {
			lat = 1
		}
		c.pushDone((c.cycle+lat)%wheelSize, idx)
		issued++
	}
}

// pushDone appends ROB slot idx to wheel slot s.
func (c *Core) pushDone(s uint64, idx int32) {
	w := &c.wheel[s]
	c.rob[idx].nextDone = -1
	if w.tail < 0 {
		w.head = idx
		c.wheelOcc[s/64] |= 1 << (s % 64)
	} else {
		c.rob[w.tail].nextDone = idx
	}
	w.tail = idx
}

// loadLatency composes the latency of a load from the hierarchy outcomes
// recorded at dispatch. The cache state itself was already updated then;
// only timing is decided here.
func (c *Core) loadLatency(e *robEntry) uint64 {
	lat := uint64(c.cfg.DL1Lat)
	if e.l2Miss {
		lat += uint64(c.cfg.L2Lat) + uint64(c.cfg.MemLat)
		c.outstandingL2++
	} else if e.dl1Miss {
		lat += uint64(c.cfg.L2Lat)
	}
	if e.dtlbMiss {
		lat += uint64(c.cfg.TLBMissLat)
	}
	return lat
}

// dispatch moves instructions from the fetch buffer into the window.
func (c *Core) dispatch() {
	width := c.cfg.FetchWidth
	if c.dvmCtl != nil {
		waiting := c.iqCount - len(c.readyQ)
		if c.dvmCtl.ShouldStallDispatch(c.outstandingL2, waiting, len(c.readyQ)) {
			c.c.dvmStallCycles++
			return
		}
	}
	for n := 0; n < width && c.fetchHead < len(c.fetchQ); n++ {
		fi := &c.fetchQ[c.fetchHead]
		inst := &fi.inst
		if c.windowFull(inst.Op) {
			return
		}
		needsLSQ := inst.Op == workload.OpLoad || inst.Op == workload.OpStore

		slot := int32((c.robHead + c.robCount) % len(c.rob))
		e := &c.rob[slot]
		*e = robEntry{
			seq:          c.seq,
			op:           inst.Op,
			dead:         inst.Dead,
			inIQ:         true,
			usesLSQ:      needsLSQ,
			mispredicted: fi.mispredicted,
			consumers:    emptyList,
		}
		c.robCount++
		c.iqCount++
		if needsLSQ {
			c.lsqCount++
		}
		c.tracker.OnDispatch(e.dead)
		c.c.dispatches++
		if inst.Op == workload.OpLoad || inst.Op == workload.OpStore {
			c.c.memOps++
			c.accessDataHierarchy(e, inst)
		}
		if fi.mispredicted && c.blockedInQ {
			c.blockedSlot = slot
			c.blockedInQ = false
		}

		// Resolve register dependences against the in-flight window: the
		// producer of a distance-d dependence occupies the ROB slot d
		// positions back, provided it has not committed (d < robCount).
		for k, d := range [2]uint16{inst.Dep1, inst.Dep2} {
			if d == 0 || int(d) >= c.robCount {
				continue // no dependence, or producer already committed
			}
			prodSlot := (int(slot) - int(d) + len(c.rob)) % len(c.rob)
			pe := &c.rob[prodSlot]
			if pe.completed {
				continue
			}
			c.addConsumer(pe, slot, k)
			e.pendingDeps++
		}
		if e.pendingDeps == 0 {
			c.readyQ = append(c.readyQ, slot)
		}
		c.seq++
		c.fetchHead++
	}
}

// addConsumer appends dependence k of the entry at slot to producer pe's
// consumers.
func (c *Core) addConsumer(pe *robEntry, slot int32, k int) {
	edge := 2*slot + int32(k)
	c.rob[slot].depNext[k] = -1
	if t := pe.consumers.tail; t < 0 {
		pe.consumers.head = edge
	} else {
		c.rob[t/2].depNext[t%2] = edge
	}
	pe.consumers.tail = edge
}

// windowFull reports whether an instruction of class op finds no free ROB,
// IQ or (for a memory op) LSQ entry to dispatch into.
func (c *Core) windowFull(op workload.OpClass) bool {
	if c.robCount >= c.cfg.ROBSize || c.iqCount >= c.cfg.IQSize {
		return true
	}
	return (op == workload.OpLoad || op == workload.OpStore) && c.lsqCount >= c.cfg.LSQSize
}

// accessDataHierarchy probes DTLB, DL1 and L2 for a memory instruction and
// records the outcome flags consumed by loadLatency.
func (c *Core) accessDataHierarchy(e *robEntry, inst *workload.Inst) {
	c.c.dl1Access++
	if !c.dtlb.Access(inst.Addr) {
		c.c.dtlbMiss++
		e.dtlbMiss = true
	}
	if !c.dl1.Access(inst.Addr) {
		c.c.dl1Miss++
		e.dl1Miss = true
		c.c.l2Access++
		if !c.l2.Access(inst.Addr) {
			c.c.l2Miss++
			if inst.Op == workload.OpLoad {
				e.l2Miss = true
			}
		}
	}
}

// fetch brings instructions into the fetch buffer.
func (c *Core) fetch() {
	if c.fetchBlocked || c.cycle < c.fetchStallUntil {
		return
	}
	width := c.cfg.FetchWidth
	room := cap(c.fetchQ) - len(c.fetchQ)
	if room < width {
		width = room
	}
	for n := 0; n < width; n++ {
		// Generate straight into the buffer slot: a local Inst would escape
		// through the interface call and cost one allocation per fetch.
		c.fetchQ = append(c.fetchQ, fetchedInst{})
		fi := &c.fetchQ[len(c.fetchQ)-1]
		inst := &fi.inst
		c.gen.Next(inst)
		c.c.fetches++

		// Instruction memory.
		c.c.il1Access++
		if !c.itlb.Access(inst.PC) {
			c.c.itlbMiss++
			if stall := c.cycle + uint64(c.cfg.TLBMissLat); stall > c.fetchStallUntil {
				c.fetchStallUntil = stall
			}
		}
		if !c.il1.Access(inst.PC) {
			c.c.il1Miss++
			c.c.l2Access++
			stall := uint64(c.cfg.L2Lat)
			if !c.l2.Access(inst.PC) {
				c.c.l2Miss++
				stall += uint64(c.cfg.MemLat)
			}
			if c.cycle+stall > c.fetchStallUntil {
				c.fetchStallUntil = c.cycle + stall
			}
		}

		stopFetch := false
		if inst.Op == workload.OpBranch {
			c.c.branches++
			fi.mispredicted = c.predictBranch(inst)
			if fi.mispredicted {
				c.c.mispredicts++
				c.fetchBlocked = true
				c.blockedInQ = true
				stopFetch = true
			} else if inst.Taken {
				// Even a correctly predicted taken branch ends the
				// fetch group.
				stopFetch = true
			}
		}
		if stopFetch || c.cycle < c.fetchStallUntil {
			return
		}
	}
}

// predictBranch runs the front-end predictors against the branch and
// reports whether the machine would mispredict it (direction or target).
func (c *Core) predictBranch(inst *workload.Inst) bool {
	mispred := false

	predTaken := c.gshare.Predict(inst.PC)
	c.gshare.Update(inst.PC, inst.Taken)

	switch {
	case inst.IsRet:
		// Returns are predicted taken via the RAS.
		target, ok := c.ras.Pop()
		if !ok || target != inst.Target {
			mispred = true
		}
	case inst.IsCall:
		c.ras.Push(inst.PC + 4)
		target, ok := c.btb.Lookup(inst.PC)
		if !ok || target != inst.Target {
			mispred = true
		}
		c.btb.Insert(inst.PC, inst.Target)
	default:
		if predTaken != inst.Taken {
			mispred = true
		}
		if inst.Taken {
			target, ok := c.btb.Lookup(inst.PC)
			if predTaken && (!ok || target != inst.Target) {
				mispred = true
			}
			c.btb.Insert(inst.PC, inst.Target)
		}
	}
	return mispred
}

// watchdogWindow bounds how long the core may go without committing before
// Run reports a deadlock (a model bug, not a workload property).
const watchdogWindow = 1_000_000

// ErrDeadlock is returned when the pipeline stops retiring instructions.
var ErrDeadlock = fmt.Errorf("cpu: pipeline deadlock (no commit progress)")
