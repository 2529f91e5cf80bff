package workload

import (
	"fmt"

	"repro/internal/mathx"
)

// Address-space layout: each phase owns disjoint regions for code, hot
// working set, streamed arrays and the pointer-chased heap, so phase
// transitions produce the cache-refill transients real phase changes do.
const (
	regionCode    = 0x10_0000_0000
	regionWS      = 0x20_0000_0000
	regionStream  = 0x30_0000_0000
	regionChase   = 0x40_0000_0000
	phaseSpacing  = 1 << 32
	streamSpacing = 1 << 28
)

const numStreams = 4

// maxDepDistance caps register dependence distances; it comfortably exceeds
// the largest ROB in the design space (160).
const maxDepDistance = 255

// maxCallDepth bounds the generator's internal call stack (deep recursion
// beyond the RAS capacity is what corrupts return prediction).
const maxCallDepth = 64

type phaseState struct {
	codeBase   uint64
	wsBase     uint64
	streamBase [numStreams]uint64
	streamPos  [numStreams]uint64
	streamNext int
	chaseBase  uint64
	chasePos   uint64
	branchSlot uint64

	// Loop-body walk over the code footprint: execution sits inside one
	// body for a few iterations, then jumps to another (biased towards a
	// hot subset). This produces the multi-scale code locality real
	// programs have; a flat cyclic sweep would defeat LRU at every cache
	// size.
	bodyLen   uint64
	numBodies uint64
	hotBodies uint64
	bodyStart uint64
	bodyPos   uint64
	itersLeft int
}

type generator struct {
	prof Profile
	rng  *mathx.RNG
	idx  uint64

	// depDist[i] draws phase i's register dependence distances.
	depDist []mathx.GeometricDist

	// Schedule lookup: stepEnd[i] is the position (within a period) at
	// which schedule step i ends.
	stepEnd []uint64
	curStep int

	phases []phaseState

	callStack [maxCallDepth]uint64
	callDepth int

	lastChaseIdx uint64
	haveChase    bool
}

// NewGenerator builds the deterministic instruction stream for a profile.
func NewGenerator(p Profile) (Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &generator{prof: p}
	var wsum float64
	for _, s := range p.Schedule {
		wsum += s.Weight
	}
	g.stepEnd = make([]uint64, len(p.Schedule))
	var acc float64
	for i, s := range p.Schedule {
		acc += s.Weight
		g.stepEnd[i] = uint64(acc / wsum * float64(p.PeriodInstrs))
	}
	g.stepEnd[len(g.stepEnd)-1] = uint64(p.PeriodInstrs) // absorb rounding
	g.depDist = make([]mathx.GeometricDist, len(p.Phases))
	for i, ph := range p.Phases {
		g.depDist[i] = mathx.NewGeometricDist(1 / ph.DepMean)
	}
	g.Reset()
	return g, nil
}

// MustNewGenerator is NewGenerator that panics on invalid profiles; for use
// with the vetted built-in profiles.
func MustNewGenerator(p Profile) Generator {
	g, err := NewGenerator(p)
	if err != nil {
		panic(err)
	}
	return g
}

// Name implements Generator.
func (g *generator) Name() string { return g.prof.Name }

// Reset implements Generator.
func (g *generator) Reset() {
	g.rng = mathx.NewRNG(g.prof.Seed)
	g.idx = 0
	g.curStep = 0
	g.callDepth = 0
	g.haveChase = false
	g.phases = make([]phaseState, len(g.prof.Phases))
	for i := range g.phases {
		ps := &g.phases[i]
		pi := uint64(i) * phaseSpacing
		ps.codeBase = regionCode + pi
		ps.wsBase = regionWS + pi
		ps.chaseBase = regionChase + pi
		for s := 0; s < numStreams; s++ {
			ps.streamBase[s] = regionStream + pi + uint64(s)*streamSpacing
		}
		blocks := uint64(g.prof.Phases[i].CodeBlocks)
		ps.bodyLen = blocks / 40
		if ps.bodyLen < 32 {
			ps.bodyLen = 32
		}
		if ps.bodyLen > 256 {
			ps.bodyLen = 256
		}
		if ps.bodyLen > blocks {
			ps.bodyLen = blocks
		}
		ps.numBodies = blocks / ps.bodyLen
		if ps.numBodies == 0 {
			ps.numBodies = 1
		}
		ps.hotBodies = ps.numBodies / 4
		if ps.hotBodies == 0 {
			ps.hotBodies = 1
		}
	}
}

// nextPC advances the loop-body walk and returns the current instruction
// address.
func (g *generator) nextPC(ps *phaseState) uint64 {
	if ps.itersLeft == 0 && ps.bodyPos == 0 { // fresh phase state
		g.chooseBody(ps)
	}
	pc := ps.codeBase + (ps.bodyStart+ps.bodyPos)*4
	ps.bodyPos++
	if ps.bodyPos >= ps.bodyLen {
		ps.bodyPos = 0
		ps.itersLeft--
		if ps.itersLeft <= 0 {
			g.chooseBody(ps)
		}
	}
	return pc
}

// chooseBody jumps to a new loop body with a skewed (hot/warm/cold)
// distribution, approximating the strongly Zipfian code reuse of real
// programs: half the time execution stays in a handful of super-hot inner
// loops, usually it stays within the hot quarter, and occasionally it
// visits cold code (which is what pressures the instruction cache).
func (g *generator) chooseBody(ps *phaseState) {
	super := ps.hotBodies
	if super > 3 {
		super = 3
	}
	var body uint64
	switch u := g.rng.Float64(); {
	case u < 0.65:
		body = uint64(g.rng.Intn(int(super)))
	case u < 0.85:
		body = uint64(g.rng.Intn(int(ps.hotBodies)))
	default:
		body = uint64(g.rng.Intn(int(ps.numBodies)))
	}
	ps.bodyStart = body * ps.bodyLen
	ps.bodyPos = 0
	ps.itersLeft = 2 + g.rng.Intn(6)
}

// currentPhase returns the phase index for the current instruction.
func (g *generator) currentPhase() int {
	pos := g.idx % uint64(g.prof.PeriodInstrs)
	if pos == 0 {
		g.curStep = 0
	}
	for pos >= g.stepEnd[g.curStep] {
		g.curStep++
		if g.curStep >= len(g.stepEnd) {
			g.curStep = 0
			break
		}
	}
	return g.prof.Schedule[g.curStep].Phase
}

// Next implements Generator.
func (g *generator) Next(inst *Inst) {
	pi := g.currentPhase()
	ph := &g.prof.Phases[pi]
	ps := &g.phases[pi]

	*inst = Inst{}
	inst.PC = g.nextPC(ps)
	// The op class is a fixed function of the PC: a static instruction is
	// the same instruction on every dynamic visit, so branch sites, load
	// sites and their predictor state are stable — as in real code.
	inst.Op = opForPC(ph, inst.PC)
	inst.Dead = g.rng.Float64() < ph.DeadFrac

	switch inst.Op {
	case OpLoad, OpStore:
		g.fillMemory(inst, ph, ps)
	case OpBranch:
		g.fillBranch(inst, ph, ps)
	}
	if inst.Dep1 == 0 {
		inst.Dep1 = g.depDistance(pi)
		if g.rng.Float64() < 0.6 {
			inst.Dep2 = g.depDistance(pi)
		}
	}
	g.idx++
}

// opForPC deterministically assigns an op class to a static instruction by
// hashing its PC into the phase's mix distribution.
func opForPC(ph *Phase, pc uint64) OpClass {
	h := pc * 0xD1B54A32D192ED03
	u := float64(h>>11) / (1 << 53)
	var total float64
	for _, m := range ph.Mix {
		total += m
	}
	x := u * total
	for op, m := range ph.Mix {
		x -= m
		if x < 0 {
			return OpClass(op)
		}
	}
	return OpIntALU
}

// depDistance draws a register dependence distance with mean DepMean of
// phase pi.
func (g *generator) depDistance(pi int) uint16 {
	d := 1 + g.depDist[pi].Draw(g.rng)
	if d > maxDepDistance {
		d = maxDepDistance
	}
	return uint16(d)
}

func (g *generator) fillMemory(inst *Inst, ph *Phase, ps *phaseState) {
	r := g.rng.Float64()
	switch {
	case r < ph.StreamFrac:
		s := ps.streamNext
		ps.streamNext = (ps.streamNext + 1) % numStreams
		inst.Addr = ps.streamBase[s] + ps.streamPos[s]
		ps.streamPos[s] += uint64(ph.StreamStride)
		if ps.streamPos[s] >= uint64(ph.StreamArrayBytes) {
			ps.streamPos[s] = 0
		}
	case r < ph.StreamFrac+ph.ChaseFrac && inst.Op == OpLoad:
		// Pointer chase: a serial chain of dependent loads walking the
		// region pseudo-randomly.
		ps.chasePos = (ps.chasePos*6364136223846793005 + 1442695040888963407) % uint64(ph.ChaseBytes)
		inst.Addr = ps.chaseBase + (ps.chasePos &^ 7)
		if g.haveChase {
			d := g.idx - g.lastChaseIdx
			if d < 1 {
				d = 1
			}
			if d > maxDepDistance {
				d = maxDepDistance
			}
			inst.Dep1 = uint16(d)
		}
		g.lastChaseIdx = g.idx
		g.haveChase = true
	default:
		inst.Addr = ps.wsBase + (uint64(g.rng.Intn(ph.WSBytes)) &^ 7)
	}
}

// hash01 maps a PC through a salted multiplicative hash onto [0,1),
// giving every static branch site stable characteristics.
func hash01(pc, salt uint64) float64 {
	return float64((pc*salt)>>11) / (1 << 53)
}

func (g *generator) fillBranch(inst *Inst, ph *Phase, ps *phaseState) {
	// The branch *kind* is a fixed property of the site (call site, return
	// site, indirect jump, conditional) — only outcomes of data-dependent
	// branches vary per visit. This keeps BTB/RAS/gshare state meaningful.
	site := hash01(inst.PC, 0xA24BAED4963EE407)
	h := inst.PC * 0x9E3779B97F4A7C15
	fixedTarget := ps.codeBase + (inst.PC*2654435761)%uint64(ph.CodeBlocks)*4

	half := ph.CallFrac / 2
	switch {
	case site < half:
		if g.callDepth < maxCallDepth {
			// Direct call: fixed callee, return address pushed.
			inst.IsCall = true
			inst.Taken = true
			inst.Target = fixedTarget
			g.callStack[g.callDepth] = inst.PC + 4
			g.callDepth++
		} else {
			inst.Taken = true
			inst.Target = fixedTarget
		}
	case site < ph.CallFrac:
		if g.callDepth > 0 {
			inst.IsRet = true
			inst.Taken = true
			g.callDepth--
			inst.Target = g.callStack[g.callDepth]
		} else {
			// Return site reached without a pending call in this walk:
			// behaves as a plain direct jump.
			inst.Taken = true
			inst.Target = fixedTarget
		}
	case site < ph.CallFrac+ph.IndirectFrac:
		// Indirect branch rotating among targets: direction predictable,
		// target not.
		inst.Taken = true
		tgt := (ps.branchSlot * 7919) % uint64(ph.CodeBlocks)
		ps.branchSlot++
		inst.Target = ps.codeBase + tgt*4
	default:
		// Conditional branch: a second hash decides whether the site is
		// "hard" (data-dependent outcome) and, for easy sites, the bias
		// direction.
		isHard := float64(h>>40&0xFFFF)/65536 < ph.HardBranchFrac
		if isHard {
			// Data-dependent outcome, fresh every visit.
			inst.Taken = g.rng.Float64() < ph.HardTakenProb
		} else {
			// Statically biased site: the direction never changes, so
			// its cost is only predictor cold-start and table aliasing —
			// matching how strongly biased real branches behave.
			inst.Taken = h>>32&1 == 1
		}
		// Deterministic per-PC target: a short backward or forward hop.
		off := int64(h>>16&0x3F) - 32
		if off == 0 {
			off = 4
		}
		tgt := int64(inst.PC) + off*4
		if tgt < int64(ps.codeBase) {
			tgt = int64(ps.codeBase)
		}
		inst.Target = uint64(tgt)
	}
}

// Stats summarises a stream prefix for validation and documentation.
type Stats struct {
	Instrs      uint64
	MixCounts   [NumOpClasses]uint64
	TakenRate   float64
	DeadRate    float64
	MeanDep     float64
	DistinctPCs int
}

// CollectStats drains n instructions from a generator and summarises them.
func CollectStats(g Generator, n int) Stats {
	var st Stats
	var inst Inst
	var taken, branches, dead uint64
	var depSum, depCnt uint64
	pcs := make(map[uint64]struct{})
	for i := 0; i < n; i++ {
		g.Next(&inst)
		st.MixCounts[inst.Op]++
		if inst.Op == OpBranch {
			branches++
			if inst.Taken {
				taken++
			}
		}
		if inst.Dead {
			dead++
		}
		if inst.Dep1 > 0 {
			depSum += uint64(inst.Dep1)
			depCnt++
		}
		if len(pcs) < 1<<20 {
			pcs[inst.PC] = struct{}{}
		}
	}
	st.Instrs = uint64(n)
	if branches > 0 {
		st.TakenRate = float64(taken) / float64(branches)
	}
	st.DeadRate = float64(dead) / float64(n)
	if depCnt > 0 {
		st.MeanDep = float64(depSum) / float64(depCnt)
	}
	st.DistinctPCs = len(pcs)
	return st
}

// String renders the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("n=%d taken=%.2f dead=%.2f meandep=%.1f pcs=%d",
		s.Instrs, s.TakenRate, s.DeadRate, s.MeanDep, s.DistinctPCs)
}
