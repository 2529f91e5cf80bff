package cpu

import (
	"errors"
	"testing"

	"repro/internal/space"
	"repro/internal/workload"
)

func TestThroughputBounds(t *testing.T) {
	// Fundamental pipeline bounds: IPC can never exceed the machine
	// width, so cycles ≥ instrs/width; and every instruction costs at
	// least something, so cycles ≥ instrs/width exactly at best.
	for _, width := range []int{2, 8, 16} {
		cfg := space.Baseline()
		cfg.FetchWidth = width
		ivs := mustRun(t, cfg, "eon", 32000, 8)
		var cycles, instrs uint64
		for _, iv := range ivs {
			cycles += iv.Cycles
			instrs += iv.Instrs
		}
		if cycles*uint64(width) < instrs {
			t.Errorf("width %d: IPC %v exceeds machine width",
				width, float64(instrs)/float64(cycles))
		}
	}
}

func TestIntervalsAreContiguous(t *testing.T) {
	p, _ := workload.ProfileByName("gcc")
	core, err := New(space.Baseline(), workload.MustNewGenerator(p))
	if err != nil {
		t.Fatal(err)
	}
	ivs, err := core.Run(32000, 16)
	if err != nil {
		t.Fatal(err)
	}
	var cycles, instrs uint64
	for _, iv := range ivs {
		cycles += iv.Cycles
		instrs += iv.Instrs
	}
	if instrs != core.Committed() {
		t.Errorf("interval instrs %d != committed %d", instrs, core.Committed())
	}
	if cycles != core.Cycles() {
		t.Errorf("interval cycles %d != total cycles %d", cycles, core.Cycles())
	}
}

func TestConsecutiveRunsContinueStream(t *testing.T) {
	// A second Run on the same core continues execution (warm caches,
	// same workload position) rather than restarting.
	p, _ := workload.ProfileByName("swim")
	core, err := New(space.Baseline(), workload.MustNewGenerator(p))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Run(16000, 4); err != nil {
		t.Fatal(err)
	}
	second, err := core.Run(16000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if core.Committed() != 32000 {
		t.Errorf("committed %d, want 32000 across two runs", core.Committed())
	}
	// The continuation must cover the NEXT slice of the program: a single
	// 32000-instruction run's second half must match it near-exactly (the
	// exact-budget commit stop perturbs only the seam cycle).
	fresh, err := New(space.Baseline(), workload.MustNewGenerator(p))
	if err != nil {
		t.Fatal(err)
	}
	whole, err := fresh.Run(32000, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		a, b := second[i].CPI(), whole[4+i].CPI()
		if a < b*0.98 || a > b*1.02 {
			t.Fatalf("continuation interval %d CPI %v far from single-run %v", i, a, b)
		}
	}
}

func TestActivityCountersConsistent(t *testing.T) {
	ivs := mustRun(t, space.Baseline(), "gcc", 32000, 8)
	var cumIssues, cumCommits uint64
	for i, iv := range ivs {
		// Issue always precedes commit, so cumulatively issues lead.
		cumIssues += iv.Issues
		cumCommits += iv.Commits
		if cumIssues < cumCommits {
			t.Errorf("interval %d: cumulative issues %d < commits %d", i, cumIssues, cumCommits)
		}
		if iv.DL1Misses > iv.DL1Accesses {
			t.Errorf("interval %d: DL1 misses exceed accesses", i)
		}
		if iv.L2Misses > iv.L2Accesses {
			t.Errorf("interval %d: L2 misses exceed accesses", i)
		}
		if iv.Mispredicts > iv.Branches {
			t.Errorf("interval %d: mispredicts exceed branches", i)
		}
		if iv.Commits != iv.Instrs {
			t.Errorf("interval %d: commits %d != instrs %d", i, iv.Commits, iv.Instrs)
		}
		// Fetch can run ahead of commit, bounded by in-flight capacity.
		if iv.Fetches+1000 < iv.Commits {
			t.Errorf("interval %d: fetched %d far below committed %d", i, iv.Fetches, iv.Commits)
		}
	}
}

func TestOccupanciesWithinCapacity(t *testing.T) {
	cfg := space.Baseline()
	cfg.ROBSize, cfg.IQSize, cfg.LSQSize = 96, 32, 16
	ivs := mustRun(t, cfg, "mcf", 32000, 8)
	for i, iv := range ivs {
		if iv.AvgROBOcc > float64(cfg.ROBSize) {
			t.Errorf("interval %d: ROB occupancy %v > %d", i, iv.AvgROBOcc, cfg.ROBSize)
		}
		if iv.AvgIQOcc > float64(cfg.IQSize) {
			t.Errorf("interval %d: IQ occupancy %v > %d", i, iv.AvgIQOcc, cfg.IQSize)
		}
		if iv.AvgLSQOcc > float64(cfg.LSQSize) {
			t.Errorf("interval %d: LSQ occupancy %v > %d", i, iv.AvgLSQOcc, cfg.LSQSize)
		}
	}
}

func TestMemoryBoundCodeOccupiesWindow(t *testing.T) {
	// mcf's serial chase chains should keep the ROB substantially
	// occupied (stalled behind loads), unlike eon.
	occ := func(bench string) float64 {
		ivs := mustRun(t, space.Baseline(), bench, 32000, 4)
		var sum float64
		for _, iv := range ivs {
			sum += iv.AvgROBOcc
		}
		return sum / float64(len(ivs))
	}
	if om, oe := occ("mcf"), occ("eon"); om <= oe {
		t.Errorf("mcf ROB occupancy (%v) should exceed eon (%v)", om, oe)
	}
}

func TestBadConfigRejected(t *testing.T) {
	p, _ := workload.ProfileByName("gcc")
	cfg := space.Baseline()
	cfg.IQSize = -1
	if _, err := New(cfg, workload.MustNewGenerator(p)); err == nil {
		t.Error("negative IQ size should fail")
	}
	cfg = space.Baseline()
	cfg.DL1LineB = 48 // not a power of two
	if _, err := New(cfg, workload.MustNewGenerator(p)); err == nil {
		t.Error("non-power-of-two line size should fail")
	}
}

func TestErrDeadlockIsSentinel(t *testing.T) {
	if !errors.Is(ErrDeadlock, ErrDeadlock) {
		t.Error("ErrDeadlock must match itself under errors.Is")
	}
}

func TestIntervalStringAndRates(t *testing.T) {
	iv := Interval{Instrs: 100, Cycles: 200}
	if iv.CPI() != 2 || iv.IPC() != 0.5 {
		t.Errorf("CPI/IPC = %v/%v, want 2/0.5", iv.CPI(), iv.IPC())
	}
	if (Interval{}).CPI() != 0 || (Interval{}).IPC() != 0 {
		t.Error("zero interval rates should be 0")
	}
	if s := iv.String(); s == "" {
		t.Error("empty String()")
	}
}

func TestFPCodeUsesFPUnits(t *testing.T) {
	ivs := mustRun(t, space.Baseline(), "swim", 32000, 4)
	var fp, intOps uint64
	for _, iv := range ivs {
		fp += iv.FPOps
		intOps += iv.IntOps
	}
	if fp == 0 {
		t.Fatal("swim executed no FP operations")
	}
	ivs = mustRun(t, space.Baseline(), "bzip2", 32000, 4)
	fp = 0
	for _, iv := range ivs {
		fp += iv.FPOps
	}
	if fp != 0 {
		t.Error("bzip2 (integer code) executed FP operations")
	}
}

func TestL2LatencySensitivity(t *testing.T) {
	fast := space.Baseline()
	fast.L2Lat = 8
	slow := space.Baseline()
	slow.L2Lat = 20
	// gcc misses DL1 regularly; slower L2 must cost cycles.
	cf := totalCycles(mustRun(t, fast, "gcc", 32000, 4))
	cs := totalCycles(mustRun(t, slow, "gcc", 32000, 4))
	if cf >= cs {
		t.Errorf("8-cycle L2 (%d) should beat 20-cycle (%d)", cf, cs)
	}
}

func TestNextCompletionWrapsTheWheel(t *testing.T) {
	p, _ := workload.ProfileByName("gcc")
	c, err := New(space.Baseline(), workload.MustNewGenerator(p))
	if err != nil {
		t.Fatal(err)
	}
	c.cycle = 5*wheelSize + 1000
	if _, ok := c.nextCompletion(); ok {
		t.Fatal("an empty wheel reports a pending completion")
	}
	c.pushDone((c.cycle+30)%wheelSize, 0) // wraps past the wheel's end
	if d, ok := c.nextCompletion(); !ok || d != 30 {
		t.Fatalf("nextCompletion = %d, %v; want 30, true", d, ok)
	}
	c.pushDone((c.cycle+2)%wheelSize, 1) // nearer, in the same word
	if d, ok := c.nextCompletion(); !ok || d != 2 {
		t.Fatalf("nextCompletion = %d, %v; want 2, true", d, ok)
	}
	c.pushDone(c.cycle%wheelSize, 2)
	if d, ok := c.nextCompletion(); !ok || d != 0 {
		t.Fatalf("nextCompletion = %d, %v; want 0, true", d, ok)
	}
}
