package sim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/mathx"
	"repro/internal/space"
)

var quickOpts = Options{Instructions: 32768, Samples: 16}

func TestRunProducesAllSeries(t *testing.T) {
	tr, err := Run(space.Baseline(), "gcc", quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	for m := Metric(0); m < NumMetrics; m++ {
		s := tr.Series(m)
		if len(s) != 16 {
			t.Fatalf("%s series length = %d, want 16", m, len(s))
		}
		for i, v := range s {
			if v < 0 {
				t.Errorf("%s[%d] = %v, negative", m, i, v)
			}
		}
	}
	// Domain sanity.
	if cpi := mathx.Mean(tr.CPI); cpi < 0.125 || cpi > 50 {
		t.Errorf("mean CPI = %v, implausible", cpi)
	}
	if p := mathx.Mean(tr.Power); p < 5 || p > 200 {
		t.Errorf("mean power = %vW, implausible", p)
	}
	for i := range tr.AVF {
		if tr.AVF[i] > 1 || tr.IQAVF[i] > 1 {
			t.Errorf("AVF sample %d exceeds 1", i)
		}
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	if _, err := Run(space.Baseline(), "doom", quickOpts); err == nil {
		t.Error("unknown benchmark should fail")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(space.Baseline(), "vpr", quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(space.Baseline(), "vpr", quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.CPI {
		if a.CPI[i] != b.CPI[i] || a.Power[i] != b.Power[i] || a.AVF[i] != b.AVF[i] {
			t.Fatalf("sample %d differs between identical runs", i)
		}
	}
}

func TestDynamicsDifferAcrossConfigs(t *testing.T) {
	// Figure 1's premise: the same program shows different dynamics on
	// different machines.
	small := space.Baseline().WithSweptValues([space.NumParams]int{2, 96, 32, 16, 256, 20, 8, 8, 4})
	a, err := Run(space.Baseline(), "gap", quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(small, "gap", quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if mathx.Mean(b.CPI) <= mathx.Mean(a.CPI) {
		t.Errorf("minimal machine CPI (%v) should exceed baseline (%v)",
			mathx.Mean(b.CPI), mathx.Mean(a.CPI))
	}
	if mathx.Mean(b.Power) >= mathx.Mean(a.Power) {
		t.Errorf("minimal machine power (%v) should be below baseline (%v)",
			mathx.Mean(b.Power), mathx.Mean(a.Power))
	}
}

func TestDVMConfigLowersIQAVF(t *testing.T) {
	cfg := space.Baseline()
	base, err := Run(cfg, "gcc", quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DVM = true
	cfg.DVMThreshold = 0.2
	managed, err := Run(cfg, "gcc", quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if mathx.Mean(managed.IQAVF) >= mathx.Mean(base.IQAVF) {
		t.Errorf("DVM run IQ AVF %v should be below unmanaged %v",
			mathx.Mean(managed.IQAVF), mathx.Mean(base.IQAVF))
	}
}

func TestSweepMatchesSequentialRuns(t *testing.T) {
	jobs := []Job{
		{Config: space.Baseline(), Benchmark: "eon"},
		{Config: space.Baseline(), Benchmark: "mcf"},
		{Config: space.Baseline(), Benchmark: "eon"},
	}
	traces, err := Sweep(jobs, quickOpts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 3 {
		t.Fatalf("got %d traces", len(traces))
	}
	solo, err := Run(space.Baseline(), "mcf", quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range solo.CPI {
		if traces[1].CPI[i] != solo.CPI[i] {
			t.Fatal("parallel sweep result differs from sequential run")
		}
	}
	// Two eon runs in the same sweep must agree exactly.
	for i := range traces[0].CPI {
		if traces[0].CPI[i] != traces[2].CPI[i] {
			t.Fatal("identical jobs in one sweep disagree")
		}
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	jobs := []Job{{Config: space.Baseline(), Benchmark: "nope"}}
	if _, err := Sweep(jobs, quickOpts, 1); err == nil {
		t.Error("sweep should surface job errors")
	}
}

func TestSweepFailsFast(t *testing.T) {
	// A bad job at the head of the queue must abort the sweep: with one
	// worker, the trailing valid jobs are never started, so the sweep
	// returns in far less time than running them all would take.
	jobs := []Job{{Config: space.Baseline(), Benchmark: "nope"}}
	for i := 0; i < 64; i++ {
		jobs = append(jobs, Job{Config: space.Baseline(), Benchmark: "gcc"})
	}
	traces, err := Sweep(jobs, Options{Instructions: 262144, Samples: 128}, 1)
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("sweep error = %v, want the bad job's error", err)
	}
	if traces != nil {
		t.Error("failed sweep should not return partial traces")
	}
}

func TestSweepContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := make([]Job, 32)
	for i := range jobs {
		jobs[i] = Job{Config: space.Baseline(), Benchmark: "gcc"}
	}
	if _, err := SweepContext(ctx, jobs, quickOpts, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep error = %v, want context.Canceled", err)
	}
}

func TestSweepManyWorkersRaceClean(t *testing.T) {
	// More workers than jobs, exercised under -race in CI.
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = Job{Config: space.Baseline(), Benchmark: "mcf"}
	}
	traces, err := SweepContext(context.Background(), jobs, quickOpts, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range traces {
		if tr == nil {
			t.Fatalf("trace %d missing", i)
		}
	}
}

func TestMetricString(t *testing.T) {
	if MetricCPI.String() != "CPI" || MetricPower.String() != "Power" ||
		MetricAVF.String() != "AVF" || MetricIQAVF.String() != "IQ_AVF" {
		t.Error("metric labels wrong")
	}
}

func TestMeanCPIConsistent(t *testing.T) {
	tr, err := Run(space.Baseline(), "swim", quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	// MeanCPI (cycle-weighted) should sit within the per-sample range.
	lo, hi := mathx.Min(tr.CPI), mathx.Max(tr.CPI)
	if m := tr.MeanCPI(); m < lo || m > hi {
		t.Errorf("MeanCPI %v outside sample range [%v, %v]", m, lo, hi)
	}
}

// TestRunAllocatesNothingPerInstruction: a run four times as long (same
// samples) may allocate only a small fixed slack more than the short one,
// for the growth of the reused ready list.
func TestRunAllocatesNothingPerInstruction(t *testing.T) {
	const short, slack = 16384, 8
	allocs := func(instrs uint64) float64 {
		opts := Options{Instructions: instrs, Samples: 16}
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(space.Baseline(), "gcc", opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := allocs(short), allocs(4*short)
	t.Logf("allocations per run: %.0f at %d instructions, %.0f at %d", a, short, b, 4*short)
	if b > a+slack {
		t.Errorf("a 4× longer run allocates %.0f times, %.0f more than the short one's %.0f; want at most %d more", b, b-a, a, slack)
	}
}
