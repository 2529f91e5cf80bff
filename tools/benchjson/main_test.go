package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: some cpu
BenchmarkExploreSweep-8       	       1	 123456789 ns/op	  204800 B/op	    1024 allocs/op
BenchmarkParetoFrontier-8     	     120	    987654 ns/op	    55.5 designs/s
PASS
ok  	repro	1.234s
pkg: repro/internal/sim
BenchmarkRun-8                	       2	  55555555 ns/op
PASS
ok  	repro/internal/sim	0.456s
`

func TestParse(t *testing.T) {
	s, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3: %+v", len(s.Benchmarks), s.Benchmarks)
	}
	b := s.Benchmarks[0]
	if b.Name != "BenchmarkExploreSweep-8" || b.Package != "repro" {
		t.Errorf("first benchmark = %+v", b)
	}
	if b.Iterations != 1 || b.NsPerOp != 123456789 || b.BytesPerOp != 204800 || b.AllocsOp != 1024 {
		t.Errorf("first benchmark metrics = %+v", b)
	}
	p := s.Benchmarks[1]
	if p.Extra["designs/s"] != 55.5 {
		t.Errorf("custom metric not captured: %+v", p)
	}
	r := s.Benchmarks[2]
	if r.Package != "repro/internal/sim" || r.NsPerOp != 55555555 {
		t.Errorf("package tracking broken: %+v", r)
	}
	if s.GoVersion == "" || s.GOOS == "" || s.GOARCH == "" {
		t.Errorf("environment fields empty: %+v", s)
	}
}

func TestParseEmpty(t *testing.T) {
	s, err := parse(strings.NewReader("PASS\nok \trepro\t0.1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Benchmarks == nil || len(s.Benchmarks) != 0 {
		t.Errorf("empty input should yield an empty (non-nil) slice: %+v", s.Benchmarks)
	}
}

func TestParseBenchLineRejects(t *testing.T) {
	if _, ok := parseBenchLine("BenchmarkBroken-8"); ok {
		t.Error("accepted a line with no iteration count")
	}
	if _, ok := parseBenchLine("BenchmarkBroken-8 notanumber ns/op"); ok {
		t.Error("accepted a line with a bad iteration count")
	}
}

func mkSummary(benches ...Benchmark) *Summary {
	return &Summary{GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64", Benchmarks: benches}
}

func runCompare(t *testing.T, oldSum, newSum *Summary, tol float64, filter string) (bool, string, error) {
	t.Helper()
	re, err := compileBenchFilter(filter)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	regressed, err := compareSummaries(oldSum, newSum, tol, re, &out)
	return regressed, out.String(), err
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	oldSum := mkSummary(Benchmark{Name: "BenchmarkExploreSweep/workers=1-8", Package: "repro", NsPerOp: 1000, Extra: map[string]float64{"designs/s": 500000}})
	newSum := mkSummary(Benchmark{Name: "BenchmarkExploreSweep/workers=1-8", Package: "repro", NsPerOp: 1200, Extra: map[string]float64{"designs/s": 420000}})
	regressed, out, err := runCompare(t, oldSum, newSum, 25, "")
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Errorf("a 20%% slowdown inside a 25%% tolerance must pass:\n%s", out)
	}
	if !strings.Contains(out, "ok:") {
		t.Errorf("report should list the metrics it checked:\n%s", out)
	}
}

func TestCompareNsPerOpRegression(t *testing.T) {
	oldSum := mkSummary(Benchmark{Name: "BenchmarkRBFPredict-8", Package: "repro", NsPerOp: 1000})
	newSum := mkSummary(Benchmark{Name: "BenchmarkRBFPredict-8", Package: "repro", NsPerOp: 1300})
	regressed, out, err := runCompare(t, oldSum, newSum, 25, "")
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Errorf("30%% more ns/op exceeds a 25%% tolerance:\n%s", out)
	}
	if !strings.Contains(out, "REGRESSION") {
		t.Errorf("report should flag the regression:\n%s", out)
	}
}

func TestCompareRateRegression(t *testing.T) {
	oldSum := mkSummary(Benchmark{Name: "BenchmarkExploreSweep/workers=1-8", Package: "repro", NsPerOp: 1000, Extra: map[string]float64{"designs/s": 500000}})
	newSum := mkSummary(Benchmark{Name: "BenchmarkExploreSweep/workers=1-8", Package: "repro", NsPerOp: 1000, Extra: map[string]float64{"designs/s": 300000}})
	regressed, out, err := runCompare(t, oldSum, newSum, 25, "")
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Errorf("designs/s dropping 40%% exceeds a 25%% tolerance:\n%s", out)
	}
	if !strings.Contains(out, "designs/s") {
		t.Errorf("the regressed unit should be named:\n%s", out)
	}
}

func TestCompareMissingBenchmarkIsRegression(t *testing.T) {
	oldSum := mkSummary(Benchmark{Name: "BenchmarkPredictBatch-8", Package: "repro", NsPerOp: 1000})
	newSum := mkSummary(Benchmark{Name: "BenchmarkSomethingElse-8", Package: "repro", NsPerOp: 1})
	regressed, out, err := runCompare(t, oldSum, newSum, 25, "")
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Errorf("deleting a gated benchmark must not pass the gate:\n%s", out)
	}
	if !strings.Contains(out, "missing") {
		t.Errorf("report should say the benchmark vanished:\n%s", out)
	}
}

func TestCompareFilterSelectsBenchmarks(t *testing.T) {
	oldSum := mkSummary(
		Benchmark{Name: "BenchmarkExploreSweep/workers=1-8", Package: "repro", NsPerOp: 1000},
		Benchmark{Name: "BenchmarkUnrelated-8", Package: "repro", NsPerOp: 1000},
	)
	newSum := mkSummary(
		Benchmark{Name: "BenchmarkExploreSweep/workers=1-8", Package: "repro", NsPerOp: 1000},
		Benchmark{Name: "BenchmarkUnrelated-8", Package: "repro", NsPerOp: 9000},
	)
	regressed, out, err := runCompare(t, oldSum, newSum, 25, "ExploreSweep")
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Errorf("an unfiltered benchmark's regression must not trip a filtered gate:\n%s", out)
	}
	if strings.Contains(out, "Unrelated") {
		t.Errorf("filtered-out benchmarks should not appear in the report:\n%s", out)
	}
}

func TestCompareEmptyOldIsError(t *testing.T) {
	oldSum := mkSummary()
	newSum := mkSummary(Benchmark{Name: "BenchmarkExploreSweep-8", Package: "repro", NsPerOp: 1})
	if _, _, err := runCompare(t, oldSum, newSum, 25, ""); err == nil {
		t.Error("an empty gate set should be an error, not a silent pass")
	}
}

func TestCompareStripsProcsSuffix(t *testing.T) {
	// A baseline from an 8-way box must key against a 4-way runner's run.
	oldSum := mkSummary(Benchmark{Name: "BenchmarkRBFPredict-8", Package: "repro", NsPerOp: 1000})
	newSum := mkSummary(Benchmark{Name: "BenchmarkRBFPredict-4", Package: "repro", NsPerOp: 1000})
	regressed, out, err := runCompare(t, oldSum, newSum, 25, "")
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Errorf("GOMAXPROCS suffix must not break keying:\n%s", out)
	}
	if got := stripProcs("BenchmarkExploreSweep/workers=1-8"); got != "BenchmarkExploreSweep/workers=1" {
		t.Errorf("stripProcs sub-benchmark = %q", got)
	}
	if got := stripProcs("BenchmarkExploreSweep/workers=1"); got != "BenchmarkExploreSweep/workers=1" {
		t.Errorf("stripProcs should leave unsuffixed names alone, got %q", got)
	}
	if got := stripProcs("BenchmarkFoo-"); got != "BenchmarkFoo-" {
		t.Errorf("stripProcs trailing dash = %q", got)
	}
}

func TestCompareBestOfRepeats(t *testing.T) {
	// -count=3 emits the same benchmark three times; the gate judges the
	// best repetition so one noisy run cannot fail CI.
	oldSum := mkSummary(Benchmark{Name: "BenchmarkExploreSweep-8", Package: "repro", NsPerOp: 1000, Extra: map[string]float64{"designs/s": 500000}})
	newSum := mkSummary(
		Benchmark{Name: "BenchmarkExploreSweep-8", Package: "repro", NsPerOp: 2000, Extra: map[string]float64{"designs/s": 250000}},
		Benchmark{Name: "BenchmarkExploreSweep-8", Package: "repro", NsPerOp: 1100, Extra: map[string]float64{"designs/s": 460000}},
	)
	regressed, out, err := runCompare(t, oldSum, newSum, 25, "")
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Errorf("best-of-repeats should absorb one noisy repetition:\n%s", out)
	}
}

func TestParseRecordsBenchmem(t *testing.T) {
	b, ok := parseBenchLine("BenchmarkRBFPredict-8  1000  52000 ns/op  0 B/op  0 allocs/op")
	if !ok || !b.Mem || b.AllocsOp != 0 {
		t.Errorf("a -benchmem line with 0 allocs/op = %+v, want Mem set", b)
	}
	b, ok = parseBenchLine("BenchmarkRBFPredict-8  1000  52000 ns/op")
	if !ok || b.Mem {
		t.Errorf("a line without -benchmem columns = %+v, want Mem unset", b)
	}
}

func TestCompareZeroAllocsGatedExactly(t *testing.T) {
	zero := Benchmark{Name: "BenchmarkRBFPredictLevels-8", Package: "repro", NsPerOp: 1000, Mem: true}
	one := zero
	one.AllocsOp = 1
	for _, tc := range []struct {
		name      string
		old, new  []Benchmark
		regressed bool
	}{
		{"zero stays zero", []Benchmark{zero}, []Benchmark{zero}, false},
		{"zero to one", []Benchmark{zero}, []Benchmark{one}, true},
		// Best of repeats: a true allocation per op shows in every one.
		{"one noisy repetition", []Benchmark{zero}, []Benchmark{one, zero}, false},
		{"allocating base is not gated", []Benchmark{one}, []Benchmark{{Name: one.Name, Package: "repro", NsPerOp: 1000, AllocsOp: 40, Mem: true}}, false},
		{"base without -benchmem", []Benchmark{{Name: zero.Name, Package: "repro", NsPerOp: 1000}}, []Benchmark{one}, false},
	} {
		regressed, out, err := runCompare(t, mkSummary(tc.old...), mkSummary(tc.new...), 25, "")
		if err != nil {
			t.Fatal(err)
		}
		if regressed != tc.regressed {
			t.Errorf("%s: regressed = %v, want %v:\n%s", tc.name, regressed, tc.regressed, out)
		}
		if tc.regressed && !strings.Contains(out, "allocs/op") {
			t.Errorf("%s: the report should name allocs/op:\n%s", tc.name, out)
		}
	}
}

func TestCompareWarnsOnGoVersionSkew(t *testing.T) {
	b := Benchmark{Name: "BenchmarkRBFPredict-8", Package: "repro", NsPerOp: 1000}
	newSum := mkSummary(b)
	newSum.GoVersion = "go1.23"
	regressed, out, err := runCompare(t, mkSummary(b), newSum, 25, "")
	if err != nil {
		t.Fatal(err)
	}
	if regressed || !strings.Contains(out, "WARNING: go_version differs") {
		t.Errorf("toolchain skew should warn, not fail (regressed %v):\n%s", regressed, out)
	}
	if _, out, _ := runCompare(t, mkSummary(b), mkSummary(b), 25, ""); strings.Contains(out, "WARNING") {
		t.Errorf("equal toolchains should not warn:\n%s", out)
	}
}
