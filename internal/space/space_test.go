package space

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

func TestBaselineMatchesTable1(t *testing.T) {
	b := Baseline()
	if b.FetchWidth != 8 || b.ROBSize != 96 || b.IQSize != 96 || b.LSQSize != 48 {
		t.Errorf("core sizes wrong: %+v", b)
	}
	if b.L2SizeKB != 2048 || b.L2Lat != 12 || b.IL1SizeKB != 32 || b.DL1SizeKB != 64 || b.DL1Lat != 1 {
		t.Errorf("cache params wrong: %+v", b)
	}
	if b.BPredEntries != 2048 || b.GHistBits != 10 || b.BTBEntries != 2048 || b.RASEntries != 32 {
		t.Errorf("frontend params wrong: %+v", b)
	}
	if b.MemLat != 200 || b.TLBMissLat != 200 {
		t.Errorf("latencies wrong: %+v", b)
	}
	if err := b.Validate(); err != nil {
		t.Errorf("baseline must validate: %v", err)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	c := Baseline()
	c.ROBSize = 0
	if err := c.Validate(); err == nil {
		t.Error("zero ROB should fail validation")
	}
	c = Baseline()
	c.DVM = true
	c.DVMThreshold = 0
	if err := c.Validate(); err == nil {
		t.Error("DVM with zero threshold should fail validation")
	}
}

func TestSweptValuesRoundTrip(t *testing.T) {
	b := Baseline()
	vals := b.SweptValues()
	c := Baseline().WithSweptValues(vals)
	if c != b {
		t.Errorf("round trip changed config: %+v vs %+v", c, b)
	}
	vals[0] = 2
	c = b.WithSweptValues(vals)
	if c.FetchWidth != 2 {
		t.Errorf("WithSweptValues did not apply fetch width")
	}
}

func TestTable2LevelCounts(t *testing.T) {
	train := TrainLevels()
	wantTrain := [NumParams]int{4, 3, 4, 4, 4, 5, 4, 4, 4}
	for p := 0; p < NumParams; p++ {
		if len(train[p]) != wantTrain[p] {
			t.Errorf("train levels for %s = %d, want %d", ParamNames[p], len(train[p]), wantTrain[p])
		}
	}
	test := TestLevels()
	wantTest := [NumParams]int{2, 2, 2, 3, 3, 3, 3, 3, 3}
	for p := 0; p < NumParams; p++ {
		if len(test[p]) != wantTest[p] {
			t.Errorf("test levels for %s = %d, want %d", ParamNames[p], len(test[p]), wantTest[p])
		}
	}
	// 4·3·4·4·4·5·4·4·4 = 245760 training designs.
	if n := train.NumDesigns(); n != 245760 {
		t.Errorf("train NumDesigns = %d, want 245760", n)
	}
}

func TestVectorNormalised(t *testing.T) {
	for _, levels := range []Levels{TrainLevels(), TestLevels()} {
		for p := 0; p < NumParams; p++ {
			for _, v := range levels[p] {
				var vals [NumParams]int
				for q := 0; q < NumParams; q++ {
					vals[q] = levels[q][0]
				}
				vals[p] = v
				vec := Baseline().WithSweptValues(vals).Vector()
				if vec[p] < 0 || vec[p] > 1 {
					t.Errorf("feature %s value %d normalises to %v, want [0,1]", ParamNames[p], v, vec[p])
				}
			}
		}
	}
}

func TestVectorMonotoneInEachParam(t *testing.T) {
	train := TrainLevels()
	for p := 0; p < NumParams; p++ {
		prev := -1.0
		for _, v := range train[p] {
			var vals [NumParams]int
			for q := 0; q < NumParams; q++ {
				vals[q] = train[q][0]
			}
			vals[p] = v
			x := Baseline().WithSweptValues(vals).Vector()[p]
			if x <= prev {
				t.Errorf("feature %s not strictly increasing at level %d", ParamNames[p], v)
			}
			prev = x
		}
	}
}

func TestVectorDVM(t *testing.T) {
	c := Baseline()
	c.DVM = true
	c.DVMThreshold = 0.5
	v := c.VectorDVM()
	if len(v) != NumParams+2 {
		t.Fatalf("VectorDVM length = %d, want %d", len(v), NumParams+2)
	}
	if v[NumParams] != 1 || v[NumParams+1] != 0.5 {
		t.Errorf("DVM features = %v, want [1 0.5]", v[NumParams:])
	}
	c.DVM = false
	if got := c.VectorDVM()[NumParams]; got != 0 {
		t.Errorf("DVM-off feature = %v, want 0", got)
	}
}

func TestLHSCoversAllLevelsOfSmallDims(t *testing.T) {
	rng := mathx.NewRNG(1)
	designs := LHS(40, TrainLevels(), Baseline(), rng)
	if len(designs) != 40 {
		t.Fatalf("LHS returned %d designs, want 40", len(designs))
	}
	// With 40 stratified draws over ≤5 levels, every level of every
	// parameter must appear at least once.
	train := TrainLevels()
	for p := 0; p < NumParams; p++ {
		seen := map[int]bool{}
		for _, c := range designs {
			seen[c.SweptValues()[p]] = true
		}
		if len(seen) != len(train[p]) {
			t.Errorf("parameter %s: LHS covered %d/%d levels", ParamNames[p], len(seen), len(train[p]))
		}
	}
}

func TestLHSBalancedStrata(t *testing.T) {
	// n a multiple of the level count → perfectly balanced marginal counts.
	rng := mathx.NewRNG(2)
	designs := LHS(40, TrainLevels(), Baseline(), rng)
	counts := map[int]int{}
	for _, c := range designs {
		counts[c.FetchWidth]++
	}
	for v, n := range counts {
		if n != 10 {
			t.Errorf("fetch width %d drawn %d times, want 10 (balanced strata)", v, n)
		}
	}
}

func TestDesignsOnLevels(t *testing.T) {
	rng := mathx.NewRNG(3)
	train := TrainLevels()
	for _, c := range LHS(25, train, Baseline(), rng) {
		if !train.Contains(c) {
			t.Errorf("LHS design off-grid: %v", c)
		}
	}
	for _, c := range Random(25, train, Baseline(), rng) {
		if !train.Contains(c) {
			t.Errorf("random design off-grid: %v", c)
		}
	}
}

func TestL2StarDiscrepancyKnownValues(t *testing.T) {
	// Single point at the origin of [0,1]: T² = 1/3 − 2·(1)/2·... compute:
	// d=1: T² = 1/3 − (2/1)·(1/2)·(1−0) + (1/1)·(1−0) = 1/3 − 1 + 1 = 1/3.
	got := L2StarDiscrepancy([][]float64{{0}})
	if math.Abs(got-math.Sqrt(1.0/3.0)) > 1e-12 {
		t.Errorf("discrepancy of {0} = %v, want sqrt(1/3)", got)
	}
	// The midpoint {0.5} is the best single point in 1-D:
	// T² = 1/3 − (1−0.25) + (1−0.5) = 1/12.
	got = L2StarDiscrepancy([][]float64{{0.5}})
	if math.Abs(got-math.Sqrt(1.0/12.0)) > 1e-12 {
		t.Errorf("discrepancy of {0.5} = %v, want sqrt(1/12)", got)
	}
}

func TestUniformGridBeatsClusteredSet(t *testing.T) {
	var uniform, clustered [][]float64
	for i := 0; i < 16; i++ {
		uniform = append(uniform, []float64{(float64(i) + 0.5) / 16})
		clustered = append(clustered, []float64{0.5 + float64(i)*0.001})
	}
	if du, dc := L2StarDiscrepancy(uniform), L2StarDiscrepancy(clustered); du >= dc {
		t.Errorf("uniform grid discrepancy %v should beat clustered %v", du, dc)
	}
}

func TestSampleDesignImprovesOnSingleLHS(t *testing.T) {
	base := Baseline()
	train := TrainLevels()
	// The discrepancy of the multi-candidate pick must be ≤ the expected
	// single-candidate value; verify against a fresh single draw with the
	// same generator class.
	best := SampleDesign(30, train, base, 20, mathx.NewRNG(7))
	single := LHS(30, train, base, mathx.NewRNG(8))
	if DiscrepancyOf(best) > DiscrepancyOf(single)+1e-9 {
		t.Errorf("20-candidate design (%v) worse than single draw (%v)",
			DiscrepancyOf(best), DiscrepancyOf(single))
	}
}

func TestFullFactorialSmallSpace(t *testing.T) {
	small := Levels{
		{2, 4}, {96}, {32}, {16}, {256}, {8}, {8}, {8}, {1, 2},
	}
	designs := small.FullFactorial(Baseline())
	if len(designs) != 4 {
		t.Fatalf("full factorial size = %d, want 4", len(designs))
	}
	seen := map[string]bool{}
	for _, d := range designs {
		seen[d.String()] = true
	}
	if len(seen) != 4 {
		t.Errorf("duplicate designs in full factorial: %v", seen)
	}
}

// recursiveFactorial is the defining enumeration FactorialRange must
// reproduce: nested loops over the parameters, the last one innermost.
func recursiveFactorial(l Levels, base Config) []Config {
	var out []Config
	var idx [NumParams]int
	var rec func(p int)
	rec = func(p int) {
		if p == NumParams {
			out = append(out, l.Design(base, idx))
			return
		}
		for i := range l[p] {
			idx[p] = i
			rec(p + 1)
		}
	}
	rec(0)
	return out
}

func equalDesigns(t *testing.T, what string, got, want []Config) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d designs, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: design %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// FactorialRange must equal the matching slice of the full factorial —
// the invariant a windowed shard relies on to name its designs by
// offset — at every fleet shard boundary, a ragged tail, and [0, N).
func TestFactorialRangeMatchesFullFactorial(t *testing.T) {
	const shard = 2048
	for _, tc := range []struct {
		name   string
		levels Levels
	}{{"train", TrainLevels()}, {"test", TestLevels()}} {
		base := Baseline()
		full := tc.levels.FullFactorial(base)
		n := tc.levels.NumDesigns()
		equalDesigns(t, tc.name+" full factorial vs nested loops", full, recursiveFactorial(tc.levels, base))
		for start := 0; start < n; start += shard {
			end := min(start+shard, n)
			equalDesigns(t, fmt.Sprintf("%s [%d,%d)", tc.name, start, end), tc.levels.FactorialRange(base, start, end), full[start:end])
		}
		ragged := [][2]int{{0, n}, {n - 1, n}, {n, n}, {0, 1}, {shard - 1, shard + 1}, {n - shard/3, n}, {777, 777 + 1001}}
		for _, r := range ragged {
			equalDesigns(t, fmt.Sprintf("%s [%d,%d)", tc.name, r[0], r[1]), tc.levels.FactorialRange(base, r[0], r[1]), full[r[0]:r[1]])
		}
	}
}

func TestFactorialRangeRejectsOutOfBounds(t *testing.T) {
	n := TestLevels().NumDesigns()
	for _, r := range [][2]int{{-1, 3}, {5, 4}, {0, n + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FactorialRange(%d, %d) did not panic", r[0], r[1])
				}
			}()
			TestLevels().FactorialRange(Baseline(), r[0], r[1])
		}()
	}
}

// FactorialRangeInto must equal FactorialRange at offsets that are not
// chunk-aligned, append after dst's existing entries, and reuse dst's
// backing array when it is large enough.
func TestFactorialRangeIntoMatchesFactorialRange(t *testing.T) {
	base := Baseline()
	for _, levels := range []Levels{TrainLevels(), TestLevels()} {
		n := levels.NumDesigns()
		scratch := make([]Config, 0, 600)
		for _, r := range [][2]int{{0, 1}, {1, 513}, {511, 1023}, {777, 1290}, {n - 300, n}, {n - 1, n}, {n, n}} {
			want := levels.FactorialRange(base, r[0], r[1])
			got := levels.FactorialRangeInto(scratch[:0], base, r[0], r[1])
			equalDesigns(t, fmt.Sprintf("into [%d,%d)", r[0], r[1]), got, want)
			if len(got) > 0 && &got[0] != &scratch[:1][0] {
				t.Errorf("[%d,%d): FactorialRangeInto reallocated a large-enough dst", r[0], r[1])
			}
		}
		head := []Config{base}
		got := levels.FactorialRangeInto(head, base, 5, 9)
		equalDesigns(t, "append after existing entries", got, append([]Config{base}, levels.FactorialRange(base, 5, 9)...))
	}
	scratch := make([]Config, 0, 512)
	if allocs := testing.AllocsPerRun(10, func() {
		scratch = TrainLevels().FactorialRangeInto(scratch[:0], base, 1000, 1512)
	}); allocs != 0 {
		t.Errorf("FactorialRangeInto into adequate scratch allocates %v per call, want 0", allocs)
	}
}

// A Window fills window-relative ranges of its slice of the factorial and
// rejects windows that leave the space.
func TestWindowFillAndValidate(t *testing.T) {
	levels := TestLevels()
	n := levels.NumDesigns()
	w := Window{Levels: levels, Base: Baseline(), Offset: 1001, Count: 700}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	all := w.Designs()
	equalDesigns(t, "Designs", all, levels.FactorialRange(Baseline(), 1001, 1701))
	var dst []Config
	for start := 0; start < w.Count; start += 256 {
		end := min(start+256, w.Count)
		dst = w.Fill(dst, start, end)
		equalDesigns(t, fmt.Sprintf("Fill [%d,%d)", start, end), dst, all[start:end])
	}
	for _, bad := range []Window{
		{Levels: levels, Offset: -1, Count: 1},
		{Levels: levels, Offset: 0, Count: 0},
		{Levels: levels, Offset: n - 1, Count: 2},
	} {
		if bad.Validate() == nil {
			t.Errorf("window offset %d count %d accepted in %d designs", bad.Offset, bad.Count, n)
		}
	}
}

// Property: LHS marginal counts per level never differ by more than one
// when n is a multiple of the level count, and designs stay on-grid.
func TestLHSMarginalProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		train := TrainLevels()
		n := 60 // multiple of 3, 4 and 5 → balanced in every dimension
		designs := LHS(n, train, Baseline(), rng)
		for p := 0; p < NumParams; p++ {
			counts := map[int]int{}
			for _, c := range designs {
				counts[c.SweptValues()[p]]++
			}
			want := n / len(train[p])
			for _, got := range counts {
				if got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// The paper's full sampling strategy (multiple LHS matrices, keep the
// lowest-discrepancy one) must beat naive random sampling on average.
func TestSampleDesignBeatsRandomOnAverage(t *testing.T) {
	train := TrainLevels()
	base := Baseline()
	var lhsSum, rndSum float64
	const trials = 8
	for s := uint64(0); s < trials; s++ {
		lhsSum += DiscrepancyOf(SampleDesign(30, train, base, 10, mathx.NewRNG(1000+s)))
		rndSum += DiscrepancyOf(Random(30, train, base, mathx.NewRNG(2000+s)))
	}
	if lhsSum/trials >= rndSum/trials {
		t.Errorf("mean best-of-10 LHS discrepancy %v should beat random %v", lhsSum/trials, rndSum/trials)
	}
}

// TestNormalizeMemoBitTransparent proves the level-value memo is a pure
// cache: for every canonical level — and for off-level fallback values —
// normalizeParam returns exactly what the defining formula computes.
func TestNormalizeMemoBitTransparent(t *testing.T) {
	train, test := TrainLevels(), TestLevels()
	for p := 0; p < NumParams; p++ {
		for _, set := range [][]int{train[p], test[p]} {
			for _, v := range set {
				got := normalizeParam(p, float64(v))
				want := computeNormalizeParam(p, float64(v))
				if got != want {
					t.Errorf("param %d value %d: memo %v != formula %v", p, v, got, want)
				}
			}
		}
		for _, v := range []float64{3.7, 100, 5000} {
			if got, want := normalizeParam(p, v), computeNormalizeParam(p, v); got != want {
				t.Errorf("param %d off-level %v: %v != %v", p, v, got, want)
			}
		}
	}
}
