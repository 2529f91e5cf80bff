package mathx

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Errorf("Variance = %v, want 4", v)
	}
	if s := StdDev(xs); s != 2 {
		t.Errorf("StdDev = %v, want 2", s)
	}
}

func TestMeanEmpty(t *testing.T) {
	if m := Mean(nil); m != 0 {
		t.Errorf("Mean(nil) = %v, want 0", m)
	}
	if v := Variance([]float64{3}); v != 0 {
		t.Errorf("Variance single = %v, want 0", v)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 {
		t.Errorf("Min = %v, want -1", Min(xs))
	}
	if Max(xs) != 7 {
		t.Errorf("Max = %v, want 7", Max(xs))
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {100, 4}, {50, 2.5}, {25, 1.75}, {75, 3.25},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Percentile(xs, 50)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("Percentile mutated input: %v", xs)
	}
}

func TestMSE(t *testing.T) {
	a := []float64{1, 2, 3}
	p := []float64{1, 3, 5}
	if got := MSE(a, p); !almostEqual(got, 5.0/3.0, 1e-12) {
		t.Errorf("MSE = %v, want 5/3", got)
	}
	if got := MSE(a, a); got != 0 {
		t.Errorf("MSE self = %v, want 0", got)
	}
}

func TestRelativeMSEPercent(t *testing.T) {
	a := []float64{2, 2, 2, 2}
	p := []float64{2.2, 1.8, 2.2, 1.8}
	// mean sq err = 0.04, mean² = 4 → 1%.
	if got := RelativeMSEPercent(a, p); !almostEqual(got, 1, 1e-9) {
		t.Errorf("RelativeMSEPercent = %v, want 1", got)
	}
	if got := RelativeMSEPercent([]float64{0, 0}, []float64{1, 1}); got != 0 {
		t.Errorf("zero-mean series should return 0, got %v", got)
	}
}

func TestPearsonCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	if got := PearsonCorrelation(x, y); !almostEqual(got, 1, 1e-12) {
		t.Errorf("perfect correlation = %v, want 1", got)
	}
	neg := []float64{8, 6, 4, 2}
	if got := PearsonCorrelation(x, neg); !almostEqual(got, -1, 1e-12) {
		t.Errorf("perfect anticorrelation = %v, want -1", got)
	}
	if got := PearsonCorrelation(x, []float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("zero-variance series = %v, want 0", got)
	}
}

func TestRanksWithTies(t *testing.T) {
	got := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Ranks[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSpearmanMonotone(t *testing.T) {
	x := []float64{1, 5, 2, 9, 3}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = v*v + 1 // monotone transform
	}
	if got := SpearmanRank(x, y); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Spearman of monotone transform = %v, want 1", got)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp boundaries wrong")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce same stream")
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(3)
	n := 50000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Norm(10, 2)
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	sd := math.Sqrt(sq/float64(n) - mean*mean)
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("Norm mean = %v, want ≈10", mean)
	}
	if math.Abs(sd-2) > 0.1 {
		t.Errorf("Norm sd = %v, want ≈2", sd)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(9)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGPickRespectsWeights(t *testing.T) {
	r := NewRNG(17)
	counts := [3]int{}
	for i := 0; i < 30000; i++ {
		counts[r.Pick([]float64{1, 2, 7})]++
	}
	if counts[2] < counts[1] || counts[1] < counts[0] {
		t.Errorf("weighted pick ordering wrong: %v", counts)
	}
	frac := float64(counts[2]) / 30000
	if math.Abs(frac-0.7) > 0.03 {
		t.Errorf("weight-7 fraction = %v, want ≈0.7", frac)
	}
}

func TestRNGGeometricMean(t *testing.T) {
	r := NewRNG(23)
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		sum += float64(NewGeometricDist(0.25).Draw(r))
	}
	mean := sum / float64(n)
	// Mean of geometric (number of failures) = (1-p)/p = 3.
	if math.Abs(mean-3) > 0.15 {
		t.Errorf("Geometric mean = %v, want ≈3", mean)
	}
}

// Property: percentile of any non-empty slice lies within [min, max] and is
// monotone in p.
func TestPercentileProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		n := 1 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()*100 - 50
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(xs, p)
			if v < Min(xs)-1e-12 || v > Max(xs)+1e-12 || v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: ranks are a permutation-consistent relabeling: sorted ranks of
// distinct values are 1..n.
func TestRanksProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		n := 1 + rng.Intn(30)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(1000000)) // effectively distinct
		}
		r := Ranks(xs)
		sorted := make([]float64, n)
		copy(sorted, r)
		sort.Float64s(sorted)
		for i := range sorted {
			if sorted[i] != float64(i+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestGeometricDistMatchesInversion: a draw is the textbook inversion
// ⌊log u / log(1−p)⌋ with both logs taken per draw, bit for bit, and a
// certain success (p = 1) consumes no random numbers.
func TestGeometricDistMatchesInversion(t *testing.T) {
	for _, p := range []float64{0.05, 0.25, 1.0 / 3, 0.5, 0.9, 1} {
		a, b := NewRNG(7), NewRNG(7)
		d := NewGeometricDist(p)
		for i := 0; i < 2000; i++ {
			want := 0
			if p < 1 {
				u := a.Float64()
				for u == 0 {
					u = a.Float64()
				}
				want = int(math.Log(u) / math.Log(1-p))
			}
			if got := d.Draw(b); got != want {
				t.Fatalf("p=%v draw %d: %d, want %d", p, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("p=%v: the generators drifted apart", p)
		}
	}
}
