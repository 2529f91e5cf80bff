package space

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/mathx"
)

// refL2StarDiscrepancy is the nested-slice kernel the flat one replaced,
// kept verbatim as the exactness oracle: the flat kernel must reproduce
// its bits, not merely approximate them.
func refL2StarDiscrepancy(points [][]float64) float64 {
	n := len(points)
	if n == 0 {
		return 0
	}
	d := len(points[0])
	term1 := math.Pow(3, -float64(d))

	var sum2 float64
	for _, x := range points {
		prod := 1.0
		for _, v := range x {
			prod *= 1 - v*v
		}
		sum2 += prod
	}
	term2 := math.Pow(2, 1-float64(d)) / float64(n) * sum2

	var sum3 float64
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			prod := 1.0
			for j := 0; j < d; j++ {
				m := points[i][j]
				if points[k][j] > m {
					m = points[k][j]
				}
				prod *= 1 - m
			}
			sum3 += prod
		}
	}
	term3 := sum3 / float64(n*n)

	t2 := term1 - term2 + term3
	if t2 < 0 {
		t2 = 0
	}
	return math.Sqrt(t2)
}

func refDiscrepancyOf(designs []Config) float64 {
	pts := make([][]float64, len(designs))
	for i, c := range designs {
		pts[i] = c.Vector()
	}
	return refL2StarDiscrepancy(pts)
}

// refSampleDesign is the candidate loop as it was before the flat kernel.
// It also returns every candidate it drew with its reference
// discrepancy, so one pass can check each candidate as well as the pick.
func refSampleDesign(n int, levels Levels, base Config, candidates int, rng *mathx.RNG) (best []Config, trials [][]Config, refD []float64) {
	if candidates < 1 {
		candidates = 1
	}
	bestD := math.Inf(1)
	for c := 0; c < candidates; c++ {
		trial := LHS(n, levels, base, rng)
		d := refDiscrepancyOf(trial)
		trials = append(trials, trial)
		refD = append(refD, d)
		if d < bestD {
			bestD = d
			best = trial
		}
	}
	return best, trials, refD
}

// TestSampleDesignMatchesNestedReference pins the flat kernel to the
// nested one bit for bit: every candidate's discrepancy has the same
// bits, and SampleDesign picks the same design set, across seeds, both
// Table 2 spaces and sizes from a single design to several hundred. The
// 513-design size runs fewer seeds: the reference alone takes ~18 ms per
// candidate there.
func TestSampleDesignMatchesNestedReference(t *testing.T) {
	base := Baseline()
	spaces := []struct {
		name   string
		levels Levels
	}{{"train", TrainLevels()}, {"test", TestLevels()}}
	sizes := []struct {
		n     int
		seeds uint64
	}{{1, 200}, {2, 200}, {3, 200}, {7, 200}, {40, 200}, {128, 200}, {513, 20}}
	for _, sp := range spaces {
		for _, sz := range sizes {
			n := sz.n
			for seed := uint64(1); seed <= sz.seeds; seed++ {
				want, trials, refD := refSampleDesign(n, sp.levels, base, 2, mathx.NewRNG(seed))
				for c, trial := range trials {
					got, ref := DiscrepancyOf(trial), refD[c]
					if math.Float64bits(got) != math.Float64bits(ref) {
						t.Fatalf("%s n=%d seed=%d candidate %d: discrepancy %v (%#x), reference %v (%#x)",
							sp.name, n, seed, c, got, math.Float64bits(got), ref, math.Float64bits(ref))
					}
				}
				if got := SampleDesign(n, sp.levels, base, 2, mathx.NewRNG(seed)); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s n=%d seed=%d: SampleDesign picked a different design set than the reference", sp.name, n, seed)
				}
			}
		}
	}
}

// TestL2StarDiscrepancyMatchesNestedReferenceOnEdgeSets runs the
// slice-of-rows entry point on hand-built sets the LHS never produces:
// one, two and eleven dimensions, repeated rows, coordinates at exactly
// 0 and 1, and off-level reals.
func TestL2StarDiscrepancyMatchesNestedReferenceOnEdgeSets(t *testing.T) {
	rng := mathx.NewRNG(42)
	random := func(n, d int) [][]float64 {
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = make([]float64, d)
			for j := range pts[i] {
				pts[i][j] = rng.Float64()
			}
		}
		return pts
	}
	ones := make([]float64, 11)
	zeros := make([]float64, 11)
	mixed := make([]float64, 11)
	for j := range ones {
		ones[j] = 1
		if j%2 == 0 {
			mixed[j] = 1
		}
	}
	row := random(1, 11)[0]
	sets := map[string][][]float64{
		"d1 single zero":      {{0}},
		"d1 single one":       {{1}},
		"d1 zero and one":     {{0}, {1}, {0}, {1}},
		"d1 repeated":         {{0.3}, {0.3}, {0.3}},
		"d1 random":           random(37, 1),
		"d2 corners":          {{0, 0}, {0, 1}, {1, 0}, {1, 1}},
		"d2 repeated":         {{0.25, 0.75}, {0.25, 0.75}, {0.75, 0.25}},
		"d2 random":           random(50, 2),
		"d11 zeros and ones":  {zeros, ones, mixed, ones, zeros},
		"d11 repeated random": {row, row, row, random(1, 11)[0], row},
		"d11 random":          random(64, 11),
	}
	for name, pts := range sets {
		got, want := L2StarDiscrepancy(pts), refL2StarDiscrepancy(pts)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: discrepancy %v (%#x), reference %v (%#x)", name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if got := L2StarDiscrepancy(nil); got != 0 {
		t.Errorf("empty set discrepancy = %v, want 0", got)
	}
}

func TestSampleDesignContextCancels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got, err := SampleDesignContext(ctx, 40, TrainLevels(), Baseline(), 4, mathx.NewRNG(1)); !errors.Is(err, context.Canceled) || got != nil {
		t.Fatalf("cancelled sample = %d designs, %v; want none, context.Canceled", len(got), err)
	}
	// The pair sum checks its done channel once per row, so a cancel that
	// lands mid-candidate stops it too.
	done := make(chan struct{})
	close(done)
	flat := encodeFlat(nil, LHS(40, TrainLevels(), Baseline(), mathx.NewRNG(1)))
	if _, ok := l2Star(flat, 40, NumParams, done); ok {
		t.Fatal("pair sum ran to completion past a closed done channel")
	}
	// A live context changes nothing.
	got, err := SampleDesignContext(context.Background(), 40, TrainLevels(), Baseline(), 4, mathx.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if want := SampleDesign(40, TrainLevels(), Baseline(), 4, mathx.NewRNG(1)); !reflect.DeepEqual(got, want) {
		t.Fatal("SampleDesignContext with a live context differs from SampleDesign")
	}
}
