package space

import (
	"context"
	"math"

	"repro/internal/mathx"
)

// LHS draws n designs from the levels with a discrete variant of Latin
// Hypercube Sampling: in each dimension the n draws are spread across n
// equal strata (independently permuted per dimension), and each stratum
// midpoint is snapped to the nearest admissible level. This gives the
// paper's "better coverage compared to a naive random sampling scheme".
func LHS(n int, levels Levels, base Config, rng *mathx.RNG) []Config {
	if n <= 0 {
		return nil
	}
	// strata[p][i] holds the level index for design i in parameter p.
	var strata [NumParams][]int
	for p := 0; p < NumParams; p++ {
		perm := rng.Perm(n)
		strata[p] = make([]int, n)
		k := len(levels[p])
		for i := 0; i < n; i++ {
			// Jittered stratum midpoint in [0,1), then map to a level.
			u := (float64(perm[i]) + rng.Float64()) / float64(n)
			li := int(u * float64(k))
			if li >= k {
				li = k - 1
			}
			strata[p][i] = li
		}
	}
	out := make([]Config, n)
	for i := 0; i < n; i++ {
		var idx [NumParams]int
		for p := 0; p < NumParams; p++ {
			idx[p] = strata[p][i]
		}
		out[i] = levels.Design(base, idx)
	}
	return out
}

// Random draws n designs uniformly at random from the levels — the naive
// baseline the paper compares LHS against.
func Random(n int, levels Levels, base Config, rng *mathx.RNG) []Config {
	out := make([]Config, n)
	for i := 0; i < n; i++ {
		var idx [NumParams]int
		for p := 0; p < NumParams; p++ {
			idx[p] = rng.Intn(len(levels[p]))
		}
		out[i] = levels.Design(base, idx)
	}
	return out
}

// L2StarDiscrepancy computes the L2-star discrepancy of a point set in
// [0,1]^d using Warnock's closed form:
//
//	T² = 3⁻ᵈ − (2^(1−d)/n)·Σᵢ Πⱼ(1−xᵢⱼ²) + (1/n²)·ΣᵢΣₖ Πⱼ(1−max(xᵢⱼ,xₖⱼ))
//
// Lower values indicate a more uniformly space-filling design. Every row
// must have the first row's length. The rows are flattened into the one
// row-major kernel DiscrepancyOf and SampleDesign use.
func L2StarDiscrepancy(points [][]float64) float64 {
	if len(points) == 0 {
		return 0
	}
	d := len(points[0])
	flat := make([]float64, 0, len(points)*d)
	for _, x := range points {
		flat = append(flat, x[:d]...)
	}
	t, _ := l2Star(flat, len(points), d, nil)
	return t
}

// l2Star is Warnock's closed form over n points of d coordinates stored
// row-major in x. It overwrites x with 1−x for the pair sum, because
// 1−max(a, b) = min(1−a, 1−b) exactly: fl(1−·) is monotone, so a ≥ b
// gives fl(1−a) ≤ fl(1−b). The builtin min is branchless, where a max
// would branch on the data and mispredict. The product order over j and
// the summation order over (i, k) are those of the closed form as
// written, so the result is bit-identical to the nested-slice evaluation
// (sampling_ref_test.go keeps it as the oracle). A close of done
// (checked once per row of the pair sum; nil never fires) abandons the
// sum and reports false.
func l2Star(x []float64, n, d int, done <-chan struct{}) (float64, bool) {
	if n == 0 {
		return 0, true
	}
	term1 := math.Pow(3, -float64(d))

	var sum2 float64
	for i := 0; i < n; i++ {
		prod := 1.0
		for _, v := range x[i*d : i*d+d] {
			prod *= 1 - v*v
		}
		sum2 += prod
	}
	term2 := math.Pow(2, 1-float64(d)) / float64(n) * sum2

	for i, v := range x {
		x[i] = 1 - v
	}
	var sum3 float64
	for i := 0; i < n; i++ {
		select {
		case <-done:
			return 0, false
		default:
		}
		a := x[i*d : i*d+d]
		k := 0
		// Four rows at a time: their products are independent chains the
		// CPU overlaps, and they join sum3 in row order.
		for ; k+4 <= n; k += 4 {
			b0 := x[k*d : k*d+d][:len(a)]
			b1 := x[(k+1)*d : (k+1)*d+d][:len(a)]
			b2 := x[(k+2)*d : (k+2)*d+d][:len(a)]
			b3 := x[(k+3)*d : (k+3)*d+d][:len(a)]
			p0, p1, p2, p3 := 1.0, 1.0, 1.0, 1.0
			for j, v := range a {
				p0 *= min(v, b0[j])
				p1 *= min(v, b1[j])
				p2 *= min(v, b2[j])
				p3 *= min(v, b3[j])
			}
			sum3 += p0
			sum3 += p1
			sum3 += p2
			sum3 += p3
		}
		for ; k < n; k++ {
			b := x[k*d : k*d+d][:len(a)]
			prod := 1.0
			for j, v := range a {
				prod *= min(v, b[j])
			}
			sum3 += prod
		}
	}
	term3 := sum3 / float64(n*n)

	t2 := term1 - term2 + term3
	if t2 < 0 {
		t2 = 0 // guard against round-off for tiny sets
	}
	return math.Sqrt(t2), true
}

// encodeFlat appends the designs' normalised feature vectors to dst,
// row-major, NumParams coordinates per design.
func encodeFlat(dst []float64, designs []Config) []float64 {
	for i := range designs {
		dst = designs[i].VectorInto(dst)
	}
	return dst
}

// DiscrepancyOf evaluates the L2-star discrepancy of a design set using the
// normalised feature encoding.
func DiscrepancyOf(designs []Config) float64 {
	flat := encodeFlat(make([]float64, 0, len(designs)*NumParams), designs)
	t, _ := l2Star(flat, len(designs), NumParams, nil)
	return t
}

// SampleDesign generates candidates LHS matrices and returns the one with
// the lowest L2-star discrepancy — the paper's sampling strategy for
// building a representative training space.
func SampleDesign(n int, levels Levels, base Config, candidates int, rng *mathx.RNG) []Config {
	//dsedlint:ignore ctxflow frozen pre-context signature; cancellable callers use SampleDesignContext
	best, _ := SampleDesignContext(context.Background(), n, levels, base, candidates, rng)
	return best
}

// SampleDesignContext is SampleDesign that stops when ctx is done. It
// checks ctx once per candidate and once per row of each candidate's
// pair sum, so even a 20,000-design sample stops within milliseconds,
// and returns ctx's error.
func SampleDesignContext(ctx context.Context, n int, levels Levels, base Config, candidates int, rng *mathx.RNG) ([]Config, error) {
	if candidates < 1 {
		candidates = 1
	}
	var best []Config
	bestD := math.Inf(1)
	var flat []float64
	for c := 0; c < candidates; c++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		trial := LHS(n, levels, base, rng)
		flat = encodeFlat(flat[:0], trial)
		d, ok := l2Star(flat, len(trial), NumParams, ctx.Done())
		if !ok {
			return nil, ctx.Err()
		}
		if d < bestD {
			bestD = d
			best = trial
		}
	}
	return best, nil
}
