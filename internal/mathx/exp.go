package mathx

import "math"

// ExpFast is a deterministic table-driven exponential for non-positive
// arguments — the Gaussian-kernel workhorse of the RBF inference hot path.
// It combines a 1024-entry table of exact 2^(j/1024) values with a
// quadratic residual polynomial, giving relative error below 1e-10 with a
// dependency chain a fraction of math.Exp's, so independent evaluations
// issued over a block of squared distances pipeline several times faster
// than math.Exp calls.
//
// Callers must treat ExpFast as the definition of the kernel, not an
// approximation of one: RBF training and inference evaluate one kernel
// function built on it, so the fitted weights and Predict differ only by
// summation-order rounding (≤1e-12 relative), and the ~1e-10
// kernel-shape deviation from a true Gaussian is orders of magnitude
// below model error. Every arithmetic step is a separate
// statement, so no platform may fuse multiply-add pairs (Go permits
// fusing only within single expressions) and results are bit-identical
// across architectures.
//
// ExpFast(0) is exactly 1. Arguments below the underflow cutoff return 0;
// positive arguments (never produced by squared distances) and NaN fall
// back to math.Exp.
func ExpFast(x float64) float64 {
	if !(x <= 0) {
		return math.Exp(x) // positive or NaN: off the kernel's domain
	}
	if x < -708 {
		return 0 // exp(-708) ≈ 3e-308: underflows to subnormal/zero anyway
	}
	// Decompose x·log2(e) = k + j/1024 + f with k integral (≤ 0),
	// j ∈ [0,1024) integral and f ∈ [0, 1/1024), so that
	// exp(x) = 2^k · 2^(j/1024) · e^(f·ln2).
	t := x * log2E
	kf := math.Floor(t)
	ft := t - kf // fractional part in [0,1)
	jt := ft * 1024
	jf := math.Floor(jt)
	// When t sits just below an integer, t−floor(t) rounds up to exactly
	// 1.0 and jf lands on 1024; fold the overflow into the residual (y then
	// reaches ln2/1024 exactly, still within the polynomial's range).
	if jf >= exp2TabLen {
		jf = exp2TabLen - 1
	}
	y := jt - jf
	y = y * ln2By1024 // natural-log residual in [0, ln2/1024]
	// e^y ≈ 1 + y + y²/2; truncation error y³/6 < 6e-11 relative.
	p := y * y
	p = p * 0.5
	p = p + y
	p = p + 1
	// 2^k via direct exponent-field construction; k ∈ [-1022, 0] here.
	e2k := math.Float64frombits(uint64(int64(kf)+1023) << 52)
	r := exp2Table[int(jf)] * p
	return r * e2k
}

const (
	log2E      = 1.4426950408889634074  // 1/ln(2)
	ln2By1024  = 6.7690154351557159e-04 // ln(2)/1024
	exp2TabLen = 1024
)

// exp2Table[j] = 2^(j/1024), correctly rounded (computed once via
// math.Exp2 so every entry is the platform-independent nearest double).
var exp2Table = func() [exp2TabLen]float64 {
	var t [exp2TabLen]float64
	for j := range t {
		t[j] = math.Exp2(float64(j) / exp2TabLen)
	}
	return t
}()
