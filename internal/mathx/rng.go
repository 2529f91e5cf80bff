// Package mathx provides the small numeric foundation used across the
// repository: a deterministic random number generator, dense linear algebra
// sized for ridge regression, and descriptive statistics.
//
// Everything here is implemented on the standard library only; the rest of
// the repository must not roll its own numerics.
package mathx

import "math"

// RNG is a deterministic pseudo-random number generator based on
// splitmix64. It is used instead of math/rand so that workload generation
// and sampling are reproducible across Go versions and platforms.
//
// The zero value is a valid generator seeded with 0.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Seed resets the generator state.
func (r *RNG) Seed(seed uint64) { r.state = seed }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("mathx: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a normally distributed value with the given mean and
// standard deviation, using the Box-Muller transform.
func (r *RNG) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// GeometricDist is the geometric distribution of the number of failures
// before the first success, with success probability p. It holds
// math.Log(1-p), so a caller drawing many values from one p pays one
// math.Log per draw.
type GeometricDist struct {
	p, logQ float64
}

// NewGeometricDist returns the distribution for success probability p in
// (0, 1]. It panics if p <= 0.
func NewGeometricDist(p float64) GeometricDist {
	if p <= 0 {
		panic("mathx: Geometric with non-positive p")
	}
	return GeometricDist{p: p, logQ: math.Log(1 - p)}
}

// Draw returns one geometrically distributed non-negative integer from r.
func (d GeometricDist) Draw(r *RNG) int {
	if d.p >= 1 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return int(math.Log(u) / d.logQ)
}

// Pick returns an index in [0, len(weights)) chosen with probability
// proportional to weights[i]. Weights must be non-negative with a positive
// sum.
func (r *RNG) Pick(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		panic("mathx: Pick with non-positive weight sum")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
