package space

import (
	"fmt"
	"slices"
)

// Levels lists the admissible values of each swept parameter for one of the
// two sampling regimes of Table 2.
type Levels [NumParams][]int

// TrainLevels returns the Table 2 "Train" ranges.
func TrainLevels() Levels {
	return Levels{
		{2, 4, 8, 16},           // Fetch_width
		{96, 128, 160},          // ROB_size
		{32, 64, 96, 128},       // IQ_size
		{16, 24, 32, 64},        // LSQ_size
		{256, 1024, 2048, 4096}, // L2_size (KB)
		{8, 12, 14, 16, 20},     // L2_lat
		{8, 16, 32, 64},         // il1_size (KB)
		{8, 16, 32, 64},         // dl1_size (KB)
		{1, 2, 3, 4},            // dl1_lat
	}
}

// TestLevels returns the Table 2 "Test" ranges. They are deliberately a
// different (partially overlapping) subset so that test designs are not
// memorised training designs.
func TestLevels() Levels {
	return Levels{
		{2, 8},            // Fetch_width
		{128, 160},        // ROB_size
		{32, 64},          // IQ_size
		{16, 24, 32},      // LSQ_size
		{256, 1024, 4096}, // L2_size (KB)
		{8, 12, 14},       // L2_lat
		{8, 16, 32},       // il1_size (KB)
		{16, 32, 64},      // dl1_size (KB)
		{1, 2, 3},         // dl1_lat
	}
}

// NumDesigns returns the size of the full-factorial space over the levels.
func (l Levels) NumDesigns() int {
	n := 1
	for _, vs := range l {
		n *= len(vs)
	}
	return n
}

// Contains reports whether the swept parameters of c all lie on levels of l.
func (l Levels) Contains(c Config) bool {
	vals := c.SweptValues()
	for p := 0; p < NumParams; p++ {
		found := false
		for _, v := range l[p] {
			if v == vals[p] {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Design converts per-parameter level indices into a Config based on base.
func (l Levels) Design(base Config, levelIdx [NumParams]int) Config {
	var vals [NumParams]int
	for p := 0; p < NumParams; p++ {
		vals[p] = l[p][levelIdx[p]]
	}
	return base.WithSweptValues(vals)
}

// FullFactorial enumerates every design in the space (use with care: the
// Table 2 training space holds 245,760 designs).
func (l Levels) FullFactorial(base Config) []Config {
	return l.FactorialRange(base, 0, l.NumDesigns())
}

// FactorialRange returns FullFactorial(base)[start:end] without building
// the rest of the space, so a shard names its designs by position alone.
// The enumeration order is a mixed-radix odometer with the first
// parameter most significant; design i's level indices are the digits of
// i. It panics unless 0 ≤ start ≤ end ≤ NumDesigns(), like a slice
// expression would.
func (l Levels) FactorialRange(base Config, start, end int) []Config {
	return l.FactorialRangeInto(make([]Config, 0, max(end-start, 0)), base, start, end)
}

// FactorialRangeInto appends FactorialRange(base, start, end) to dst and
// returns the extended slice. With cap(dst)-len(dst) ≥ end-start it
// allocates nothing, which is how sweep workers enumerate a window of the
// space chunk by chunk into reused scratch. It panics like FactorialRange.
func (l Levels) FactorialRangeInto(dst []Config, base Config, start, end int) []Config {
	if start < 0 || end < start || end > l.NumDesigns() {
		panic(fmt.Sprintf("space: factorial range [%d, %d) does not fit %d designs", start, end, l.NumDesigns()))
	}
	if start == end {
		return dst
	}
	// Seek: peel start's digits off, least significant parameter first.
	var idx, vals [NumParams]int
	for p, rest := NumParams-1, start; p >= 0; p-- {
		idx[p] = rest % len(l[p])
		rest /= len(l[p])
		vals[p] = l[p][idx[p]]
	}
	for i := start; i < end; i++ {
		dst = append(dst, base.WithSweptValues(vals))
		// Tick: carry into the more significant digits.
		for p := NumParams - 1; p >= 0; p-- {
			idx[p]++
			if idx[p] < len(l[p]) {
				vals[p] = l[p][idx[p]]
				break
			}
			idx[p] = 0
			vals[p] = l[p][0]
		}
	}
	return dst
}

// Window names designs [Offset, Offset+Count) of Levels' full factorial
// over Base without materialising them: a sweep enumerates it chunk by
// chunk through Fill, so memory stays proportional to a chunk, not to the
// space.
type Window struct {
	Levels Levels
	Base   Config
	Offset int
	Count  int
}

// Validate checks that the window is non-empty and lies inside its space.
func (w Window) Validate() error {
	if n := w.Levels.NumDesigns(); w.Offset < 0 || w.Count < 1 || w.Count > n-w.Offset {
		return fmt.Errorf("space: window [%d, %d+%d) does not fit %d designs", w.Offset, w.Offset, w.Count, n)
	}
	return nil
}

// Fill writes the window's designs [start, end), counted from the
// window's own start, into dst[:0] and returns the filled slice; it
// allocates only when dst is too small.
func (w Window) Fill(dst []Config, start, end int) []Config {
	return w.Levels.FactorialRangeInto(slices.Grow(dst[:0], end-start), w.Base, w.Offset+start, w.Offset+end)
}

// Designs materialises the window.
func (w Window) Designs() []Config {
	return w.Levels.FactorialRange(w.Base, w.Offset, w.Offset+w.Count)
}
