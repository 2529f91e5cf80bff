package space

import "fmt"

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
// It is a thin wrapper over the digit enumerator (Seek and Tick).
func (l Levels) FactorialRangeInto(dst []Config, base Config, start, end int) []Config {
	if start < 0 || end < start || end > l.NumDesigns() {
		panic(fmt.Sprintf("space: factorial range [%d, %d) does not fit %d designs", start, end, l.NumDesigns()))
	}
	if start == end {
		return dst
	}
	idx := l.Seek(start)
	for i := start; i < end; i++ {
		dst = append(dst, l.Design(base, idx))
		l.Tick(&idx)
	}
	return dst
}

// Seek returns the level indices of design i of the full factorial: the
// digits of i in the mixed radix of the per-parameter level counts, the
// first parameter most significant. i must lie in [0, NumDesigns()).
func (l *Levels) Seek(i int) [NumParams]int {
	var idx [NumParams]int
	for p := NumParams - 1; p >= 0; p-- {
		idx[p] = i % len(l[p])
		i /= len(l[p])
	}
	return idx
}

// Tick advances idx to the next design of the full factorial — the
// odometer step every enumeration of the space takes — and returns the
// most significant parameter whose level changed: digits p through
// NumParams-1 changed, the rest did not. Ticking past the last design
// wraps to design 0.
func (l *Levels) Tick(idx *[NumParams]int) int {
	return l.TickAt(idx, NumParams-1)
}

// TickAt advances digit p of idx by one, carrying into the more
// significant digits, and returns the most significant parameter whose
// level changed, like Tick. With digits p+1 onwards at level 0 it steps
// over the whole subtree of designs that share idx's first p+1 digits:
// the Levels' product from p+1 on, in one step.
func (l *Levels) TickAt(idx *[NumParams]int, p int) int {
	for ; p > 0; p-- {
		if idx[p]++; idx[p] < len(l[p]) {
			return p
		}
		idx[p] = 0
	}
	if idx[0]++; idx[0] == len(l[0]) {
		idx[0] = 0
	}
	return 0
}

// Window names designs [Offset, Offset+Count) of Levels' full factorial
// over Base without materialising them: a sweep walks it by level indices
// (Seek, Tick) and decodes a design (Design) only where it needs one, so
// memory stays proportional to what the sweep keeps, not to the space.
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

// Design decodes the window's design i, counted from the window's own
// start: the Config FactorialRange would place there. A sweep scoring in
// level-index space calls it only for the designs a collector keeps.
func (w *Window) Design(i int) Config {
	return w.Levels.Design(w.Base, w.Levels.Seek(w.Offset+i))
}

// Designs materialises the window.
func (w Window) Designs() []Config {
	return w.Levels.FactorialRange(w.Base, w.Offset, w.Offset+w.Count)
}
