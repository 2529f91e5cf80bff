package main

import "testing"

func TestTailSamplesAndPercentileRule(t *testing.T) {
	cases := []struct {
		n          int
		p          float64
		tail       int
		reportable bool
	}{
		{n: 40, p: 0.75, tail: 10, reportable: true},
		{n: 39, p: 0.75, tail: 9, reportable: false},
		{n: 20, p: 0.50, tail: 10, reportable: true},
		{n: 19, p: 0.50, tail: 9, reportable: false},
		{n: 1000, p: 0.99, tail: 10, reportable: true},
		{n: 999, p: 0.99, tail: 9, reportable: false},
		{n: 0, p: 0.75, tail: 0, reportable: false},
	}
	for _, c := range cases {
		if got := tailSamples(c.n, c.p); got != c.tail {
			t.Errorf("tailSamples(%d, %v) = %d, want %d", c.n, c.p, got, c.tail)
		}
		if got := highestPercentile(c.n, c.p) == c.p; got != c.reportable {
			t.Errorf("p%v reportable over %d samples = %v, want %v", c.p*100, c.n, got, c.reportable)
		}
	}
	if got := highestPercentile(40, 0.5, 0.75, 0.9, 0.99); got != 0.75 {
		t.Errorf("highest reportable percentile of 40 samples = %v, want 0.75", got)
	}
	if got := highestPercentile(15, 0.5, 0.75); got != 0 {
		t.Errorf("highest reportable percentile of 15 samples = %v, want none", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	samples := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10} // 1..10, shuffled
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.75, 8}, {0.9, 9}, {1, 10}, {0.01, 1}} {
		if got := percentile(samples, c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if samples[0] != 9 {
		t.Error("percentile reordered its input")
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4), the spread rule results are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.data)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
