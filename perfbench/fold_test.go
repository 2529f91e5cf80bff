package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

// at is a span timestamp t milliseconds after an arbitrary epoch.
func at(t float64) time.Time { return time.Unix(1_700_000_000, 0).Add(time.Duration(t * 1e6)) }

func node(name string, start, end float64, kids ...*obs.TraceNode) *obs.TraceNode {
	return &obs.TraceNode{
		Span:     obs.Span{Name: name, StartUnix: at(start).UnixNano(), DurationMS: end - start},
		Children: kids,
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// TestFoldSingleDaemon folds a canned single-daemon trace under its op:
// every layer's self time, the residual, and that they add up to the
// client latency.
func TestFoldSingleDaemon(t *testing.T) {
	rec := newRecorder()
	root := rec.reserve()
	rec.add(7, root, "dsedclient.submit", at(0), at(5))
	rec.add(7, root, "dsedclient.update", at(5), at(60))
	rec.add(7, root, "dsedclient.update", at(60), at(100))
	rec.addID(root, 7, 0, "op", at(0), at(100))
	rec.add(7, root, "dsedclient.release", at(100), at(104)) // after the final: outside latency
	rec.attach(7, &obs.JobTrace{JobID: "pareto-1", Tree: []*obs.TraceNode{
		node("job:pareto", 3, 95,
			node("phase:train", 3, 4),
			node("phase:encode", 4, 10),
			node("phase:predict", 10, 80),
			node("phase:merge", 80, 81)),
	}})
	got := rec.fold()
	want := map[string]float64{
		"trace.client_ms":   3,  // submit 0–5 less the job from 3
		"trace.job_ms":      14, // 92 less 78 in phases
		"trace.train_ms":    1,
		"trace.encode_ms":   6,
		"trace.predict_ms":  70,
		"trace.merge_ms":    1,
		"trace.residual_ms": 5, // 95–100: the final update's delivery
	}
	sum := 0.0
	for k, v := range want {
		if !near(got[k], v) {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
		sum += got[k]
	}
	if !near(sum, 100) {
		t.Errorf("layers sum to %v ms, want the 100 ms latency", sum)
	}
	if got["trace.dispatch_ms"] != 0 {
		t.Errorf("dispatch on a single daemon = %v, want 0", got["trace.dispatch_ms"])
	}
}

// TestFoldFleet checks dispatch self time (dispatch less its worker
// job), busy-time summing of concurrent shards, and per-op averaging.
func TestFoldFleet(t *testing.T) {
	rec := newRecorder()
	for op := 0; op < 2; op++ {
		root := rec.reserve()
		rec.add(op, root, "dsedclient.submit", at(0), at(2))
		rec.addID(root, op, 0, "op", at(0), at(50))
		rec.attach(op, &obs.JobTrace{Tree: []*obs.TraceNode{
			node("job:pareto", 1, 48,
				node("dispatch", 2, 40, node("job:pareto", 5, 35, node("phase:predict", 6, 34))),
				node("dispatch", 3, 45, node("job:pareto", 10, 40, node("phase:predict", 10, 40)))),
		}})
	}
	got := rec.fold()
	want := map[string]float64{
		"trace.client_ms":   1,
		"trace.dispatch_ms": 8 + 12,
		"trace.predict_ms":  28 + 30,
		"trace.job_ms":      (47 - 43) + 2 + 0,
		"trace.residual_ms": 2,
	}
	for k, v := range want {
		if !near(got[k], v) {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

func TestCoverage(t *testing.T) {
	ivs := []interval{{10, 20}, {15, 30}, {40, 50}, {0, 5}}
	if got := coverage(ivs, 0, 100); got != 35 {
		t.Errorf("coverage = %d, want 35", got)
	}
	if got := coverage(ivs, 12, 45); got != 23 {
		t.Errorf("clipped coverage = %d, want 23", got)
	}
	if got := coverage(nil, 0, 10); got != 0 {
		t.Errorf("empty coverage = %d, want 0", got)
	}
}
