package wire

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/space"
)

func TestRegisterRequestValidate(t *testing.T) {
	big := make([]string, MaxInventoryBenchmarks+1)
	for i := range big {
		big[i] = "b"
	}
	cases := []struct {
		name string
		req  RegisterRequest
		ok   bool
	}{
		{"minimal", RegisterRequest{Addr: "127.0.0.1:8091"}, true},
		{"url form", RegisterRequest{Addr: "http://worker-3:8091"}, true},
		{"with inventory", RegisterRequest{Addr: "w:1", Capacity: 8, Benchmarks: []string{"gcc", "mcf"}}, true},
		{"no addr", RegisterRequest{}, false},
		{"portless addr", RegisterRequest{Addr: "worker-3"}, false},
		{"negative capacity", RegisterRequest{Addr: "w:1", Capacity: -1}, false},
		{"oversized inventory", RegisterRequest{Addr: "w:1", Benchmarks: big}, false},
		{"empty benchmark name", RegisterRequest{Addr: "w:1", Benchmarks: []string{""}}, false},
		{"oversized benchmark name", RegisterRequest{Addr: "w:1", Benchmarks: []string{strings.Repeat("x", 129)}}, false},
	}
	for _, tc := range cases {
		err := tc.req.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid request accepted", tc.name)
		}
		// Heartbeats share the register shape and verdicts exactly.
		herr := HeartbeatRequest(tc.req).Validate()
		if (err == nil) != (herr == nil) {
			t.Errorf("%s: heartbeat validation diverged from register (%v vs %v)", tc.name, herr, err)
		}
	}
}

func TestSpaceSpecValidation(t *testing.T) {
	explicit := []ConfigSpec{{}}
	cases := []struct {
		name string
		sp   SpaceSpec
		ok   bool
	}{
		{"default space", SpaceSpec{}, true},
		{"named space", SpaceSpec{Space: "test"}, true},
		{"explicit designs", SpaceSpec{Designs: explicit}, true},
		{"sample", SpaceSpec{Space: "train", Sample: 500}, true},
		{"largest sample", SpaceSpec{Space: "train", Sample: MaxSample}, true},
		{"window", SpaceSpec{Space: "test", Offset: 100, Count: 50}, true},
		{"window at the start", SpaceSpec{Space: "test", Count: 1}, true},
		{"window to the end", SpaceSpec{Space: "test", Offset: 5831, Count: 1}, true},
		{"whole space as a window", SpaceSpec{Space: "train", Count: 245760}, true},
		{"window on the default space", SpaceSpec{Offset: 10, Count: 10}, true},

		{"negative sample", SpaceSpec{Space: "train", Sample: -1}, false},
		{"oversized sample", SpaceSpec{Space: "train", Sample: MaxSample + 1}, false},
		{"unknown space", SpaceSpec{Space: "warp"}, false},
		{"window on an unknown space", SpaceSpec{Space: "warp", Count: 1}, false},
		{"window with designs", SpaceSpec{Designs: explicit, Count: 1}, false},
		{"window with sample", SpaceSpec{Space: "train", Sample: 10, Offset: 1, Count: 5}, false},
		{"negative offset", SpaceSpec{Space: "test", Offset: -1, Count: 5}, false},
		{"negative count", SpaceSpec{Space: "test", Offset: 3, Count: -2}, false},
		{"offset without a count", SpaceSpec{Space: "test", Offset: 3}, false},
		{"window past the end", SpaceSpec{Space: "test", Offset: 5831, Count: 2}, false},
		{"window longer than the space", SpaceSpec{Space: "test", Count: 5833}, false},
		{"overflowing window", SpaceSpec{Space: "test", Offset: 1 << 62, Count: 1 << 62}, false},
	}
	for _, tc := range cases {
		_, err := tc.sp.ResolveEarly()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid spec accepted", tc.name)
		}
		// Validate is the cheap first pass: it never rejects what
		// ResolveEarly accepts.
		req := ParetoRequest{Benchmark: "gcc", Objectives: []ObjectiveSpec{{Metric: "CPI"}}, SpaceSpec: tc.sp}
		if verr := req.Validate(); verr != nil && tc.ok {
			t.Errorf("%s: ParetoRequest.Validate rejected a valid spec: %v", tc.name, verr)
		}
	}
}

func TestSpaceSpecWindowResolves(t *testing.T) {
	full := space.TestLevels().FullFactorial(space.Baseline())
	for _, w := range [][2]int{{0, 1}, {100, 50}, {5000, 832}, {0, 5832}} {
		sp := SpaceSpec{Space: "test", Offset: w[0], Count: w[1]}
		early, err := sp.ResolveEarly()
		if err != nil {
			t.Fatalf("window %v: %v", w, err)
		}
		got, err := sp.ResolveLate(context.Background(), early)
		if err != nil {
			t.Fatalf("window %v: %v", w, err)
		}
		if len(got) != w[1] {
			t.Fatalf("window %v resolved %d designs, want %d", w, len(got), w[1])
		}
		for i, c := range got {
			if c != full[w[0]+i] {
				t.Fatalf("window %v design %d = %v, want %v", w, i, c, full[w[0]+i])
			}
		}
	}
}

func TestSpaceSpecWindowComposes(t *testing.T) {
	cases := []struct {
		name string
		sp   SpaceSpec
		want SpaceSpec
		ok   bool
	}{
		{"named space", SpaceSpec{Space: "train"}, SpaceSpec{Space: "train", Offset: 2048, Count: 100}, true},
		{"window of a window", SpaceSpec{Space: "test", Offset: 1000, Count: 3000}, SpaceSpec{Space: "test", Offset: 3048, Count: 100}, true},
		{"unnamed space", SpaceSpec{}, SpaceSpec{}, false},
		{"sampled space", SpaceSpec{Space: "train", Sample: 300}, SpaceSpec{}, false},
		{"explicit designs", SpaceSpec{Designs: []ConfigSpec{{}}}, SpaceSpec{}, false},
	}
	for _, tc := range cases {
		got, ok := tc.sp.Window(2048, 100)
		if ok != tc.ok || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Window = %+v, %v; want %+v, %v", tc.name, got, ok, tc.want, tc.ok)
		}
	}
}

// FactorialWindow names exactly the designs ResolveLate materialises for
// an unsampled named space, whole or windowed, and declines everything
// that has no positional name.
func TestSpaceSpecFactorialWindow(t *testing.T) {
	for _, sp := range []SpaceSpec{
		{Space: "test"},
		{Space: "test", Offset: 777, Count: 1001},
		{Space: "train", Offset: 245760 - 3, Count: 3},
	} {
		early, err := sp.ResolveEarly()
		if err != nil {
			t.Fatalf("%+v: %v", sp, err)
		}
		w, ok := sp.FactorialWindow()
		if !ok {
			t.Fatalf("%+v: no factorial window", sp)
		}
		want, err := sp.ResolveLate(context.Background(), early)
		if err != nil {
			t.Fatalf("%+v: %v", sp, err)
		}
		if got := w.Designs(); !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: window names %d designs that differ from ResolveLate's %d", sp, len(got), len(want))
		}
	}
	if w, _ := (SpaceSpec{}).FactorialWindow(); w.Count != space.TrainLevels().NumDesigns() {
		t.Errorf("default space's window counts %d designs, want the train factorial", w.Count)
	}
	for _, sp := range []SpaceSpec{
		{Space: "train", Sample: 300},
		{Designs: []ConfigSpec{{}}},
		{Space: "nope"},
	} {
		if _, ok := sp.FactorialWindow(); ok {
			t.Errorf("%+v reported as a factorial window", sp)
		}
	}
}
