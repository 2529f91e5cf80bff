package wire

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/space"
)

// TestGossipEntryValidate: every digest entry passes the checks that
// once guarded registration before it can reach a membership table, in
// a request or in a response.
func TestGossipEntryValidate(t *testing.T) {
	big := make([]string, MaxInventoryBenchmarks+1)
	for i := range big {
		big[i] = "b"
	}
	cases := []struct {
		name  string
		entry GossipEntry
		ok    bool
	}{
		{"minimal", GossipEntry{Addr: "127.0.0.1:8091", State: GossipAlive}, true},
		{"ipv6", GossipEntry{Addr: "[::1]:8091", State: GossipAlive}, true},
		{"with inventory", GossipEntry{Addr: "w:1", State: GossipAlive, Capacity: 8, Benchmarks: []string{"gcc", "mcf"}}, true},
		{"no addr", GossipEntry{State: GossipAlive}, false},
		{"portless addr", GossipEntry{Addr: "worker-3", State: GossipAlive}, false},
		{"url form", GossipEntry{Addr: "http://worker-3:8091", State: GossipAlive}, false},
		{"empty port", GossipEntry{Addr: "worker-3:", State: GossipAlive}, false},
		{"unknown state", GossipEntry{Addr: "w:1", State: "zombie"}, false},
		{"negative capacity", GossipEntry{Addr: "w:1", State: GossipAlive, Capacity: -1}, false},
		{"oversized inventory", GossipEntry{Addr: "w:1", State: GossipAlive, Benchmarks: big}, false},
		{"empty benchmark name", GossipEntry{Addr: "w:1", State: GossipAlive, Benchmarks: []string{""}}, false},
		{"oversized benchmark name", GossipEntry{Addr: "w:1", State: GossipAlive, Benchmarks: []string{strings.Repeat("x", 129)}}, false},
	}
	for _, tc := range cases {
		err := tc.entry.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid entry accepted", tc.name)
		}
		// A digest carrying the entry gets the same verdict whichever
		// direction it travels.
		good := GossipEntry{Addr: "127.0.0.1:1", State: GossipAlive}
		digest := []GossipEntry{good, tc.entry}
		reqErr := GossipRequest{From: "127.0.0.1:1", Entries: digest}.Validate()
		respErr := GossipResponse{From: "127.0.0.1:1", Entries: digest}.Validate()
		if (err == nil) != (reqErr == nil) || (err == nil) != (respErr == nil) {
			t.Errorf("%s: entry %v, request %v, response %v — verdicts diverged", tc.name, err, reqErr, respErr)
		}
	}
	if err := (GossipRequest{Entries: []GossipEntry{}}).Validate(); err == nil {
		t.Error("request without a sender accepted")
	}
	if err := (GossipResponse{Entries: make([]GossipEntry, MaxGossipEntries+1)}).Validate(); err == nil {
		t.Error("oversized response digest accepted")
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

// TestReplicateRequestValidate: a replica payload is what an adopter
// resumes a job from, so Validate holds it to the checks the job's own
// submission passed, plus the ledger and snapshot invariants resuming
// relies on.
func TestReplicateRequestValidate(t *testing.T) {
	objectives := []ObjectiveSpec{{Metric: "CPI"}, {Metric: "Power"}}
	sweep := func() ReplicateRequest {
		return ReplicateRequest{
			JobID: "job-1", Kind: "sweep", Owner: "127.0.0.1:1", Benchmark: "gcc", Designs: 10,
			Sweep: &SweepRequest{Benchmark: "gcc", Objectives: objectives, SpaceSpec: SpaceSpec{Space: "test", Sample: 10}, TopK: 2},
			Snapshot: []SnapshotCandidate{
				{Index: 0, Candidate: Candidate{Scores: []float64{1, 2}}},
				{Index: 9, Candidate: Candidate{Scores: []float64{2, 1}}},
			},
			Ledger: []ShardRange{{Start: 0, Count: 3}, {Start: 5, Count: 5}},
		}
	}
	pareto := func() ReplicateRequest {
		r := sweep()
		r.Kind, r.Sweep = "pareto", nil
		r.Pareto = &ParetoRequest{Benchmark: "gcc", Objectives: objectives, SpaceSpec: SpaceSpec{Space: "test", Sample: 10}}
		for i := range r.Snapshot {
			r.Snapshot[i].Index = -1
		}
		return r
	}
	for _, tc := range []struct {
		name   string
		edit   func(*ReplicateRequest)
		reject bool
	}{
		{"sweep", func(*ReplicateRequest) {}, false},
		{"pareto", func(r *ReplicateRequest) { *r = pareto() }, false},
		{"done notice needs no spec", func(r *ReplicateRequest) { *r = ReplicateRequest{JobID: "j", Owner: "o:1", Done: true} }, false},
		{"unknown metric in spec", func(r *ReplicateRequest) { r.Sweep.Objectives = []ObjectiveSpec{{Metric: "NOPE"}} }, true},
		{"constraint index out of range", func(r *ReplicateRequest) { r.Sweep.Constraints = []Constraint{{Objective: 2}} }, true},
		{"unknown kind", func(r *ReplicateRequest) { r.Kind = "guided" }, true},
		{"kind without its spec", func(r *ReplicateRequest) { r.Kind = "pareto" }, true},
		{"both specs", func(r *ReplicateRequest) { r.Pareto = pareto().Pareto }, true},
		{"unsorted ledger", func(r *ReplicateRequest) { r.Ledger = []ShardRange{{Start: 5, Count: 5}, {Start: 0, Count: 3}} }, true},
		{"overlapping ledger", func(r *ReplicateRequest) { r.Ledger = []ShardRange{{Start: 0, Count: 5}, {Start: 3, Count: 4}} }, true},
		{"uncoalesced ledger", func(r *ReplicateRequest) { r.Ledger = []ShardRange{{Start: 0, Count: 3}, {Start: 3, Count: 2}} }, true},
		{"ledger past the designs", func(r *ReplicateRequest) { r.Ledger = []ShardRange{{Start: 8, Count: 5}} }, true},
		{"ledger end overflows", func(r *ReplicateRequest) { r.Ledger = []ShardRange{{Start: 1, Count: int(^uint(0) >> 1)}} }, true},
		{"empty ledger range", func(r *ReplicateRequest) { r.Ledger = []ShardRange{{Start: 1, Count: 0}} }, true},
		{"snapshot score width", func(r *ReplicateRequest) { r.Snapshot[1].Candidate.Scores = []float64{1, 2, 3, 4} }, true},
		{"top-K index past the designs", func(r *ReplicateRequest) { r.Snapshot[1].Index = 10 }, true},
		{"top-K index negative", func(r *ReplicateRequest) { r.Snapshot[0].Index = -1 }, true},
		{"pareto snapshot score width", func(r *ReplicateRequest) {
			*r = pareto()
			r.Snapshot[0].Candidate.Scores = nil
		}, true},
	} {
		r := sweep()
		tc.edit(&r)
		err := r.Validate()
		if tc.reject && err == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
		}
		if !tc.reject && err != nil {
			t.Errorf("%s: Validate rejected it: %v", tc.name, err)
		}
	}
}
