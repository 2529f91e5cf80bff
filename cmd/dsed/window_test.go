package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/explore"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/space"
	"repro/internal/wire"
)

// The fleet oracle over windows: shards of a named, unsampled space
// travel as [offset, count) windows on it, and the merged answer stays
// byte-identical to the single-process one. A peer runs the shards it
// places on itself in process, so a job's shards are the remote peer's
// recorded HTTP windows plus the owner's own dispatches, read off the
// job's trace.

// shardRecorder records the shard bodies (local-scope submissions) a
// peer or worker receives before serving them.
type shardRecorder struct {
	next http.Handler

	mu     sync.Mutex
	bodies [][]byte
}

func (rec *shardRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if shardSubmission(r) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		if bytes.Contains(body, []byte(`"scope":"local"`)) {
			rec.mu.Lock()
			rec.bodies = append(rec.bodies, body)
			rec.mu.Unlock()
		}
	}
	rec.next.ServeHTTP(w, r)
}

// shards returns every recorded shard body across recorders.
func shards(recs ...*shardRecorder) [][]byte {
	var out [][]byte
	for _, rec := range recs {
		rec.mu.Lock()
		out = append(out, rec.bodies...)
		rec.mu.Unlock()
	}
	return out
}

// windowsOf decodes shard bodies, requiring every one to be a small
// window (no pinned designs) on space, and returns the windows sorted by
// offset.
func windowsOf(t *testing.T, bodies [][]byte, spaceName string) [][2]int {
	t.Helper()
	var out [][2]int
	for _, body := range bodies {
		if bytes.Contains(body, []byte(`"designs"`)) {
			t.Fatalf("a shard of a named space pinned its designs: %.200s", body)
		}
		if len(body) >= 1024 {
			t.Fatalf("windowed shard body is %d bytes, want under 1 KB", len(body))
		}
		var sp wire.SpaceSpec
		if err := json.Unmarshal(body, &sp); err != nil {
			t.Fatal(err)
		}
		if sp.Space != spaceName || sp.Count < 1 {
			t.Fatalf("shard selects space %q window [%d,+%d), want a window on %q", sp.Space, sp.Offset, sp.Count, spaceName)
		}
		out = append(out, [2]int{sp.Offset, sp.Count})
	}
	return out
}

// inProcessWindows returns the windows of the shards owner evaluated
// on itself, from the job's dispatch spans (worker = the owner, status
// ok), made absolute by the job's own offset.
func inProcessWindows(t *testing.T, spans []obs.Span, owner string, offset int) [][2]int {
	t.Helper()
	var out [][2]int
	for _, sp := range spans {
		if sp.Name != "dispatch" || sp.Attrs["worker"] != "http://"+owner || sp.Attrs["status"] != "ok" {
			continue
		}
		start, err := strconv.Atoi(sp.Attrs["shard_start"])
		if err != nil {
			t.Fatal(err)
		}
		n, err := strconv.Atoi(sp.Attrs["designs"])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, [2]int{offset + start, n})
	}
	return out
}

// requireCover checks that the windows tile want exactly: every design
// of every range once, none outside.
func requireCover(t *testing.T, windows [][2]int, want [][2]int) {
	t.Helper()
	windows = append([][2]int(nil), windows...)
	sort.Slice(windows, func(i, j int) bool { return windows[i][0] < windows[j][0] })
	var got [][2]int
	for _, w := range windows {
		if n := len(got); n > 0 && got[n-1][0]+got[n-1][1] == w[0] {
			got[n-1][1] += w[1]
			continue
		}
		got = append(got, w)
	}
	if len(got) != len(want) {
		t.Fatalf("shard windows cover %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shard windows cover %v, want %v", got, want)
		}
	}
}

// fleetSpec shapes an in-process test fleet.
type fleetSpec struct {
	// peers is the fleet size (default 2).
	peers     int
	shardSize int
	// joined is how many peers (the first ones) converge up front; the
	// rest boot outside the fleet until the test joins them (default
	// all).
	joined int
	// wrap, when set, wraps peer i's handler behind its shard recorder —
	// a killable, gated or counting peer.
	wrap func(i int, next http.Handler) http.Handler
	// straggle slows the entry peer's in-process shards per design, so a
	// job stays in flight while the test acts on it.
	straggle time.Duration
	// store serves every peer (default the shared test registry); tel
	// names peer i's telemetry (default a plane named by its address).
	store *registry.Store
	tel   func(i int) *telemetry
}

// peerFleet boots a fleet of peers over one registry, each with its own
// job table behind a shard recorder, and converges the first
// spec.joined into one scheduling fleet by calling the gossip round's
// steps directly (no background loop, so the view holds still). The
// entry is peers[0].
func peerFleet(t *testing.T, spec fleetSpec) (entry *httptest.Server, recs []*shardRecorder, peers []*peerServer) {
	t.Helper()
	if spec.peers == 0 {
		spec.peers = 2
	}
	if spec.joined == 0 {
		spec.joined = spec.peers
	}
	store := spec.store
	if store == nil {
		store = testServer(t).store
	}
	for i := 0; i < spec.peers; i++ {
		rec := &shardRecorder{}
		ts := httptest.NewServer(rec)
		t.Cleanup(ts.Close)
		self := strings.TrimPrefix(ts.URL, "http://")
		tel := newTelemetry(self)
		if spec.tel != nil {
			tel = spec.tel(i)
		}
		srv := NewServer(context.Background(), store, 0, nil, tel)
		if i == 0 {
			srv.straggle = spec.straggle
			entry = ts
		}
		ps := newPeerServer(srv, self, nil, peerOptions{heartbeat: time.Second, shardSize: spec.shardSize, replicate: 1}, nil)
		rec.next = ps.Handler()
		if spec.wrap != nil {
			rec.next = spec.wrap(i, rec.next)
		}
		ps.table.SetLocalInfo(srv.workers, store.Trained())
		peers = append(peers, ps)
		recs = append(recs, rec)
	}
	joinFleet(t, peers[:spec.joined]...)
	return entry, recs, peers
}

// joinFleet converges peers into one gossip view, the first one
// exchanging digests with every other, as gossip rounds do.
func joinFleet(t *testing.T, peers ...*peerServer) {
	t.Helper()
	for _, ps := range peers[1:] {
		ps.exchange(context.Background(), peers[0].self)
	}
	for _, ps := range peers[1:] {
		peers[0].exchange(context.Background(), ps.self)
	}
}

// twoPeerFleet is the common two-peer fleet.
func twoPeerFleet(t *testing.T, shardSize int) (entry *httptest.Server, recs []*shardRecorder, peers []*peerServer) {
	t.Helper()
	entry, recs, peers = peerFleet(t, fleetSpec{shardSize: shardSize})
	for _, ps := range peers {
		if n := len(ps.fleet()); n != 2 {
			t.Fatalf("peer %s schedules over %d members, want 2", ps.self, n)
		}
	}
	return entry, recs, peers
}

var frontierObjectives = []wire.ObjectiveSpec{{Metric: "CPI"}, {Metric: "Power"}}

// singleFrontier is the single-process reference: explore's frontier
// over designs under the shared test models.
func singleFrontier(t *testing.T, designs []space.Config) []wire.Candidate {
	t.Helper()
	q := cluster.Query{Benchmark: "gcc", Objectives: frontierObjectives}
	models, objectives, err := q.Resolve(context.Background(), nil, testServer(t).sweepModel)
	if err != nil {
		t.Fatal(err)
	}
	res, err := explore.SweepContext(context.Background(), designs, models, objectives, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return wire.ToCandidates(res.Frontier)
}

func requireSameCandidates(t *testing.T, what string, got, want []wire.Candidate) {
	t.Helper()
	g, w := sortedCandidateJSON(t, got), sortedCandidateJSON(t, want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d candidates, want %d", what, len(g), len(w))
	}
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("%s: candidate %d differs:\n  got  %s\n  want %s", what, i, g[i], w[i])
		}
	}
}

// A full-factorial job on a named space ships every remote shard as a
// window — no pinned designs, each body under 1 KB — and the remote
// windows with the owner's in-process shards tile the space with a
// ragged last shard; the answer is the single-process frontier.
func TestFleetWindowedShardsMatchSingleProcess(t *testing.T) {
	const shardSize = 500 // 5,832 test designs: 11 full shards + 332
	entry, recs, peers := twoPeerFleet(t, shardSize)
	resp, _, err := testClient(entry.URL).Run(context.Background(), wire.ParetoRequest{
		Benchmark:  "gcc",
		Objectives: frontierObjectives,
		SpaceSpec:  wire.SpaceSpec{Space: "test"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	designs := space.TestLevels().FullFactorial(space.Baseline())
	if resp.Evaluated != len(designs) || resp.Shards != 12 {
		t.Fatalf("fleet evaluated %d designs in %d shards, want %d in 12", resp.Evaluated, resp.Shards, len(designs))
	}
	windows := append(windowsOf(t, shards(recs...), "test"), inProcessWindows(t, resp.Spans, peers[0].self, 0)...)
	if len(windows) != resp.Shards {
		t.Fatalf("found %d shard windows for %d shards", len(windows), resp.Shards)
	}
	if !slices.Contains(windows, [2]int{5500, 332}) {
		t.Errorf("shard windows %v lack the ragged last shard [5500,+332)", windows)
	}
	requireCover(t, windows, [][2]int{{0, len(designs)}})
	requireSameCandidates(t, "windowed fleet frontier", resp.Candidates, singleFrontier(t, designs))
}

// A sampled space has no positional name: its remote shards still pin
// designs.
func TestFleetSampledShardsStayPinned(t *testing.T) {
	entry, recs, peers := twoPeerFleet(t, 64)
	req := wire.ParetoRequest{
		Benchmark:  "gcc",
		Objectives: frontierObjectives,
		SpaceSpec:  wire.SpaceSpec{Space: "test", Sample: 300, Seed: 5},
	}
	resp, _, err := testClient(entry.URL).Run(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	bodies := shards(recs...)
	own := inProcessWindows(t, resp.Spans, peers[0].self, 0)
	if len(bodies)+len(own) != resp.Shards || resp.Shards != (300+63)/64 {
		t.Fatalf("recorded %d remote shard bodies and %d in-process shards for %d shards, want %d",
			len(bodies), len(own), resp.Shards, (300+63)/64)
	}
	for _, body := range bodies {
		if !bytes.Contains(body, []byte(`"designs"`)) || bytes.Contains(body, []byte(`"offset"`)) || bytes.Contains(body, []byte(`"count"`)) {
			t.Fatalf("sampled-space shard is not pinned: %.200s", body)
		}
	}
	early, err := req.ResolveEarly()
	if err != nil {
		t.Fatal(err)
	}
	designs, err := req.ResolveLate(context.Background(), early)
	if err != nil {
		t.Fatal(err)
	}
	requireSameCandidates(t, "sampled fleet frontier", resp.Candidates, singleFrontier(t, designs))
}

// A client's own window composes with the shard offsets: the fleet's
// top-K over [1000, 4000) must equal a single daemon's, rank for rank.
func TestFleetClientWindowMatchesSingleDaemon(t *testing.T) {
	entry, recs, peers := twoPeerFleet(t, 700)
	single := httptest.NewServer(testServer(t).Handler())
	t.Cleanup(single.Close)
	req := wire.SweepRequest{
		Benchmark:   "gcc",
		Objectives:  []wire.ObjectiveSpec{{Metric: "CPI"}, {Metric: "Power", Kind: "worst"}},
		SpaceSpec:   wire.SpaceSpec{Space: "test", Offset: 1000, Count: 3000},
		TopK:        7,
		Constraints: []wire.Constraint{{Objective: 1, Max: 1000}},
	}
	ctx := context.Background()
	want, _, err := testClient(single.URL).Run(ctx, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := testClient(entry.URL).Run(ctx, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Evaluated != 3000 || got.Evaluated != want.Evaluated || got.Feasible != want.Feasible {
		t.Fatalf("fleet evaluated/feasible %d/%d, single daemon %d/%d", got.Evaluated, got.Feasible, want.Evaluated, want.Feasible)
	}
	windows := append(windowsOf(t, shards(recs...), "test"), inProcessWindows(t, got.Spans, peers[0].self, 1000)...)
	requireCover(t, windows, [][2]int{{1000, 3000}})
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("fleet kept %d candidates, single daemon %d", len(got.Candidates), len(want.Candidates))
	}
	for i := range want.Candidates {
		g, _ := json.Marshal(got.Candidates[i])
		w, _ := json.Marshal(want.Candidates[i])
		if string(g) != string(w) {
			t.Fatalf("rank %d differs:\n  fleet  %s\n  single %s", i, g, w)
		}
	}
}

// A job resumed over HTTP from a mid-space ledger dispatches only the
// ledger's complement, as absolute windows on the space (the job's own
// offset plus the segment position), and still answers the frontier of
// the whole job.
func TestResumedWindowedJobSendsAbsoluteOffsets(t *testing.T) {
	rec := &shardRecorder{next: testServer(t).Handler()}
	worker := httptest.NewServer(rec)
	t.Cleanup(worker.Close)
	coord, err := cluster.New([]cluster.Transport{cluster.NewHTTP(worker.URL, nil)}, cluster.Options{ShardSize: 400})
	if err != nil {
		t.Fatal(err)
	}
	req := wire.ParetoRequest{
		Benchmark:  "gcc",
		Objectives: frontierObjectives,
		SpaceSpec:  wire.SpaceSpec{Space: "test", Offset: 300, Count: 5000},
	}
	early, err := req.ResolveEarly()
	if err != nil {
		t.Fatal(err)
	}
	designs, err := req.ResolveLate(context.Background(), early)
	if err != nil {
		t.Fatal(err)
	}

	// The owner merged [1000, 2500) and [4000, 4500) of the job's list
	// before it died; the seed is their merged frontier.
	ledger := []wire.ShardRange{{Start: 1000, Count: 1500}, {Start: 4000, Count: 500}}
	merged := append(append([]space.Config(nil), designs[1000:2500]...), designs[4000:4500]...)
	seed := cluster.Seed{Evaluated: len(merged), Shards: 2}
	for _, c := range singleFrontier(t, merged) {
		seed.Candidates = append(seed.Candidates, cluster.IndexedCandidate{Index: -1, Candidate: c.ToExplore()})
	}

	res, err := coord.Run(context.Background(), cluster.QueryOf(req.Spec()),
		cluster.SegmentsAfter(len(designs), ledger), seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != len(designs) {
		t.Fatalf("resumed job evaluated %d designs, want %d", res.Evaluated, len(designs))
	}
	requireCover(t, windowsOf(t, shards(rec), "test"), [][2]int{{300, 1000}, {2800, 1500}, {4800, 500}})
	requireSameCandidates(t, "resumed frontier", wire.ToCandidates(res.Candidates), singleFrontier(t, designs))
}

// An adopted windowed job resumes from a mid-space ledger through the
// path every fleet job takes (fleetSegments, count-only segments, window
// shards) and answers exactly what the uninterrupted run did. The seed
// is the uninterrupted run's own replicated state after k merged shards,
// round-tripped through the replicate wire form and seedFromReplica, so
// top-K tie-breaking indices must survive the handoff for the ranks to
// match.
func TestAdoptedWindowedJobMatchesUninterrupted(t *testing.T) {
	worker := httptest.NewServer(testServer(t).Handler())
	t.Cleanup(worker.Close)
	coord, err := cluster.New([]cluster.Transport{cluster.NewHTTP(worker.URL, nil)}, cluster.Options{ShardSize: 400, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sp := wire.SpaceSpec{Space: "test", Offset: 300, Count: 5000}
	sweep := wire.SweepRequest{
		Benchmark:   "gcc",
		Objectives:  []wire.ObjectiveSpec{{Metric: "CPI"}, {Metric: "Power", Kind: "worst"}},
		SpaceSpec:   sp,
		TopK:        7,
		Constraints: []wire.Constraint{{Objective: 1, Max: 1000}},
	}
	pareto := wire.ParetoRequest{Benchmark: "gcc", Objectives: frontierObjectives, SpaceSpec: sp}
	for _, spec := range []wire.JobSpec{sweep.Spec(), pareto.Spec()} {
		q := cluster.QueryOf(spec)
		run := func(ledger []wire.ShardRange, seed cluster.Seed, obs cluster.Observer) (int, []wire.Candidate) {
			t.Helper()
			n, segs, err := fleetSegments(ctx, spec.SpaceSpec, nil, ledger)
			if err != nil {
				t.Fatal(err)
			}
			if n != sp.Count {
				t.Fatalf("%s: fleetSegments sized the job %d, want %d", spec.Kind, n, sp.Count)
			}
			for _, s := range segs {
				if s.Designs != nil {
					t.Fatalf("%s: a named space's segment pinned %d designs", spec.Kind, len(s.Designs))
				}
			}
			res, err := coord.Run(ctx, q, segs, seed, obs)
			if err != nil {
				t.Fatal(err)
			}
			return res.Evaluated, wire.ToCandidates(res.Candidates)
		}

		// The uninterrupted run, replicating its state after every merge.
		var states []wire.ReplicateRequest
		var ledger []wire.ShardRange
		wantN, want := run(nil, cluster.Seed{}, func(p cluster.Progress) {
			ledger = wire.AddRange(ledger, wire.ShardRange{Start: p.ShardStart, Count: p.ShardLen})
			st := wire.ReplicateRequest{
				Evaluated: p.Evaluated, Feasible: p.Feasible, Shards: p.Shards,
				Snapshot: replicaSnapshot(p), Ledger: append([]wire.ShardRange(nil), ledger...),
			}
			body, err := json.Marshal(st)
			if err != nil {
				t.Error(err)
				return
			}
			var back wire.ReplicateRequest
			if err := json.Unmarshal(body, &back); err != nil {
				t.Error(err)
				return
			}
			states = append(states, back)
		})
		if len(states) != (sp.Count+399)/400 {
			t.Fatalf("%s: uninterrupted run merged %d shards, want %d", spec.Kind, len(states), (sp.Count+399)/400)
		}
		for _, k := range []int{1, len(states) / 2, len(states) - 1} {
			st := states[k-1]
			gotN, got := run(st.Ledger, seedFromReplica(&st), nil)
			if gotN != wantN {
				t.Fatalf("%s adopted after %d shards: evaluated %d, want %d", spec.Kind, k, gotN, wantN)
			}
			if spec.Kind == wire.JobSweep {
				g, _ := json.Marshal(got)
				w, _ := json.Marshal(want)
				if string(g) != string(w) {
					t.Fatalf("%s adopted after %d shards: top-K differs rank for rank:\n  got  %s\n  want %s", spec.Kind, k, g, w)
				}
				continue
			}
			requireSameCandidates(t, fmt.Sprintf("%s adopted after %d shards", spec.Kind, k), got, want)
		}
	}
}
