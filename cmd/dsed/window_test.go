package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/explore"
	"repro/internal/space"
	"repro/internal/wire"
)

// The fleet oracle over windows: shards of a named, unsampled space
// travel as [offset, count) windows on it, and the merged answer stays
// byte-identical to the single-process one.

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
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// requireCover checks that the windows tile want exactly: every design
// of every range once, none outside.
func requireCover(t *testing.T, windows [][2]int, want [][2]int) {
	t.Helper()
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

// twoPeerFleet boots two peers over the shared test registry, each
// with its own job table behind a shard recorder, and joins them into
// one scheduling fleet with a single gossip exchange (no background
// loop, so the view holds still).
func twoPeerFleet(t *testing.T, shardSize int) (entry *httptest.Server, recs []*shardRecorder) {
	t.Helper()
	store := testServer(t).store
	var peers []*peerServer
	for i := 0; i < 2; i++ {
		rec := &shardRecorder{}
		ts := httptest.NewServer(rec)
		t.Cleanup(ts.Close)
		srv := NewServer(context.Background(), store, 0, nil, nil)
		ps, err := newPeerServer(srv, strings.TrimPrefix(ts.URL, "http://"), nil, peerOptions{
			coordOptions: coordOptions{policy: "affinity", heartbeat: time.Second, shardSize: shardSize},
			replicate:    1,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec.next = ps.Handler()
		ps.table.SetLocalInfo(srv.workers, store.Trained(), nil)
		peers = append(peers, ps)
		recs = append(recs, rec)
		if i == 0 {
			entry = ts
		}
	}
	peers[0].exchange(context.Background(), peers[1].self)
	for _, ps := range peers {
		ps.syncGossipMembership()
		if n := len(ps.coord.Workers()); n != 2 {
			t.Fatalf("peer %s schedules over %d members, want 2", ps.self, n)
		}
	}
	return entry, recs
}

var frontierObjectives = []wire.ObjectiveSpec{{Metric: "CPI"}, {Metric: "Power"}}

// singleFrontier is the single-process reference: explore's frontier
// over designs under the shared test models.
func singleFrontier(t *testing.T, designs []space.Config) []wire.Candidate {
	t.Helper()
	models, objectives, err := testServer(t).buildObjectives(context.Background(), "gcc", frontierObjectives)
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

// A full-factorial job on a named space ships every shard as a window —
// no pinned designs, each body under 1 KB, the windows tiling the space
// with a ragged last shard — and answers the single-process frontier.
func TestFleetWindowedShardsMatchSingleProcess(t *testing.T) {
	const shardSize = 500 // 5,832 test designs: 11 full shards + 332
	entry, recs := twoPeerFleet(t, shardSize)
	resp, err := testClient(entry.URL).ParetoJob(context.Background(), wire.ParetoRequest{
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
	windows := windowsOf(t, shards(recs...), "test")
	if last := windows[len(windows)-1]; last != [2]int{5500, 332} {
		t.Errorf("last shard window = %v, want the ragged [5500,+332)", last)
	}
	requireCover(t, windows, [][2]int{{0, len(designs)}})
	requireSameCandidates(t, "windowed fleet frontier", resp.Frontier, singleFrontier(t, designs))
}

// A sampled space has no positional name: its shards still pin designs.
func TestFleetSampledShardsStayPinned(t *testing.T) {
	entry, recs := twoPeerFleet(t, 64)
	req := wire.ParetoRequest{
		Benchmark:  "gcc",
		Objectives: frontierObjectives,
		SpaceSpec:  wire.SpaceSpec{Space: "test", Sample: 300, Seed: 5},
	}
	resp, err := testClient(entry.URL).ParetoJob(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	bodies := shards(recs...)
	if len(bodies) != resp.Shards || resp.Shards != (300+63)/64 {
		t.Fatalf("recorded %d shard bodies for %d shards, want %d", len(bodies), resp.Shards, (300+63)/64)
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
	requireSameCandidates(t, "sampled fleet frontier", resp.Frontier, singleFrontier(t, designs))
}

// A client's own window composes with the shard offsets: the fleet's
// top-K over [1000, 4000) must equal a single daemon's, rank for rank.
func TestFleetClientWindowMatchesSingleDaemon(t *testing.T) {
	entry, recs := twoPeerFleet(t, 700)
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
	want, err := testClient(single.URL).SweepJob(ctx, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := testClient(entry.URL).SweepJob(ctx, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Evaluated != 3000 || got.Evaluated != want.Evaluated || got.Feasible != want.Feasible {
		t.Fatalf("fleet evaluated/feasible %d/%d, single daemon %d/%d", got.Evaluated, got.Feasible, want.Evaluated, want.Feasible)
	}
	requireCover(t, windowsOf(t, shards(recs...), "test"), [][2]int{{1000, 3000}})
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

	res, err := coord.ParetoResumeObserved(context.Background(), clusterQuery(nil, &req),
		cluster.SegmentsAfter(designs, ledger), seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != len(designs) {
		t.Fatalf("resumed job evaluated %d designs, want %d", res.Evaluated, len(designs))
	}
	requireCover(t, windowsOf(t, shards(rec), "test"), [][2]int{{300, 1000}, {2800, 1500}, {4800, 500}})
	requireSameCandidates(t, "resumed frontier", wire.ToCandidates(res.Frontier), singleFrontier(t, designs))
}
