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
	"repro/pkg/dsedclient"
)

// The fleet oracle over windows: shards of a named, unsampled space
// travel as [offset, count) windows on it, and the merged answer stays
// byte-identical to the single-process one. A peer runs the shards it
// places on itself in process, so a job's shards are the remote peer's
// recorded HTTP windows plus the owner's own dispatches, read off the
// job's trace.

// shardRecorder records the shard bodies (POST /v1/shards) a peer
// receives before serving them.
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
		rec.mu.Lock()
		rec.bodies = append(rec.bodies, body)
		rec.mu.Unlock()
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

// traceSpans fetches a job's assembled trace through the client and
// flattens its tree back into spans.
func traceSpans(t *testing.T, c *dsedclient.Client, jobID string) []obs.Span {
	t.Helper()
	trace, err := c.Trace(context.Background(), jobID)
	if err != nil {
		t.Fatal(err)
	}
	var out []obs.Span
	var walk func(ns []*obs.TraceNode)
	walk = func(ns []*obs.TraceNode) {
		for _, n := range ns {
			out = append(out, n.Span)
			walk(n.Children)
		}
	}
	walk(trace.Tree)
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
	// hedge is every peer's -hedge-factor (default 0, no hedging).
	hedge float64
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
func peerFleet(t testing.TB, spec fleetSpec) (entry *httptest.Server, recs []*shardRecorder, peers []*peerServer) {
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
			srv.local.Stall = spec.straggle
			entry = ts
		}
		ps := newPeerServer(srv, self, nil, peerOptions{heartbeat: time.Second, shardSize: spec.shardSize, replicate: 1, hedgeFactor: spec.hedge}, nil)
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
func joinFleet(t testing.TB, peers ...*peerServer) {
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
	c := testClient(entry.URL)
	resp, id, err := c.Run(context.Background(), wire.ParetoRequest{
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
	windows := append(windowsOf(t, shards(recs...), "test"), inProcessWindows(t, traceSpans(t, c, id), peers[0].self, 0)...)
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
	c := testClient(entry.URL)
	resp, id, err := c.Run(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	bodies := shards(recs...)
	own := inProcessWindows(t, traceSpans(t, c, id), peers[0].self, 0)
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
	c := testClient(entry.URL)
	got, id, err := c.Run(ctx, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Evaluated != 3000 || got.Evaluated != want.Evaluated || got.Feasible != want.Feasible {
		t.Fatalf("fleet evaluated/feasible %d/%d, single daemon %d/%d", got.Evaluated, got.Feasible, want.Evaluated, want.Feasible)
	}
	windows := append(windowsOf(t, shards(recs...), "test"), inProcessWindows(t, traceSpans(t, c, id), peers[0].self, 1000)...)
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

// A windowed job with a nonzero offset dispatches absolute windows on
// the space (the job's own offset plus the shard position) and answers
// the frontier of the whole window. An adopter's re-run of an orphaned
// windowed job is this same run, so it sends the same windows.
func TestResumedWindowedJobSendsAbsoluteOffsets(t *testing.T) {
	worker, recs, _ := peerFleet(t, fleetSpec{peers: 1})
	rec := recs[0]
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

	res, err := coord.Run(context.Background(), cluster.QueryOf(req.Spec()), len(designs), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != len(designs) {
		t.Fatalf("windowed job evaluated %d designs, want %d", res.Evaluated, len(designs))
	}
	requireCover(t, windowsOf(t, shards(rec), "test"), [][2]int{{300, 5000}})
	requireSameCandidates(t, "windowed frontier", wire.ToCandidates(res.Candidates), singleFrontier(t, designs))
}

// An adopted windowed job re-runs through the path every fleet job
// takes (the replicated spec, resolveSpace, count-only carving, window
// shards) and answers exactly what the uninterrupted run did, wherever
// its owner died: the spec round-trips through the replicate wire form
// first, and top-K ranks must match config for config.
func TestAdoptedWindowedJobMatchesUninterrupted(t *testing.T) {
	worker, _, _ := peerFleet(t, fleetSpec{peers: 1})
	coord, err := cluster.New([]cluster.Transport{cluster.NewHTTP(worker.URL, nil)}, cluster.Options{ShardSize: 400, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	sp := wire.SpaceSpec{Space: "test", Offset: 300, Count: 5000}
	sweep := wire.SweepRequest{
		Benchmark:   "gcc",
		Objectives:  []wire.ObjectiveSpec{{Metric: "CPI"}, {Metric: "Power", Kind: "worst"}},
		SpaceSpec:   sp,
		TopK:        7,
		Constraints: []wire.Constraint{{Objective: 1, Max: 1000}},
	}
	pareto := wire.ParetoRequest{Benchmark: "gcc", Objectives: frontierObjectives, SpaceSpec: sp}
	const shardsPerJob = (5000 + 399) / 400
	for _, spec := range []wire.JobSpec{sweep.Spec(), pareto.Spec()} {
		// run carves spec's job the way runFleet does; killAt > 0 cancels
		// it from inside that merge, as a dying owner stops merging.
		run := func(spec wire.JobSpec, killAt int) (*cluster.Result, error) {
			t.Helper()
			n, pinned, err := resolveSpace(context.Background(), nil, spec.SpaceSpec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if n != sp.Count || pinned != nil {
				t.Fatalf("%s: resolveSpace sized the job %d with %d pinned designs, want %d by count", spec.Kind, n, len(pinned), sp.Count)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			return coord.Run(ctx, cluster.QueryOf(spec), n, nil, func(p cluster.Progress) {
				if p.Shards == killAt {
					cancel()
				}
			})
		}
		want, err := run(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want.Shards != shardsPerJob {
			t.Fatalf("%s: uninterrupted run merged %d shards, want %d", spec.Kind, want.Shards, shardsPerJob)
		}
		for _, k := range []int{1, shardsPerJob / 2, shardsPerJob} {
			if _, err := run(spec, k); err == nil {
				t.Fatalf("%s: owner killed after %d merges still finished", spec.Kind, k)
			}
			// The adopter holds only the spec, as it arrived on the wire.
			st := spec.Replica()
			st.JobID, st.Owner, st.Designs = "job-1", "127.0.0.1:1", sp.Count
			body, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			var back wire.ReplicateRequest
			if err := json.Unmarshal(body, &back); err != nil {
				t.Fatal(err)
			}
			got, err := run(back.Spec(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if got.Evaluated != want.Evaluated || got.Feasible != want.Feasible {
				t.Fatalf("%s adopted after %d shards: evaluated/feasible %d/%d, want %d/%d",
					spec.Kind, k, got.Evaluated, got.Feasible, want.Evaluated, want.Feasible)
			}
			g, w := wire.ToCandidates(got.Candidates), wire.ToCandidates(want.Candidates)
			if spec.Kind == wire.JobSweep {
				gj, _ := json.Marshal(g)
				wj, _ := json.Marshal(w)
				if string(gj) != string(wj) {
					t.Fatalf("%s adopted after %d shards: top-K differs rank for rank:\n  got  %s\n  want %s", spec.Kind, k, gj, wj)
				}
				continue
			}
			requireSameCandidates(t, fmt.Sprintf("%s adopted after %d shards", spec.Kind, k), g, w)
		}
	}
}

// Every remote shard of a frontier job carved after the first merge
// carries a non-empty incumbent from the merged frontier: at most
// wire.MaxIncumbent points of one score per objective, inside the 1 KB
// windowed body, and its dispatch span counts the points it sent. The
// answer stays the single-process frontier. A top-K job's shards carry
// none.
func TestWindowedShardsCarryIncumbent(t *testing.T) {
	worker, recs, _ := peerFleet(t, fleetSpec{peers: 1})
	store := obs.NewTraceStore(0)
	tracer := obs.NewTracer("owner", store, nil)
	// One dispatcher: shard i is carved after shard i-1 merged.
	coord, err := cluster.New([]cluster.Transport{cluster.NewHTTP(worker.URL, nil)},
		cluster.Options{ShardSize: 400, Parallelism: 1, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	sp := wire.SpaceSpec{Space: "test", Offset: 300, Count: 5000}
	pareto := wire.ParetoRequest{Benchmark: "gcc", Objectives: frontierObjectives, SpaceSpec: sp}
	designs, err := sp.ResolveLate(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, root := tracer.Start(context.Background(), "job")
	res, err := coord.Run(ctx, cluster.QueryOf(pareto.Spec()), len(designs), nil, nil)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	requireSameCandidates(t, "seeded windowed frontier", wire.ToCandidates(res.Candidates), singleFrontier(t, designs))
	bodies := shards(recs[0])
	requireCover(t, windowsOf(t, bodies, "test"), [][2]int{{300, 5000}})
	if len(bodies) != res.Shards || len(bodies) < 3 {
		t.Fatalf("%d shard bodies for %d shards, want several", len(bodies), res.Shards)
	}
	var sent []int
	for i, body := range bodies {
		var req wire.ParetoRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		if i > 0 && len(req.Incumbent) == 0 || i == 0 && req.Incumbent != nil {
			t.Fatalf("shard body %d carries %d incumbent points, want none first and some after: %s", i, len(req.Incumbent), body)
		}
		if len(req.Incumbent) > wire.MaxIncumbent || slices.ContainsFunc(req.Incumbent, func(p []float64) bool { return len(p) != len(frontierObjectives) }) {
			t.Fatalf("shard body %d carries a malformed incumbent: %s", i, body)
		}
		sent = append(sent, len(req.Incumbent))
	}
	var attrs []int
	for _, s := range store.Spans(root.Context().TraceID) {
		if s.Name == "dispatch" {
			n, err := strconv.Atoi(s.Attrs["incumbent"])
			if err != nil {
				t.Fatalf("dispatch span incumbent attribute %q: %v", s.Attrs["incumbent"], err)
			}
			attrs = append(attrs, n)
		}
	}
	slices.Sort(attrs)
	slices.Sort(sent)
	if !slices.Equal(attrs, sent) {
		t.Fatalf("dispatch spans count %v incumbent points, the bodies carried %v", attrs, sent)
	}

	sweep := wire.SweepRequest{Benchmark: "gcc", Objectives: frontierObjectives, SpaceSpec: sp, TopK: 5}
	before := len(shards(recs[0]))
	if _, err := coord.Run(context.Background(), cluster.QueryOf(sweep.Spec()), len(designs), nil, nil); err != nil {
		t.Fatal(err)
	}
	for _, body := range shards(recs[0])[before:] {
		if bytes.Contains(body, []byte(`"incumbent"`)) {
			t.Fatalf("a top-K shard carries an incumbent: %s", body)
		}
	}
}
