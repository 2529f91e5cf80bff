package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/wire"
)

// postShard sends one POST /v1/shards?kind= to a handler in process and
// returns the recorded answer. A non-empty traceparent rides the request
// as an owner's dispatch span would.
func postShard(h http.Handler, kind string, body []byte, traceparent string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/shards?kind="+url.QueryEscape(kind), bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set(obs.TraceparentHeader, traceparent)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// shardTraceparent is a fixed owner dispatch span context.
const shardTraceparent = "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"

// A remote shard is one synchronous call: the answer carries the shard's
// candidates and exactly this shard's phase spans, parented under the
// caller's span — however many shards of the same trace the peer served
// before. It is no job: the peer's job table stays empty.
func TestShardAnswersOneBodyWithItsOwnSpans(t *testing.T) {
	_, _, peers := peerFleet(t, fleetSpec{peers: 1})
	h := peers[0].Handler()
	body := []byte(`{"benchmark":"gcc","objectives":[{"metric":"CPI"},{"metric":"Power"}],"space":"test","offset":100,"count":200}`)
	for i := 0; i < 3; i++ {
		rec := postShard(h, "pareto", body, shardTraceparent)
		if rec.Code != http.StatusOK {
			t.Fatalf("shard %d answered %d: %s", i, rec.Code, rec.Body)
		}
		var resp wire.ShardResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Evaluated != 200 || len(resp.Candidates) == 0 {
			t.Fatalf("shard %d evaluated %d designs with %d candidates, want 200 and a frontier", i, resp.Evaluated, len(resp.Candidates))
		}
		names := map[string]int{}
		for _, sp := range resp.Spans {
			names[sp.Name]++
			if sp.TraceID != "0123456789abcdef0123456789abcdef" {
				t.Errorf("span %s left the caller's trace", sp.Name)
			}
			if sp.Node != peers[0].self {
				t.Errorf("span %s is attributed to %q, want %q", sp.Name, sp.Node, peers[0].self)
			}
		}
		for _, phase := range []string{"phase:train", "phase:predict", "phase:merge"} {
			if names[phase] != 1 {
				t.Fatalf("shard %d carries %d %s spans, want 1 (spans %v)", i, names[phase], phase, names)
			}
		}
		if len(resp.Spans) != 3 {
			t.Fatalf("shard %d carries %d spans, want its own 3", i, len(resp.Spans))
		}
	}
	if jobs := peers[0].srv.jobs.List(api.ListFilter{}); len(jobs) != 0 {
		t.Fatalf("serving shards left %d jobs in the peer's table, want 0", len(jobs))
	}
	// Untraced, a shard records nothing.
	rec := postShard(h, "pareto", body, "")
	if rec.Code != http.StatusOK || strings.Contains(rec.Body.String(), `"spans"`) {
		t.Fatalf("untraced shard answered %d with spans: %.200s", rec.Code, rec.Body)
	}
}

// The shard route's and the submit routes' refusals: an unknown kind, a
// sample (the owner draws those and ships pinned designs), and a
// local-scope submission to a job route, which names the shard route
// so a stale peer's shard fails loudly instead of being re-sharded.
func TestShardAndScopeRefusals(t *testing.T) {
	_, _, peers := peerFleet(t, fleetSpec{peers: 1})
	h := peers[0].Handler()
	window := `{"benchmark":"gcc","objectives":[{"metric":"CPI"}],"space":"test","offset":0,"count":10}`
	for _, tc := range []struct {
		name, kind, body string
	}{
		{"no kind", "", window},
		{"unknown kind", "frontier", window},
		{"sample", "pareto", `{"benchmark":"gcc","objectives":[{"metric":"CPI"}],"space":"test","sample":50}`},
		{"sweep field on a frontier shard", "pareto", `{"benchmark":"gcc","objectives":[{"metric":"CPI"}],"top_k":3}`},
	} {
		if rec := postShard(h, tc.kind, []byte(tc.body), ""); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: answered %d, want 400: %s", tc.name, rec.Code, rec.Body)
		}
	}
	single := testServer(t).Handler()
	local := `{"benchmark":"gcc","objectives":[{"metric":"CPI"}],"space":"test","offset":0,"count":10,"scope":"local"}`
	for _, h := range []http.Handler{h, single} {
		for _, path := range []string{"/v1/pareto", "/v1/sweeps"} {
			req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(local))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "/v1/shards") {
				t.Errorf("local-scope %s answered %d, want a 400 naming /v1/shards: %s", path, rec.Code, rec.Body)
			}
		}
	}
	// A single daemon has no shard route.
	if rec := postShard(single, "pareto", []byte(window), ""); rec.Code != http.StatusNotFound {
		t.Errorf("a single daemon answered a shard %d, want 404", rec.Code)
	}
}

// A hedge cancels the losing attempt on the worker: with the remote
// peer's shards gated shut, every one the owner sends it is hedged onto
// the owner, and the remote's handler returns with a cancelled context
// shortly after that hedge's answer merged. The frontier is the lone
// daemon's.
func TestHedgeCancelsRemoteShard(t *testing.T) {
	type served struct {
		err    error
		status int
	}
	var (
		mu     sync.Mutex
		gated  int
		ended  []served
		gate   = make(chan struct{})
		closed sync.Once
	)
	entry, _, peers := peerFleet(t, fleetSpec{shardSize: 500, hedge: 2, wrap: func(i int, next http.Handler) http.Handler {
		if i != 1 {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !shardSubmission(r) {
				next.ServeHTTP(w, r)
				return
			}
			mu.Lock()
			gated++
			mu.Unlock()
			select {
			case <-gate:
			case <-r.Context().Done():
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			mu.Lock()
			ended = append(ended, served{err: r.Context().Err(), status: rec.Code})
			mu.Unlock()
		})
	}})
	// Registered after the fleet's servers, so it runs before they close:
	// a shard still parked must not hold a server's Close forever.
	t.Cleanup(func() { closed.Do(func() { close(gate) }) })
	req := wire.ParetoRequest{Benchmark: "gcc", Objectives: frontierObjectives, SpaceSpec: wire.SpaceSpec{Space: "test"}}
	single := httptest.NewServer(testServer(t).Handler())
	t.Cleanup(single.Close)
	want, _, err := testClient(single.URL).Run(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Bounded, so an owner that never cancels its losing attempt fails
	// the test instead of hanging it.
	ctx, cancel := context.WithTimeout(testContext(t), 30*time.Second)
	defer cancel()
	got, _, err := testClient(entry.URL).Run(ctx, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameCandidates(t, "hedged fleet frontier", got.Candidates, want.Candidates)
	if _, won, _ := peers[0].coord.HedgeStats(); won == 0 {
		t.Fatal("no hedge won against the gated peer")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n, m := gated, len(ended)
		mu.Unlock()
		if n > 0 && m == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of the %d shards the gated peer took are still running after the job finished", n-m, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, s := range ended {
		if s.err == nil || s.status != http.StatusServiceUnavailable {
			t.Errorf("gated shard %d ended with context error %v and status %d, want cancelled and 503", i, s.err, s.status)
		}
	}
}

// TestShardIncumbentRefusals: an incumbent seeds only a frontier shard
// over a window at POST /v1/shards, with at most wire.MaxIncumbent points
// of one finite score per objective. A job submission carrying one is a
// 400 naming /v1/shards, as a local scope is; so is a top-K or pinned
// shard carrying one, and any malformed incumbent.
func TestShardIncumbentRefusals(t *testing.T) {
	_, _, peers := peerFleet(t, fleetSpec{peers: 1})
	h := peers[0].Handler()
	points := func(n int) string {
		p := make([]string, n)
		for i := range p {
			p[i] = fmt.Sprintf("[%d.5,%d]", i, 90-i)
		}
		return "[" + strings.Join(p, ",") + "]"
	}
	window := func(incumbent string) string {
		return `{"benchmark":"gcc","objectives":[{"metric":"CPI"},{"metric":"Power"}],"space":"test","offset":0,"count":100,"incumbent":` + incumbent + `}`
	}
	if rec := postShard(h, "pareto", []byte(window(points(wire.MaxIncumbent))), ""); rec.Code != http.StatusOK {
		t.Fatalf("a %d-point incumbent answered %d: %s", wire.MaxIncumbent, rec.Code, rec.Body)
	}
	for _, tc := range []struct {
		name, kind, body string
	}{
		{"too many points", "pareto", window(points(wire.MaxIncumbent + 1))},
		{"width mismatch", "pareto", window(`[[1.5,2],[1.5]]`)},
		{"NaN", "pareto", window(`[[NaN,2]]`)},
		{"overflow", "pareto", window(`[[1e999,2]]`)},
		{"top-K shard", "sweep", window(points(2))},
		{"pinned shard", "pareto", `{"benchmark":"gcc","objectives":[{"metric":"CPI"}],"designs":[{"fetch_width":2}],"incumbent":[[1]]}`},
	} {
		if rec := postShard(h, tc.kind, []byte(tc.body), ""); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: answered %d, want 400: %s", tc.name, rec.Code, rec.Body)
		}
	}
	single := testServer(t).Handler()
	for _, h := range []http.Handler{h, single} {
		for _, path := range []string{"/v1/pareto", "/v1/sweeps"} {
			for _, inc := range []string{points(2), points(wire.MaxIncumbent + 1)} {
				req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(window(inc)))
				req.Header.Set("Content-Type", "application/json")
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "/v1/shards") {
					t.Errorf("incumbent on %s answered %d, want a 400 naming /v1/shards: %s", path, rec.Code, rec.Body)
				}
			}
		}
	}
}
