package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Hostile /v1/shards traffic, both ways. An owner decodes whatever a
// peer answers through cluster.HTTP, and its coordinator either refuses
// the answer as malformed (the shard re-dispatches) or merges it; a peer
// answers any shard body that decodeJob accepts without a server fault.

// fuzzShardBody is the shard FuzzShardResponse's owner dispatches: a
// 64-design window on the test space under two objectives.
const fuzzShardBody = `{"benchmark":"gcc","objectives":[{"metric":"CPI"},{"metric":"Power"}],"space":"test","offset":0,"count":64}`

// cannedPeer answers every request with one fixed 200 body, standing in
// for a peer's /v1/shards without a socket.
type cannedPeer []byte

func (c cannedPeer) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		r.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": []string{"application/json"}},
		Body:       io.NopCloser(bytes.NewReader(c)),
		Request:    r,
	}, nil
}

// capturedShards returns a test peer's real /v1/shards answers to
// fuzzShardBody, traced, as a frontier and as a top-K shard.
func capturedShards(f *testing.F) (pareto, sweep []byte) {
	_, _, peers := peerFleet(f, fleetSpec{peers: 1})
	h := peers[0].Handler()
	for kind, out := range map[string]*[]byte{"pareto": &pareto, "sweep": &sweep} {
		rec := postShard(h, kind, []byte(fuzzShardBody), shardTraceparent)
		if rec.Code != http.StatusOK {
			f.Fatalf("capturing a %s shard: status %d: %s", kind, rec.Code, rec.Body)
		}
		*out = rec.Body.Bytes()
	}
	return pareto, sweep
}

func FuzzShardResponse(f *testing.F) {
	pareto, sweep := capturedShards(f)
	f.Add(false, pareto)
	f.Add(true, sweep)
	f.Add(false, pareto[:len(pareto)/2])
	var resp wire.ShardResponse
	if err := json.Unmarshal(pareto, &resp); err != nil {
		f.Fatal(err)
	}
	flood := resp
	flood.Spans = make([]obs.Span, 5000)
	for i := range flood.Spans {
		flood.Spans[i] = resp.Spans[i%len(resp.Spans)]
	}
	skewed := resp
	skewed.Candidates = append([]wire.Candidate(nil), resp.Candidates...)
	skewed.Candidates[0].Scores = skewed.Candidates[0].Scores[:1]
	for _, r := range []wire.ShardResponse{flood, skewed} {
		raw, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(false, raw)
	}
	var spec wire.ParetoRequest
	if err := json.Unmarshal([]byte(fuzzShardBody), &spec); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, topK bool, raw []byte) {
		q := cluster.QueryOf(spec.Spec())
		if topK {
			q.Kind = wire.JobSweep
		}
		worker := cluster.NewHTTP("fuzz-peer", &http.Client{Transport: cannedPeer(raw)})
		coord, err := cluster.New([]cluster.Transport{worker}, cluster.Options{
			ShardSize: spec.Count,
			Tracer:    obs.NewTracer("owner", obs.NewTraceStore(0), nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := coord.Run(context.Background(), q, spec.Count, nil, nil)
		if err != nil {
			return // refused: malformed, undecodable or not an answer
		}
		if res.Evaluated != spec.Count || res.Shards != 1 {
			t.Fatalf("merged %d designs in %d shards, want %d in 1", res.Evaluated, res.Shards, spec.Count)
		}
		for _, c := range res.Candidates {
			if len(c.Scores) != len(spec.Objectives) {
				t.Fatalf("merged a candidate with %d scores under %d objectives", len(c.Scores), len(spec.Objectives))
			}
		}
	})
}

// incumbentShard is fuzzShardBody carrying the given incumbent.
func incumbentShard(incumbent string) string {
	return strings.TrimSuffix(fuzzShardBody, "}") + `,"incumbent":` + incumbent + "}"
}

func FuzzShardRequest(f *testing.F) {
	for _, seed := range []struct{ kind, body string }{
		{"pareto", fuzzShardBody},
		{"sweep", `{"benchmark":"gcc","objectives":[{"metric":"CPI"},{"metric":"Power","kind":"worst"}],"space":"test","offset":1000,"count":300,"top_k":5,"constraints":[{"objective":1,"max":1000}]}`},
		{"pareto", `{"benchmark":"gcc","objectives":[{"metric":"CPI"}],"designs":[{"fetch_width":2},{"fetch_width":8,"rob_size":128}]}`},
		{"pareto", `{"benchmark":"gcc","objectives":[{"metric":"CPI"}],"space":"test","sample":50,"seed":3}`},
		{"sweep", `{"benchmark":"nosuch","objectives":[{"metric":"CPI"}],"space":"test","offset":0,"count":10}`},
		{"pareto", `{"benchmark":"gcc","objectives":[{"metric":"CPI"}],"scope":"local"}`},
		{"pareto", `{}`},
		{"", `{"benchmark":"gcc"}`},
		{"pareto", incumbentShard(`[[1.25,40],[1.5,30.5],[2,20]]`)},
		{"pareto", incumbentShard(`[` + strings.Repeat(`[1,2],`, wire.MaxIncumbent) + `[1,2]]`)},
		{"pareto", incumbentShard(`[[NaN,2]]`)},
		{"pareto", incumbentShard(`[[1.25,40],[1.5]]`)},
		{"sweep", incumbentShard(`[[1.25,40]]`)},
	} {
		f.Add(seed.kind, []byte(seed.body))
	}
	_, _, peers := peerFleet(f, fleetSpec{peers: 1})
	h := peers[0].Handler()
	f.Fuzz(func(t *testing.T, kind string, body []byte) {
		if rec := postShard(h, kind, body, shardTraceparent); rec.Code >= 500 {
			t.Fatalf("shard body answered %d: %s", rec.Code, rec.Body)
		}
	})
}
