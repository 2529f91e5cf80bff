package wire_test

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/explore"
	"repro/internal/space"
	"repro/internal/wire"
)

// FuzzReplicateRequest drives hostile bytes through the replication
// accept path — strict decode, then ReplicateRequest.Validate — and puts
// every accepted payload through the two steps an adopter takes with
// it. The ledger and SegmentsAfter's complement must tile [0, Designs)
// exactly, without overlap; and resuming from the snapshot — a run of
// the kind's collector, seeded from it, that merges one well-formed
// partial — must not panic and must answer only candidates scored under
// the job's objectives.
func FuzzReplicateRequest(f *testing.F) {
	for _, seed := range []string{
		`{"job_id":"sweep-1","kind":"sweep","owner":"127.0.0.1:9001","benchmark":"gcc","designs":10,"seq":4,` +
			`"sweep":{"benchmark":"gcc","objectives":[{"metric":"CPI"},{"metric":"Power","kind":"worst"}],"space":"test","sample":10,"top_k":2,"constraints":[{"objective":1,"max":50}]},` +
			`"evaluated":6,"feasible":5,"shards":2,"snapshot":[{"index":4,"candidate":{"config":{"fetch_width":4},"scores":[1.5,20]}}],` +
			`"ledger":[{"start":0,"count":3},{"start":5,"count":3}]}`,
		`{"job_id":"pareto-1","kind":"pareto","owner":"127.0.0.1:9001","benchmark":"gcc","designs":5832,"seq":2,` +
			`"pareto":{"benchmark":"gcc","objectives":[{"metric":"CPI"},{"metric":"Power"}],"space":"test"},` +
			`"evaluated":500,"shards":1,"snapshot":[{"index":-1,"candidate":{"config":{},"scores":[1,2]}},{"index":-1,"candidate":{"config":{},"scores":[2,1]}}],` +
			`"ledger":[{"start":500,"count":500}]}`,
		`{"job_id":"j","kind":"sweep","owner":"o:1","designs":10,"sweep":{"benchmark":"gcc","objectives":[{"metric":"NOPE"}]}}`,
		`{"job_id":"j","kind":"pareto","owner":"o:1","designs":10,"pareto":{"benchmark":"gcc","objectives":[{"metric":"CPI"}]},"ledger":[{"start":5,"count":5},{"start":0,"count":3}]}`,
		`{"job_id":"j","kind":"pareto","owner":"o:1","designs":10,"pareto":{"benchmark":"gcc","objectives":[{"metric":"CPI"}]},"ledger":[{"start":1,"count":9223372036854775807}]}`,
		`{"job_id":"j","kind":"pareto","owner":"o:1","designs":10,"pareto":{"benchmark":"gcc","objectives":[{"metric":"CPI"},{"metric":"Power"}]},"snapshot":[{"index":-1,"candidate":{"config":{},"scores":[1,2,3,4]}}]}`,
		`{"job_id":"j","owner":"o:1","done":true}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req wire.ReplicateRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil || req.Validate() != nil || req.Done {
			return
		}
		segments := cluster.SegmentsAfter(req.Designs, req.Ledger)
		requireTiling(t, req.Designs, req.Ledger, segments)

		seed := cluster.Seed{Evaluated: req.Evaluated, Feasible: req.Feasible, Shards: req.Shards}
		for _, sc := range req.Snapshot {
			seed.Candidates = append(seed.Candidates, cluster.IndexedCandidate{Index: sc.Index, Candidate: sc.Candidate.ToExplore()})
		}
		q := cluster.QueryOf(req.Spec())
		coord, err := cluster.New([]cluster.Transport{onePoint{}}, cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		one := []cluster.Segment{{Count: 1, Designs: []space.Config{space.Baseline()}}}
		res, err := coord.Run(context.Background(), q, one, seed, nil)
		if err != nil {
			t.Fatalf("resuming an accepted payload over one well-formed shard: %v", err)
		}
		for _, c := range res.Candidates {
			if len(c.Scores) != len(q.Objectives) {
				t.Fatalf("resumed answer holds a candidate with %d scores for %d objectives", len(c.Scores), len(q.Objectives))
			}
		}
	})
}

// requireTiling checks that the ledger and the segments left after it
// cover [0, n) exactly once: sorted by start, each range begins where
// the one before it ended, and the last ends at n.
func requireTiling(t *testing.T, n int, ledger []wire.ShardRange, segments []cluster.Segment) {
	t.Helper()
	ranges := append([]wire.ShardRange(nil), ledger...)
	for _, s := range segments {
		ranges = append(ranges, wire.ShardRange{Start: s.Start, Count: s.Count})
	}
	sort.Slice(ranges, func(i, j int) bool { return ranges[i].Start < ranges[j].Start })
	pos := 0
	for _, r := range ranges {
		if r.Start != pos || r.Count <= 0 {
			t.Fatalf("ledger %v and segments %v do not tile [0,%d): range %v after position %d", ledger, segments, n, r, pos)
		}
		pos += r.Count
	}
	if pos != n {
		t.Fatalf("ledger %v and segments %v cover [0,%d), want [0,%d)", ledger, segments, pos, n)
	}
}

// onePoint is a worker answering any shard with its first design, scored
// 1e300 under every objective: a well-formed partial of either kind,
// worse than any snapshot candidate it meets, so it evicts none of them.
type onePoint struct{}

func (onePoint) Name() string                                { return "one-point" }
func (onePoint) Warm(context.Context, []string) (int, error) { return 0, nil }
func (onePoint) Evaluate(_ context.Context, q cluster.Query, s cluster.Shard) (*cluster.Partial, error) {
	scores := make([]float64, len(q.Objectives))
	for i := range scores {
		scores[i] = 1e300
	}
	cand := explore.Candidate{Config: s.Designs[0], Scores: scores}
	return &cluster.Partial{Evaluated: s.Count, Candidates: []cluster.IndexedCandidate{{Index: s.Start, Candidate: cand}}}, nil
}
