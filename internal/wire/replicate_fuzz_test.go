package wire_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/cluster"
	"repro/internal/explore"
	"repro/internal/space"
	"repro/internal/wire"
)

// FuzzReplicateRequest drives hostile bytes through the replication
// accept path — strict decode, then ReplicateRequest.Validate — and puts
// every accepted payload through what an adopter does with it. The
// payload must survive a JSON round trip unchanged and still validate,
// its adopted sequence floor must lie past every seq its owner could
// have published without overflowing, and re-running its spec — a run
// of the kind's collector over one well-formed shard — must not panic
// and must answer only candidates scored under the job's objectives.
func FuzzReplicateRequest(f *testing.F) {
	for _, seed := range []string{
		`{"job_id":"sweep-1","kind":"sweep","owner":"127.0.0.1:9001","replicas":["127.0.0.1:9002"],"benchmark":"gcc","designs":10,"seq":4,` +
			`"sweep":{"benchmark":"gcc","objectives":[{"metric":"CPI"},{"metric":"Power","kind":"worst"}],"space":"test","sample":10,"top_k":2,"constraints":[{"objective":1,"max":50}]}}`,
		`{"job_id":"pareto-1","kind":"pareto","owner":"127.0.0.1:9001","benchmark":"gcc","designs":5832,"seq":0,` +
			`"pareto":{"benchmark":"gcc","objectives":[{"metric":"CPI"},{"metric":"Power"}],"space":"test"},` +
			`"traceparent":"00-0123456789abcdef0123456789abcdef-0123456789abcdef-01","spans":[{"trace_id":"0123456789abcdef0123456789abcdef","span_id":"0123456789abcdef","name":"dispatch"}]}`,
		`{"job_id":"j","kind":"sweep","owner":"o:1","designs":10,"sweep":{"benchmark":"gcc","objectives":[{"metric":"NOPE"}]}}`,
		`{"job_id":"j","kind":"pareto","owner":"o:1","designs":10,"pareto":{"benchmark":"gcc","objectives":[{"metric":"CPI"}]},"ledger":[{"start":0,"count":3}]}`,
		`{"job_id":"j","kind":"pareto","owner":"o:1","designs":10,"seq":9223372036854775807,"pareto":{"benchmark":"gcc","objectives":[{"metric":"CPI"}]}}`,
		`{"job_id":"j","kind":"pareto","owner":"o:1","designs":9223372036854775807,"seq":-1,"pareto":{"benchmark":"gcc","objectives":[{"metric":"CPI"},{"metric":"Power"}]}}`,
		`{"job_id":"j","owner":"o:1","done":true}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, ok := acceptReplica(body)
		if !ok || req.Done {
			return
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		back, ok := acceptReplica(again)
		if !ok {
			t.Fatalf("an accepted payload is refused after a round trip: %s", again)
		}
		if twice, _ := json.Marshal(back); !bytes.Equal(twice, again) {
			t.Fatalf("round trip changed the payload:\n  %s\n  %s", again, twice)
		}
		if floor := req.AdoptedSeq(); floor <= req.Seq+req.Designs+1 {
			t.Fatalf("adopted floor %d does not clear seq %d plus %d designs", floor, req.Seq, req.Designs)
		}

		q := cluster.QueryOf(req.Spec())
		coord, err := cluster.New([]cluster.Transport{onePoint{}}, cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := coord.Run(context.Background(), q, 1, []space.Config{space.Baseline()}, nil)
		if err != nil {
			t.Fatalf("re-running an accepted payload over one well-formed shard: %v", err)
		}
		for _, c := range res.Candidates {
			if len(c.Scores) != len(q.Objectives) {
				t.Fatalf("re-run answer holds a candidate with %d scores for %d objectives", len(c.Scores), len(q.Objectives))
			}
		}
	})
}

// acceptReplica is the replication accept path: a strict decode, then
// Validate.
func acceptReplica(body []byte) (wire.ReplicateRequest, bool) {
	var req wire.ReplicateRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if dec.Decode(&req) != nil || req.Validate() != nil {
		return wire.ReplicateRequest{}, false
	}
	return req, true
}

// onePoint is a worker answering any shard with its first design, scored
// 1e300 under every objective: a well-formed partial of either kind.
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
