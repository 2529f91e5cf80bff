package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"path"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/wire"
	"repro/pkg/dsedclient"
)

// A fleet job's stream: every merged shard publishes the job's counters
// and its attribution, and the merged partial answer rides along on the
// stream cadence only.

// attachAfter is a fleet job's Publisher whose stream attaches once
// merges merged shards have been published. It records every update.
type attachAfter struct {
	merges int

	mu      sync.Mutex
	updates []api.Update
	seen    int // merged shards published so far
}

func (p *attachAfter) Publish(u api.Update) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if u.Shards > 0 {
		p.seen++
	}
	p.updates = append(p.updates, u)
}

func (p *attachAfter) Streaming() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.seen >= p.merges
}

func (p *attachAfter) JobID() string { return "pareto-cadence" }

// TestFleetStreamAttachesCandidatesOnCadence runs a fleet job of 25
// shards on a straggling owner whose stream attaches after its third
// merge. Every merge publishes its counters with worker attribution;
// none before the attach carries candidates, the first after it does,
// and no more than one per stream interval (plus that first) do.
func TestFleetStreamAttachesCandidatesOnCadence(t *testing.T) {
	const designs, shardSize, attach = 400, 16, 3
	// The owner's shards take ~160 ms, so the job spans cadence points
	// while the remote peer merges most shards within one interval.
	_, _, peers := peerFleet(t, fleetSpec{shardSize: shardSize, straggle: 20 * time.Millisecond})
	spec := wire.ParetoRequest{Benchmark: "gcc", Objectives: frontierObjectives,
		SpaceSpec: wire.SpaceSpec{Space: "test", Sample: designs, Seed: 7}}.Spec()
	early, err := spec.ResolveEarly()
	if err != nil {
		t.Fatal(err)
	}
	pub := &attachAfter{merges: attach}
	start := time.Now()
	_, final, err := peers[0].runFleet(spec, early, nil)(testContext(t), pub)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if final.Shards < 20 || final.Evaluated != designs || len(final.Candidates) == 0 {
		t.Fatalf("final update: %d shards, %d evaluated, %d candidates; want ≥ 20, %d, some",
			final.Shards, final.Evaluated, len(final.Candidates), designs)
	}

	merges, withCandidates, delta := 0, 0, 0
	for _, u := range pub.updates {
		if u.Shards == 0 {
			continue // the opening snapshot
		}
		merges++
		if u.Shards != merges || u.Worker == "" || u.Delta == 0 {
			t.Errorf("merge %d published shards=%d worker=%q delta=%d", merges, u.Shards, u.Worker, u.Delta)
		}
		delta += u.Delta
		if u.Candidates == nil {
			continue
		}
		withCandidates++
		if merges <= attach {
			t.Errorf("merge %d carried candidates before the stream attached", merges)
		}
	}
	if merges != final.Shards || delta != final.Evaluated {
		t.Errorf("%d merges published %d designs; the job merged %d shards of %d", merges, delta, final.Shards, final.Evaluated)
	}
	if first := pub.updates[attach+1]; first.Candidates == nil {
		t.Errorf("the first merge after attach (merge %d) carried no candidates", first.Shards)
	}
	if bound := int((elapsed+streamInterval-1)/streamInterval) + 1; withCandidates > bound {
		t.Errorf("%d of %d merges carried candidates over %v; the stream cadence allows %d",
			withCandidates, merges, elapsed, bound)
	}
	t.Logf("%d merges over %v, %d with candidates", merges, elapsed, withCandidates)
}

// TestFleetAttributionSumsToEvaluated: a fleet job's every merge names
// its worker and the designs it added, and GET /v1/jobs/{id}'s
// attribution, summed over both peers, is the job's evaluated count.
func TestFleetAttributionSumsToEvaluated(t *testing.T) {
	entry, _, peers := peerFleet(t, fleetSpec{shardSize: 16, straggle: time.Millisecond})
	c := testClient(entry.URL)
	ctx := context.Background()
	st, err := c.SubmitPareto(ctx, wire.ParetoRequest{Benchmark: "gcc", Objectives: frontierObjectives,
		SpaceSpec: wire.SpaceSpec{Space: "test", Sample: 300}})
	if err != nil {
		t.Fatal(err)
	}
	// from_seq=0 replays every update from the opening line on.
	resp, err := http.Get(entry.URL + "/v1/jobs/" + st.ID + "/stream?from_seq=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	merges := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var u api.Update
		if err := json.Unmarshal(sc.Bytes(), &u); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		if u.Final || u.Shards == 0 {
			continue
		}
		merges++
		if u.Worker == "" || u.Delta == 0 {
			t.Errorf("update %d (shards %d) lacks worker attribution: worker=%q delta=%d", u.Seq, u.Shards, u.Worker, u.Delta)
		}
	}
	status, err := c.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != api.StateDone || status.Shards < 10 || merges != status.Shards {
		t.Fatalf("job %s: %d shards, %d merges streamed; want done over ≥ 10 shards, one update each", status.State, status.Shards, merges)
	}
	sum := 0
	for _, n := range status.Attribution {
		sum += n
	}
	if sum != status.Evaluated || status.Evaluated != 300 {
		t.Errorf("attribution %v sums to %d; the job evaluated %d of 300", status.Attribution, sum, status.Evaluated)
	}
	for _, ps := range peers {
		if status.Attribution["http://"+ps.self] == 0 {
			t.Errorf("attribution %v credits nothing to peer %s", status.Attribution, ps.self)
		}
	}
}

// settledFirst holds every job stream request until the owner's job has
// settled, so the stream attaches after the final update.
type settledFirst struct{ owner *peerServer }

func (s settledFirst) RoundTrip(r *http.Request) (*http.Response, error) {
	if dir, ok := strings.CutSuffix(r.URL.Path, "/stream"); ok {
		if job, err := s.owner.srv.jobs.Get(path.Base(dir)); err == nil {
			select {
			case <-job.Done():
			case <-r.Context().Done():
			}
		}
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestRunReplaysPartialsOfSettledJob: Run's callback sees a job's
// partial updates even when the job settled before the stream attached,
// because Run opens the stream at from_seq=0 and not at the latest
// snapshot, which is then the final update alone.
func TestRunReplaysPartialsOfSettledJob(t *testing.T) {
	entry, _, peers := peerFleet(t, fleetSpec{shardSize: 32})
	c := dsedclient.New(entry.URL, dsedclient.WithHTTPClient(&http.Client{Transport: settledFirst{peers[0]}}))
	partials := 0
	final, _, err := c.Run(context.Background(), wire.ParetoRequest{Benchmark: "gcc", Objectives: frontierObjectives,
		SpaceSpec: wire.SpaceSpec{Space: "test", Sample: 300}}, func(u api.Update) {
		if !u.Final && u.Evaluated > 0 {
			partials++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.Evaluated != 300 {
		t.Fatalf("final update evaluated %d designs, want 300", final.Evaluated)
	}
	if partials == 0 {
		t.Error("the callback saw no partial update of a job that settled before its stream attached")
	}
}
