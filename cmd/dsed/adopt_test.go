package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/wire"
	"repro/pkg/dsedclient"
)

// The adoption oracle, end to end: a two-peer fleet whose owner dies
// before its first merge, mid-job or after its last merge. The replica
// adopts the job from its spec and re-runs it from scratch, and the
// failover client that followed the owner's stream must receive the
// lone daemon's answer, over every design, with sequence numbers that
// rise strictly across the handoff, and a trace joining the owner's
// root to the adopter's "adopt" span.

// gatedTransport holds every shard at a shared gate, so a test decides
// how many shards an owner merges before it dies.
type gatedTransport struct {
	cluster.Transport
	gate chan struct{}
}

func (g gatedTransport) Evaluate(ctx context.Context, q cluster.Query, s cluster.Shard) (*cluster.Partial, error) {
	select {
	case <-g.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.Transport.Evaluate(ctx, q, s)
}

// holdFinal is a job stream body from the owner that never delivers a
// final update: reaching one, it reports finalHeld and fails the read
// once the owner is killed, as a connection to a dead owner fails.
type holdFinal struct {
	br        *bufio.Reader
	body      io.Closer
	ctx       context.Context
	killed    <-chan struct{}
	finalHeld func()
	buf       []byte
}

func (h *holdFinal) Read(p []byte) (int, error) {
	if len(h.buf) == 0 {
		line, err := h.br.ReadBytes('\n')
		if bytes.Contains(line, []byte(`"final":true`)) {
			h.finalHeld()
			select {
			case <-h.killed:
			case <-h.ctx.Done():
			}
			return 0, errors.New("the owner died before its final update")
		}
		if len(line) == 0 {
			return 0, err
		}
		h.buf = line
	}
	n := copy(p, h.buf)
	h.buf = h.buf[n:]
	return n, nil
}

func (h *holdFinal) Close() error { return h.body.Close() }

// ownerStreams wraps the owner's job streams in holdFinal.
type ownerStreams struct {
	owner     string
	killed    <-chan struct{}
	finalHeld func()
}

func (o ownerStreams) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil || r.URL.Host != o.owner || !strings.HasSuffix(r.URL.Path, "/stream") {
		return resp, err
	}
	resp.Body = &holdFinal{br: bufio.NewReader(resp.Body), body: resp.Body, ctx: r.Context(), killed: o.killed, finalHeld: o.finalHeld}
	return resp, nil
}

// hangUp answers like a dead process: the connection closes with no
// response.
func hangUp(w http.ResponseWriter) {
	if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
		conn.Close()
	}
}

func TestOwnerDeathAdoptsAndRestarts(t *testing.T) {
	const designs, shardSize = 1200, 200
	sp := wire.SpaceSpec{Space: "test", Offset: 400, Count: designs}
	requests := map[wire.JobKind]wire.JobRequest{
		wire.JobSweep: wire.SweepRequest{
			Benchmark:   "gcc",
			Objectives:  []wire.ObjectiveSpec{{Metric: "CPI"}, {Metric: "Power", Kind: "worst"}},
			SpaceSpec:   sp,
			TopK:        7,
			Constraints: []wire.Constraint{{Objective: 1, Max: 1000}},
		},
		wire.JobPareto: wire.ParetoRequest{Benchmark: "gcc", Objectives: frontierObjectives, SpaceSpec: sp},
	}
	single := httptest.NewServer(testServer(t).Handler())
	t.Cleanup(single.Close)

	for _, kind := range []wire.JobKind{wire.JobSweep, wire.JobPareto} {
		want, _, err := testClient(single.URL).Run(context.Background(), requests[kind], nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, merged := range []int{0, 3, designs / shardSize} {
			t.Run(fmt.Sprintf("%s/killed-after-%d-merges", kind, merged), func(t *testing.T) {
				final, seqs := adoptAfter(t, requests[kind], merged, shardSize)
				if final.Evaluated != designs {
					t.Fatalf("adopted job evaluated %d designs, want %d", final.Evaluated, designs)
				}
				if final.Seq <= designs+2 {
					t.Fatalf("final update has seq %d, not past the adoption floor %d: the owner answered", final.Seq, designs+2)
				}
				for i := 1; i < len(seqs); i++ {
					if seqs[i] <= seqs[i-1] {
						t.Fatalf("stream seqs %v do not rise strictly across the handoff", seqs)
					}
				}
				if kind == wire.JobSweep {
					g, _ := json.Marshal(final.Candidates)
					w, _ := json.Marshal(want.Candidates)
					if string(g) != string(w) || final.Feasible != want.Feasible {
						t.Fatalf("adopted top K differs from the lone daemon's rank for rank:\n  got  %s\n  want %s", g, w)
					}
					return
				}
				requireSameCandidates(t, "adopted frontier", final.Candidates, want.Candidates)
			})
		}
	}
}

// adoptAfter runs req on a two-peer fleet through a failover client,
// kills the owner once it has merged merged shards, lets the replica
// adopt, and returns the final update the client received and the seq
// of every update it saw. It checks the adoption's trace on the way.
func adoptAfter(t *testing.T, req wire.JobRequest, merged, shardSize int) (*api.Update, []int) {
	t.Helper()
	var killed atomic.Bool
	killedCh := make(chan struct{})
	var killOnce sync.Once
	kill := func() { killOnce.Do(func() { killed.Store(true); close(killedCh) }) }
	t.Cleanup(kill)
	entry, _, peers := peerFleet(t, fleetSpec{shardSize: shardSize, wrap: func(i int, next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if i == 0 && killed.Load() {
				hangUp(w)
				return
			}
			// The replica never hears from the owner again once it is
			// dead, nor that the job it still holds ever finished.
			if i == 1 && r.URL.Path == "/v1/jobs/replicate" {
				body, _ := io.ReadAll(r.Body)
				var st wire.ReplicateRequest
				if json.Unmarshal(body, &st) != nil || st.Done || killed.Load() {
					http.Error(w, "the owner is dead", http.StatusServiceUnavailable)
					return
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			next.ServeHTTP(w, r)
		})
	}})
	owner, adopter := peers[0], peers[1]

	gate := make(chan struct{}, 64)
	owner.clientsMu.Lock()
	owner.transports[owner.self] = gatedTransport{Transport: owner.srv.local, gate: gate}
	owner.transports[adopter.self] = gatedTransport{Transport: cluster.NewHTTP(adopter.self, nil), gate: gate}
	owner.clientsMu.Unlock()
	for i := 0; i < merged; i++ {
		gate <- struct{}{}
	}

	finalHeld := make(chan struct{})
	var heldOnce sync.Once
	ownerAddr := strings.TrimPrefix(entry.URL, "http://")
	hc := &http.Client{Transport: ownerStreams{owner: ownerAddr, killed: killedCh, finalHeld: func() { heldOnce.Do(func() { close(finalHeld) }) }}}
	c := dsedclient.New(entry.URL+",http://"+adopter.self,
		dsedclient.WithRetries(3), dsedclient.WithBackoff(5*time.Millisecond), dsedclient.WithHTTPClient(hc))

	var (
		mu    sync.Mutex
		id    string
		seqs  []int
		shown = make(chan int, 256) // evaluated counts as the client sees them
	)
	type outcome struct {
		final *api.Update
		err   error
	}
	done := make(chan outcome, 1)
	ctx := testContext(t)
	go func() {
		final, _, err := c.Run(ctx, req, func(u api.Update) {
			mu.Lock()
			id = u.JobID
			seqs = append(seqs, u.Seq)
			mu.Unlock()
			shown <- u.Evaluated
		})
		done <- outcome{final, err}
	}()

	// Wait until the client has seen the owner's merges, or, once every
	// shard merged, the owner's withheld final.
	all := merged*shardSize == req.Spec().Count
	deadline := time.After(30 * time.Second)
	for waiting := true; waiting; {
		select {
		case evaluated := <-shown:
			waiting = all || evaluated < merged*shardSize
		case <-finalHeld:
			waiting = false
		case o := <-done:
			t.Fatalf("the job settled before its owner died: %+v, %v", o.final, o.err)
		case <-deadline:
			t.Fatal("the owner never reached its kill point")
		}
	}
	mu.Lock()
	jobID := id
	mu.Unlock()
	if jobID == "" {
		// The job finished before the stream attached, so the stream's
		// first line was the withheld final: the owner's table names it.
		jobID = owner.srv.jobs.List(api.ListFilter{})[0].ID
	}
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		if _, ok := adopter.replicas.get(jobID); ok {
			break
		}
		if time.Since(start) > 30*time.Second {
			t.Fatalf("the replica never received job %s", jobID)
		}
	}

	// The owner dies: it answers nothing, the fleet declares it dead,
	// the replica adopts, and what the owner still runs is stopped.
	killed.Store(true)
	markDead(adopter, owner.self)
	adopter.adoptOrphans(ctx)
	if _, err := adopter.srv.jobs.Get(jobID); err != nil {
		t.Fatalf("the replica did not adopt job %s: %v", jobID, err)
	}
	_, _ = owner.srv.jobs.Cancel(jobID)
	kill()
	entry.CloseClientConnections()

	o := <-done
	if o.err != nil {
		t.Fatalf("the failover client lost the job: %v", o.err)
	}
	if n := adopter.adopted.Value(); n != 1 {
		t.Fatalf("the adopter counted %d adoptions, want 1", n)
	}
	spans := traceSpans(t, testClient("http://"+adopter.self), o.final.JobID)
	requireAdoptionTrace(t, spans, string(req.Spec().Kind), owner.self, adopter.self)
	return o.final, seqs
}

// requireAdoptionTrace checks that the adopted job's trace holds the
// dead owner's job root and, under it, the adopter's "adopt" span.
func requireAdoptionTrace(t *testing.T, spans []obs.Span, kind, owner, adopter string) {
	t.Helper()
	roots := make(map[string]bool)
	for _, sp := range spans {
		if sp.Name == "job:"+kind && sp.Node == owner {
			roots[sp.SpanID] = true
		}
	}
	for _, sp := range spans {
		if sp.Name == "adopt" && sp.Node == adopter && roots[sp.ParentID] {
			return
		}
	}
	t.Fatalf("the adopted job's %d spans lack the owner's job:%s root with an adopt span under it", len(spans), kind)
}
