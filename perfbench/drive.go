package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/wire"
	"repro/pkg/dsedclient"
)

// opResult is what one op observed from the client side.
type opResult struct {
	op        op
	err       error
	latencyMS float64 // submit → final update
	submitMS  float64 // POST → 202
	firstMS   float64 // 202 → first stream line
	updates   int
	evaluated int
	elapsedMS float64 // the daemon's own elapsed_ms for the job
	finalKB   float64 // re-encoded size of the final line (traced only)
	cands     []wire.Candidate
}

// phase is one timed closed-loop interval over a booted fleet.
type phase struct {
	ops  []opResult
	wall time.Duration // phase start → last op's final update
	// clientBytes crossed the clients' sockets; forwarded crossed the
	// peer forwarders, per traffic class.
	clientBytes int64
	forwarded   [numClasses]int64
	// final is one successful op's final update, the shape the encode
	// replay re-encodes.
	final *api.Update
}

// driver runs ops of one workload against one fleet. Op indices run on
// across phases, so every op of a run draws distinct inputs.
type driver struct {
	w    workload
	seed uint64
	ref  *reference
	f    *fleet
	next atomic.Int64
}

// run drives w.clients closed-loop clients for d: each sends its next op
// when the previous op's final update has arrived (and its job has been
// released). rec, when non-nil, records every call as a span.
func (dr *driver) run(ctx context.Context, d time.Duration, rec *recorder) *phase {
	var bytes atomic.Int64
	hc := countingClient(&bytes)
	defer hc.CloseIdleConnections()
	fwdBefore := dr.f.forwarded()
	ph := &phase{}
	var mu sync.Mutex
	var lastDone time.Time
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < dr.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// No client retries: a refused or failed op counts against
			// attempted ops instead of hiding behind a backoff.
			client := dsedclient.New(dr.f.entry(), dsedclient.WithHTTPClient(hc), dsedclient.WithRetries(0))
			for ctx.Err() == nil && time.Now().Before(deadline) {
				o := makeOp(dr.w, dr.seed, int(dr.next.Add(1)-1), dr.ref)
				r, final := doOp(ctx, client, o, rec)
				mu.Lock()
				ph.ops = append(ph.ops, r)
				if final != nil {
					ph.final = final
				}
				lastDone = time.Now()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.wall = lastDone.Sub(start)
	ph.clientBytes = bytes.Load()
	after := dr.f.forwarded()
	for c := range after {
		ph.forwarded[c] = after[c] - fwdBefore[c]
	}
	return ph
}

// doOp submits one op, follows its stream to the final update, and
// releases the job. Traced, it also fetches the daemon's span tree for
// the job before the release.
func doOp(ctx context.Context, c *dsedclient.Client, o op, rec *recorder) (opResult, *api.Update) {
	r := opResult{op: o}
	root := rec.reserve()
	t0 := time.Now()
	var st *api.JobStatus
	var err error
	if o.pareto != nil {
		st, err = c.SubmitPareto(ctx, *o.pareto)
	} else {
		st, err = c.SubmitSweep(ctx, *o.sweep)
	}
	t1 := time.Now()
	rec.add(o.index, root, "dsedclient.submit", t0, t1)
	if err != nil {
		r.err = fmt.Errorf("op %d: submit: %w", o.index, err)
		return r, nil
	}
	r.submitMS = ms(t1.Sub(t0).Nanoseconds())
	stream := c.Stream(ctx, st.ID)
	defer stream.Close()
	var final *api.Update
	prev := t1
	for final == nil {
		u, err := stream.Next()
		tu := time.Now()
		if err != nil {
			r.err = fmt.Errorf("op %d: job %s stream: %w", o.index, st.ID, err)
			break
		}
		rec.add(o.index, root, "dsedclient.update", prev, tu)
		if r.updates == 0 {
			r.firstMS = ms(tu.Sub(t1).Nanoseconds())
		}
		r.updates++
		prev = tu
		if u.Final {
			final = u
		}
	}
	rec.addID(root, o.index, 0, "op", t0, prev)
	r.latencyMS = ms(prev.Sub(t0).Nanoseconds())
	if final != nil && final.Error != nil {
		r.err = fmt.Errorf("op %d: job %s failed: %s", o.index, st.ID, final.Error.Message)
		final = nil
	}
	if final != nil {
		r.evaluated = final.Evaluated
		r.elapsedMS = final.ElapsedMS
		r.cands = final.Candidates
		if rec != nil {
			if raw, err := json.Marshal(final); err == nil {
				r.finalKB = float64(len(raw)+1) / 1000
			}
			t := time.Now()
			tr, err := c.Trace(ctx, st.ID)
			rec.add(o.index, root, "dsedclient.trace", t, time.Now())
			if err != nil {
				r.err = fmt.Errorf("op %d: job %s trace: %w", o.index, st.ID, err)
			}
			rec.attach(o.index, tr)
		}
	}
	t := time.Now()
	if _, err := c.Cancel(ctx, st.ID); err != nil && r.err == nil {
		r.err = fmt.Errorf("op %d: releasing job %s: %w", o.index, st.ID, err)
	}
	rec.add(o.index, root, "dsedclient.release", t, time.Now())
	return r, final
}
