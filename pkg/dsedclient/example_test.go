package dsedclient_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"time"

	"repro/internal/api"
	"repro/internal/wire"
	"repro/pkg/dsedclient"
)

// These examples compile under `go test` but do not execute (no Output
// comment): each one assumes a running daemon at the address it dials.
// Start one with, e.g.:
//
//	dsed -addr :8090 -benchmarks gcc -metrics CPI,Power

// ExampleClient_Run is the one-call happy path: submit a frontier job,
// watch its merged partial frontiers stream in, and take the final
// answer. A wire.SweepRequest runs a top-K job the same way. Against a
// peer fleet the updates carry per-peer attribution; against a single
// daemon the distribution fields are zero.
func ExampleClient_Run() {
	c := dsedclient.New("http://localhost:8090")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	final, _, err := c.Run(ctx, wire.ParetoRequest{
		Benchmark: "gcc",
		Objectives: []wire.ObjectiveSpec{
			{Metric: "CPI"},
			{Metric: "Power", Kind: "worst"},
		},
		SpaceSpec: wire.SpaceSpec{Space: "test", Sample: 4096, Seed: 1},
	}, func(u api.Update) {
		// Every update is a cumulative snapshot: the whole merged
		// frontier so far, not a delta.
		fmt.Printf("%d/%d designs, %d frontier points (last shard from %q)\n",
			u.Evaluated, u.Designs, len(u.Candidates), u.Worker)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final frontier: %d points over %d designs (%d shards, %d retries)\n",
		len(final.Candidates), final.Evaluated, final.Shards, final.Retries)
}

// ExampleClient_SubmitSweep shows the async API underneath the
// convenience wrappers, with the cancel-on-abandon pattern: if this
// process stops caring about the job — deadline, shutdown, a better
// answer elsewhere — it cancels the job server-side instead of leaving
// the fleet computing into the void.
func ExampleClient_SubmitSweep() {
	c := dsedclient.New("http://localhost:8090")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	job, err := c.SubmitSweep(ctx, wire.SweepRequest{
		Benchmark: "gcc",
		Objectives: []wire.ObjectiveSpec{
			{Metric: "CPI"},
			{Metric: "Power", Kind: "worst"},
		},
		SpaceSpec: wire.SpaceSpec{Space: "test", Sample: 8192, Seed: 7},
		TopK:      16,
		Constraints: []wire.Constraint{
			{Objective: 1, Max: 60},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	// Abandoning the job must kill it on the daemon too. The fresh
	// context means the DELETE still goes out when ctx itself expired —
	// which is exactly the abandonment being signalled.
	defer func() {
		cancelCtx, done := context.WithTimeout(context.Background(), 5*time.Second)
		defer done()
		_, _ = c.Cancel(cancelCtx, job.ID)
	}()

	// Stream resumes transparently across disconnects; Next returns
	// io.EOF after the final update.
	s := c.Stream(ctx, job.ID)
	defer s.Close()
	for {
		u, err := s.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		if u.Final {
			fmt.Printf("top-%d of %d feasible designs\n", len(u.Candidates), u.Feasible)
		}
	}
}
