// paretosearch demonstrates the paper's end goal — *informed* design space
// exploration. After training on a few dozen simulated design points, the
// model sweeps thousands of candidate designs in milliseconds, extracts
// the CPI/power Pareto frontier, answers a constrained design question
// ("fastest machine whose worst-case power stays under budget"), and
// validates the chosen design against detailed simulation.
//
// Run: go run ./examples/paretosearch
//
// With -daemon the whole exploration runs through a dsed daemon (or
// coordinator fleet) over the versioned /v1 job API instead of training
// locally: the frontier job streams partial frontiers while it sweeps,
// and the constrained question is a top-K job. Validation still runs the
// detailed simulator locally.
//
//	go run ./cmd/dsed -addr :8090 &
//	go run ./examples/paretosearch -daemon localhost:8090
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/mathx"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/wire"
	"repro/pkg/dsedclient"
)

const benchmark = "twolf"

const powerBudget = 60.0

func main() {
	daemon := flag.String("daemon", "", "explore through the dsed daemon at this address (/v1 job API) instead of training locally")
	flag.Parse()

	// Both the training simulations and the model sweep run on the
	// pooled, cancellable engine: ^C aborts cleanly mid-campaign.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *daemon != "" {
		runDaemon(ctx, *daemon)
		return
	}
	runLocal(ctx)
}

// runDaemon is the served path: every model-driven step goes through the
// typed client — one way to speak to a daemon, no hand-rolled JSON.
func runDaemon(ctx context.Context, addr string) {
	c := dsedclient.New(addr)
	fmt.Printf("warming %s on %s...\n", benchmark, addr)
	if _, err := c.Warm(ctx, []string{benchmark}); err != nil {
		log.Fatal(err)
	}

	// The frontier as an async job: partial frontiers stream back while
	// the daemon (or its fleet) sweeps.
	req := wire.ParetoRequest{
		Benchmark: benchmark,
		Objectives: []wire.ObjectiveSpec{
			{Metric: "CPI"},
			{Metric: "Power", Kind: "worst"},
		},
		SpaceSpec: wire.SpaceSpec{Space: "train", Sample: 20000, Seed: 11},
	}
	partials := 0
	resp, err := c.ParetoJob(ctx, req, func(u api.Update) {
		if u.Final {
			return
		}
		partials++
		fmt.Printf("partial: evaluated %d/%d, frontier %d points\n",
			u.Evaluated, u.Designs, len(u.Candidates))
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfinal frontier after %d partial updates: %d of %d designs in %.0fms\n",
		partials, len(resp.Frontier), resp.Evaluated, resp.ElapsedMS)
	for _, cand := range resp.Frontier {
		fmt.Printf("  cpi=%.4f peak-power=%.4f | %v\n", cand.Scores[0], cand.Scores[1], cand.Config.ToConfig())
	}

	// The constrained design question as a top-K job.
	sweep, err := c.SweepJob(ctx, wire.SweepRequest{
		Benchmark:   benchmark,
		Objectives:  req.Objectives,
		SpaceSpec:   req.SpaceSpec,
		TopK:        1,
		Constraints: []wire.Constraint{{Objective: 1, Max: powerBudget}},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	if len(sweep.Candidates) == 0 {
		log.Fatalf("no design meets the %.0fW worst-case budget", powerBudget)
	}
	best := sweep.Candidates[0]
	cfg := best.Config.ToConfig()
	fmt.Printf("\nfastest design with predicted worst-case power ≤ %.0fW (%d of %d feasible):\n  %v\n",
		powerBudget, sweep.Feasible, sweep.Evaluated, cfg)
	fmt.Printf("  predicted: mean CPI %.3f, peak power %.1fW\n", best.Scores[0], best.Scores[1])
	validate(cfg)
}

func runLocal(ctx context.Context) {
	rng := mathx.NewRNG(11)
	opts := sim.Options{Instructions: 65536, Samples: 64}

	// Train CPI and power models from 40 simulated designs.
	train := space.SampleDesign(40, space.TrainLevels(), space.Baseline(), 10, rng)
	jobs := make([]sim.Job, len(train))
	for i, cfg := range train {
		jobs[i] = sim.Job{Config: cfg, Benchmark: benchmark}
	}
	fmt.Printf("simulating %d training designs of %s...\n", len(train), benchmark)
	traces, err := sim.SweepContext(ctx, jobs, opts, 0)
	if err != nil {
		log.Fatal(err)
	}
	cpiTraces := make([][]float64, len(train))
	powTraces := make([][]float64, len(train))
	for i, tr := range traces {
		cpiTraces[i] = tr.CPI
		powTraces[i] = tr.Power
	}
	mOpts := core.Options{NumCoefficients: 16}
	cpiModel, err := core.Train(train, cpiTraces, mOpts)
	if err != nil {
		log.Fatal(err)
	}
	powModel, err := core.Train(train, powTraces, mOpts)
	if err != nil {
		log.Fatal(err)
	}

	// Sweep the ENTIRE factorial training space (245,760 designs) through
	// the models on all cores. The space is a window the workers enumerate
	// chunk by chunk, and candidates stream into a Pareto-frontier
	// collector and a constrained top-K selector, so nothing but the
	// answers stays alive — not even the design list.
	levels := space.TrainLevels()
	designs := space.Window{Levels: levels, Base: space.Baseline(), Count: levels.NumDesigns()}
	models := []core.DynamicsModel{cpiModel, powModel}
	objectives := []explore.Objective{
		explore.MeanObjective("cpi"),
		explore.WorstCaseObjective("peak-power"),
	}
	frontier := explore.NewFrontierCollector()
	top := explore.NewTopK(1, 0, []explore.Constraint{{Objective: 1, Max: powerBudget}})
	start := time.Now()
	err = explore.SweepWindow(ctx, designs, models, objectives,
		explore.Options{}, frontier, top)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("swept %d designs through the models on %d workers in %v (%.0f designs/sec)\n\n",
		designs.Count, runtime.GOMAXPROCS(0), elapsed.Round(time.Millisecond),
		float64(designs.Count)/elapsed.Seconds())

	// Show the frontier.
	front := frontier.Frontier()
	fmt.Printf("Pareto frontier has %d of %d designs:\n", len(front), frontier.Seen())
	for _, c := range front {
		fmt.Printf("  cpi=%.4f peak-power=%.4f | %v\n", c.Scores[0], c.Scores[1], c.Config)
	}
	fmt.Println()

	// The constrained design question, answered by the streaming top-K.
	bests := top.Results()
	if len(bests) == 0 {
		log.Fatalf("no design meets the %.0fW worst-case budget", powerBudget)
	}
	best := bests[0]
	fmt.Printf("fastest design with predicted worst-case power ≤ %.0fW (%d of %d feasible):\n  %v\n",
		powerBudget, top.Feasible(), top.Seen(), best.Config)
	fmt.Printf("  predicted: mean CPI %.3f, peak power %.1fW\n", best.Scores[0], best.Scores[1])
	validate(best.Config)
}

// validate checks the model's pick with detailed simulation.
func validate(cfg space.Config) {
	tr, err := sim.Run(cfg, benchmark, sim.Options{Instructions: 65536, Samples: 64})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  simulated: mean CPI %.3f, peak power %.1fW\n", mathx.Mean(tr.CPI), mathx.Max(tr.Power))
	if mathx.Max(tr.Power) <= powerBudget*1.05 {
		fmt.Println("  ✓ the model-guided choice holds up under detailed simulation")
	} else {
		fmt.Println("  ✗ simulation exceeds the budget — model error at this point")
	}
}
