// Command dse is the design-space-exploration experiment driver: it
// regenerates the paper's tables and figures (see DESIGN.md for the
// experiment index).
//
// Usage:
//
//	dse -exp fig8                 # one experiment at quick scale
//	dse -exp all -scale paper     # the full reproduction (slow)
//	dse -exp fig9 -train 60 -test 20 -benchmarks gcc,mcf
//
// Output is text: each experiment prints the same rows/series the paper
// plots.
//
// With -daemon the driver becomes a remote exploration CLI over the
// versioned /v1 job API (through pkg/dsedclient): it submits a frontier
// (-exp pareto, the default) or constrained top-K (-exp sweep) job to
// the daemon or peer fleet at that address, prints each streamed
// partial result as it arrives, and reports the final answer:
//
//	dse -daemon localhost:8090 -exp pareto -benchmarks gcc -sample 2000
//	dse -daemon localhost:8090 -exp sweep  -benchmarks gcc -sample 2000
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/thermal"
	"repro/internal/wire"
	"repro/pkg/dsedclient"
)

func main() {
	var (
		daemon     = flag.String("daemon", "", "run the exploration remotely through the dsed daemon at this address (-exp pareto or sweep)")
		sample     = flag.Int("sample", 5000, "remote mode: LHS-sample this many designs from the space (0 = full factorial)")
		expName    = flag.String("exp", "fig8", "experiment: table1,table2,workloads,fig1,fig2,fig4,fig7,fig8,fig9,fig10,fig11,fig13,fig14,fig17,fig18,fig19,ablation-selection,ablation-models,ablation-sampling,ext-thermal,scorecard,all")
		scaleName  = flag.String("scale", "quick", "campaign scale: quick or paper")
		train      = flag.Int("train", 0, "override: training design points")
		test       = flag.Int("test", 0, "override: test design points")
		samples    = flag.Int("samples", 0, "override: trace samples per run (power of two)")
		instrs     = flag.Uint64("instrs", 0, "override: instructions per run")
		k          = flag.Int("k", 0, "override: wavelet coefficients")
		benchmarks = flag.String("benchmarks", "", "override: comma-separated benchmark list")
		seed       = flag.Uint64("seed", 0, "override: sampling seed")
		workers    = flag.Int("workers", 0, "simulation parallelism (0 = GOMAXPROCS)")
		csvDir     = flag.String("csv", "", "also write experiment results as CSV into this directory")
		saveData   = flag.String("save-data", "", "checkpoint simulated datasets into this directory after the run")
		loadData   = flag.String("load-data", "", "restore previously checkpointed datasets before the run")
	)
	flag.Parse()

	if *daemon != "" {
		// Remote mode: ^C cancels the stream, which also cancels the
		// daemon-side job.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := runRemote(ctx, *daemon, *expName, *benchmarks, *sample, *seed); err != nil {
			fatal(err)
		}
		return
	}

	var sc experiments.Scale
	switch *scaleName {
	case "quick":
		sc = experiments.QuickScale()
	case "paper":
		sc = experiments.PaperScale()
	default:
		fatal(fmt.Errorf("unknown scale %q", *scaleName))
	}
	if *train > 0 {
		sc.Train = *train
	}
	if *test > 0 {
		sc.Test = *test
	}
	if *samples > 0 {
		sc.Samples = *samples
	}
	if *instrs > 0 {
		sc.Instructions = *instrs
	}
	if *k > 0 {
		sc.Coefficients = *k
	}
	if *benchmarks != "" {
		sc.Benchmarks = strings.Split(*benchmarks, ",")
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	sc.Workers = *workers

	// Simulation sweeps run on the PR 1 worker pool under a signal-bound
	// context, so ^C aborts a long campaign instead of orphaning it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	c, err := experiments.NewCampaignContext(ctx, sc)
	if err != nil {
		fatal(err)
	}
	if *loadData != "" {
		if err := c.LoadDatasets(*loadData); err != nil {
			fatal(err)
		}
		plain, dvm := c.CachedDatasets()
		fmt.Printf("restored %d plain and %d DVM datasets from %s\n\n", plain, dvm, *loadData)
	}

	names := []string{*expName}
	if *expName == "all" {
		names = []string{
			"table1", "table2", "workloads", "fig1", "fig2", "fig4", "fig7", "fig8",
			"fig9", "fig10", "fig11", "fig13", "fig14", "fig17", "fig18",
			"fig19", "ablation-selection", "ablation-models", "ablation-sampling",
			"ext-thermal", "scorecard",
		}
	}
	for _, name := range names {
		start := time.Now()
		report, csv, err := run(c, name)
		if err != nil {
			fatal(err)
		}
		fmt.Println(report)
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" && csv != nil {
			if err := writeCSV(*csvDir, name, csv); err != nil {
				fatal(err)
			}
		}
	}
	if *saveData != "" {
		if err := c.SaveDatasets(*saveData); err != nil {
			fatal(err)
		}
		plain, dvm := c.CachedDatasets()
		fmt.Printf("checkpointed %d plain and %d DVM datasets into %s\n", plain, dvm, *saveData)
	}
}

// csvWriter is implemented by every experiment result that exports CSV.
type csvWriter interface {
	WriteCSV(io.Writer) error
}

func writeCSV(dir, name string, result csvWriter) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := result.WriteCSV(f); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return f.Close()
}

func run(c *experiments.Campaign, name string) (string, csvWriter, error) {
	switch name {
	case "table1":
		return experiments.Table1(), nil, nil
	case "table2":
		return experiments.Table2(), nil, nil
	case "workloads":
		rows, err := experiments.WorkloadTable(c)
		if err != nil {
			return "", nil, err
		}
		return experiments.WorkloadReport(rows), nil, nil
	case "fig1":
		r, err := experiments.Fig1(c)
		if err != nil {
			return "", nil, err
		}
		return r.Report(), r, nil
	case "fig2":
		return experiments.Fig2(), nil, nil
	case "fig4":
		r, err := experiments.Fig4(c)
		if err != nil {
			return "", nil, err
		}
		return r.Report(), r, nil
	case "fig7":
		r, err := experiments.Fig7(c, c.Scale.Benchmarks[0])
		if err != nil {
			return "", nil, err
		}
		return r.Report(), nil, nil
	case "fig8":
		r, err := experiments.Fig8(c)
		if err != nil {
			return "", nil, err
		}
		return r.Report(), r, nil
	case "fig9":
		r, err := experiments.Fig9(c, nil)
		if err != nil {
			return "", nil, err
		}
		return r.Report(), r, nil
	case "fig10":
		r, err := experiments.Fig10(c, nil)
		if err != nil {
			return "", nil, err
		}
		return r.Report(), r, nil
	case "fig11":
		r, err := experiments.Fig11(c)
		if err != nil {
			return "", nil, err
		}
		return r.Report(), nil, nil
	case "fig13":
		r, err := experiments.Fig13(c)
		if err != nil {
			return "", nil, err
		}
		return r.Report(), r, nil
	case "fig14":
		r, err := experiments.Fig14(c, pickBenchmark(c, "bzip2"))
		if err != nil {
			return "", nil, err
		}
		return r.Report(), r, nil
	case "fig17":
		r, err := experiments.Fig17(c, pickBenchmark(c, "gcc"), 0.3)
		if err != nil {
			return "", nil, err
		}
		return r.Report(), nil, nil
	case "fig18":
		r, err := experiments.Fig18(c, 0.3)
		if err != nil {
			return "", nil, err
		}
		return r.Report(), r, nil
	case "fig19":
		r, err := experiments.Fig19(c, nil)
		if err != nil {
			return "", nil, err
		}
		return r.Report(), r, nil
	case "ablation-selection":
		r, err := experiments.AblationSelection(c)
		if err != nil {
			return "", nil, err
		}
		return r.Report(), r, nil
	case "ablation-models":
		r, err := experiments.AblationModels(c)
		if err != nil {
			return "", nil, err
		}
		return r.Report(), r, nil
	case "ablation-sampling":
		r, err := experiments.AblationSampling(c)
		if err != nil {
			return "", nil, err
		}
		return r.Report(), r, nil
	case "scorecard":
		checks, err := experiments.Scorecard(c)
		if err != nil {
			return "", nil, err
		}
		return experiments.ScorecardReport(checks), nil, nil
	case "ext-thermal":
		r, err := experiments.ExtThermal(c, thermal.DefaultParams())
		if err != nil {
			return "", nil, err
		}
		return r.Report(), r, nil
	}
	return "", nil, fmt.Errorf("unknown experiment %q", name)
}

// pickBenchmark prefers the paper's benchmark for a figure, falling back
// to the first in the campaign when the scale excludes it.
func pickBenchmark(c *experiments.Campaign, preferred string) string {
	for _, b := range c.Scale.Benchmarks {
		if b == preferred {
			return b
		}
	}
	return c.Scale.Benchmarks[0]
}

// runRemote drives a daemon (or peer fleet) through the typed
// /v1 client: submit the job, print every streamed partial result, then
// the final answer. exp picks the job shape: "pareto" (also the
// experiment-driver default "fig8", for bare `dse -daemon host`) or
// "sweep".
func runRemote(ctx context.Context, addr, exp, benchmarks string, sample int, seed uint64) error {
	benchmark := "gcc"
	if list := strings.Split(benchmarks, ","); benchmarks != "" && list[0] != "" {
		benchmark = strings.TrimSpace(list[0])
	}
	if seed == 0 {
		seed = 1
	}
	c := dsedclient.New(addr)
	objectives := []wire.ObjectiveSpec{{Metric: "CPI"}, {Metric: "Power"}}
	spaceSpec := wire.SpaceSpec{Space: "test", Sample: sample, Seed: seed}
	partials := 0
	onUpdate := func(u api.Update) {
		if line, ok := partialLine(u); ok {
			partials++
			fmt.Println(line)
		}
	}
	var req wire.JobRequest = wire.ParetoRequest{Benchmark: benchmark, Objectives: objectives, SpaceSpec: spaceSpec}
	if exp == "sweep" {
		req = wire.SweepRequest{Benchmark: benchmark, Objectives: objectives, SpaceSpec: spaceSpec, TopK: 10}
	}
	final, jobID, err := c.Run(ctx, req, onUpdate)
	if err != nil {
		return err
	}
	if exp == "sweep" {
		fmt.Printf("final: %d partial updates, evaluated %d, feasible %d, %d candidates in %.0fms\n",
			partials, final.Evaluated, final.Feasible, len(final.Candidates), final.ElapsedMS)
		for i, cand := range final.Candidates {
			fmt.Printf("  #%d %v | scores %v\n", i+1, cand.Config.ToConfig(), cand.Scores)
		}
	} else { // pareto — including the experiment-driver default exp name
		fmt.Printf("final: %d partial updates, evaluated %d, frontier %d points in %.0fms\n",
			partials, final.Evaluated, len(final.Candidates), final.ElapsedMS)
		for _, cand := range final.Candidates {
			fmt.Printf("  %v | scores %v\n", cand.Config.ToConfig(), cand.Scores)
		}
	}
	printTrace(ctx, c, jobID)
	return nil
}

// partialLine renders one streamed update as a "partial:" line. Only a
// partial answer counts: the final update is printed separately, and a
// job's opening snapshot carries only its shape (nothing evaluated yet),
// so ok is false for both.
func partialLine(u api.Update) (line string, ok bool) {
	if u.Final || u.Evaluated == 0 {
		return "", false
	}
	line = fmt.Sprintf("partial: evaluated %d/%d, %d candidates", u.Evaluated, u.Designs, len(u.Candidates))
	if u.Shards > 0 {
		line += fmt.Sprintf(" (%d shards", u.Shards)
		if u.Worker != "" {
			line += ", last from " + u.Worker
		}
		line += ")"
	}
	return line, true
}

// printTrace fetches the finished job's assembled span tree and prints
// a one-line-per-span summary. Tracing is additive: a daemon without
// the trace route (or a job already evicted from the ring buffer) just
// skips the section. Lines are prefixed "trace:" — with depth rendered
// as dots, never leading whitespace — so scripted consumers of the
// partial/final stream (and the CI smoke's frontier-line count) are
// untouched.
func printTrace(ctx context.Context, c *dsedclient.Client, jobID string) {
	trace, err := c.Trace(ctx, jobID)
	if err != nil || len(trace.Tree) == 0 {
		return
	}
	fmt.Printf("trace: job %s trace %s, %d spans\n", trace.JobID, trace.TraceID, trace.Spans)
	var walk func(n *obs.TraceNode, depth int)
	walk = func(n *obs.TraceNode, depth int) {
		fmt.Printf("trace: %s%s on %s %.1fms\n", strings.Repeat(". ", depth), n.Name, n.Node, n.DurationMS)
		for _, child := range n.Children {
			walk(child, depth+1)
		}
	}
	for _, root := range trace.Tree {
		walk(root, 0)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dse:", err)
	os.Exit(1)
}
