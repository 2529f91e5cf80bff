// Command perfbench is the repository's end-to-end benchmark. It boots
// real dsed daemons (built from this checkout) on loopback and drives
// closed-loop workloads through pkg/dsedclient, checking every answer
// against an in-process oracle.
//
//	perfbench -workload frontier-full -seed 1 -seconds 20 -trace 0
//
// prints the end-to-end metrics; -trace 1 instead splits the same
// workload's time by layer and prints the per-layer metrics. The last
// line of standard output is always the JSON verdict. -steady N runs
// every workload N times back to back, seeds seed..seed+N-1, and prints
// each end-to-end metric's median, quartiles and spread.
//
// run.sh builds the daemon and this command into .bench_build and runs
// it from the checkout root; see WORKLOADS.md for what each workload
// measures and why.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: frontier-full, sampled-topk or peer-fleet")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed generates the same requests")
		seconds = flag.Float64("seconds", 20, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 reports the per-layer split instead of the end-to-end metrics")
		work    = flag.String("work", ".bench_build", "directory holding the dsed binary and run scratch")
		steady  = flag.Int("steady", 0, "run every workload this many times and print each metric's spread")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	p := newProcs()
	defer p.stopAll()

	if *steady > 0 {
		if err := steadiness(ctx, p, runConfig{work: *work, seed: *seed, seconds: *seconds}, *steady); err != nil {
			logf("%v", err)
			p.stopAll()
			os.Exit(1)
		}
		return
	}
	w, ok := workloadByName(*name)
	if !ok {
		logf("unknown workload %q", *name)
		os.Exit(2)
	}
	res, err := runWorkload(ctx, p, runConfig{work: *work, seed: *seed, seconds: *seconds, trace: *trace == 1}, w)
	p.stopAll()
	if err != nil {
		logf("%s: %v", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("encoding result: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// steadiness runs each workload n times back to back and prints, per
// end-to-end metric, the median, the quartiles, and the interquartile
// and max-min spreads as shares of the median.
func steadiness(ctx context.Context, p *procs, cfg runConfig, n int) error {
	for _, w := range workloads {
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			c := cfg
			c.seed = cfg.seed + uint64(i)
			res, err := runWorkload(ctx, p, c, w)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, c.seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: %d of %d ops failed", w.name, c.seed, res.Failed, res.Attempted)
			}
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
			}
		}
		names := make([]string, 0, len(values))
		for k := range values {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Printf("%-14s %-16s %12s %12s %12s %8s %8s\n", w.name, "metric", "median", "q1", "q3", "iqr%", "range%")
		for _, k := range names {
			v := values[k]
			q1, q2, q3 := quartiles(v)
			s := sortedCopy(v)
			fmt.Printf("%-14s %-16s %12.4f %12.4f %12.4f %8.2f %8.2f\n", w.name, k, q2, q1, q3,
				100*(q3-q1)/q2, 100*(s[len(s)-1]-s[0])/q2)
		}
	}
	return nil
}
