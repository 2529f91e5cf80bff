// Command schedsim races the coordinator's placement rule on a
// simulated churny, heterogeneous fleet, runnable on a laptop in
// seconds.
//
// The fleet is in-process: every worker is a cluster.Local transport
// wrapping the same deterministic model, slowed by a per-design delay so
// the fleet is genuinely heterogeneous (a configurable number of fast
// workers plus deliberate stragglers). Optionally one fast worker leaves
// mid-sweep and a fresh one joins (-churn), exercising re-dispatch and
// mid-sweep elasticity. The same sweep runs four times: hedging off and
// on, each once with the stragglers named to sort after the fast
// workers and once before them. Placement deals ties in name order, so
// the two orders show whether a makespan owes anything to where the
// straggler's name happens to sort. The table reports per-run makespan,
// retries, hedge outcomes, and whether the merged frontier matched the
// single-process reference (it always must; a "DIVERGED" row is a bug in
// the cluster plane, not a tuning problem).
//
//	go run ./tools/schedsim -designs 4000 -fast 3 -slow 1 -churn
//
// Because every worker computes the same deterministic answer, the only
// thing the legs can differ on is time: makespan is the whole
// comparison.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"reflect"
	"slices"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/mathx"
	"repro/internal/space"
	"repro/internal/wire"
)

type config struct {
	designs   int
	shardSize int
	fast      int
	slow      int
	fastDelay time.Duration // per design
	slowDelay time.Duration // per design
	hedge     float64
	churn     bool
	churnAt   time.Duration
}

type result struct {
	// slowFirst reports whether the stragglers' names sorted before the
	// fast workers'.
	slowFirst bool
	hedged    bool
	makespan  time.Duration
	retries   int
	issued    int
	won       int
	wasted    int
	exact     bool
}

func main() {
	cfg := config{}
	flag.IntVar(&cfg.designs, "designs", 4000, "designs per sweep")
	flag.IntVar(&cfg.shardSize, "shard-size", 256, "designs per shard")
	flag.IntVar(&cfg.fast, "fast", 3, "fast workers in the fleet")
	flag.IntVar(&cfg.slow, "slow", 1, "straggler workers in the fleet")
	flag.DurationVar(&cfg.fastDelay, "fast-delay", 50*time.Microsecond, "fast worker per-design latency")
	flag.DurationVar(&cfg.slowDelay, "slow-delay", 2*time.Millisecond, "straggler per-design latency")
	flag.Float64Var(&cfg.hedge, "hedge-factor", 3, "hedge factor for the hedged legs")
	flag.BoolVar(&cfg.churn, "churn", false, "one fast worker leaves mid-sweep and a fresh one joins")
	flag.DurationVar(&cfg.churnAt, "churn-at", 150*time.Millisecond, "when the churn event fires after sweep start")
	flag.Parse()

	results, err := run(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "STRAGGLERS SORT\tHEDGE\tMAKESPAN\tRETRIES\tHEDGES (issued/won/wasted)\tFRONTIER")
	for _, r := range results {
		order := "last"
		if r.slowFirst {
			order = "first"
		}
		hedge := "off"
		if r.hedged {
			hedge = "on"
		}
		frontier := "exact"
		if !r.exact {
			frontier = "DIVERGED"
		}
		fmt.Fprintf(tw, "%s\t%s\t%v\t%d\t%d/%d/%d\t%s\n",
			order, hedge, r.makespan.Round(time.Millisecond), r.retries, r.issued, r.won, r.wasted, frontier)
	}
	tw.Flush()
	for _, r := range results {
		if !r.exact {
			log.Fatal("schedsim: a merged frontier diverged from the single-process answer")
		}
	}
}

// run races the placement rule over the same designs and the same fleet
// shape, returning one row per (straggler order, hedge) leg.
func run(ctx context.Context, cfg config) ([]result, error) {
	designs := space.SampleDesign(cfg.designs, space.TrainLevels(), space.Baseline(), 2, mathx.NewRNG(11))
	want, err := reference(designs)
	if err != nil {
		return nil, err
	}
	var out []result
	for _, slowFirst := range []bool{false, true} {
		for _, hedged := range []bool{false, true} {
			r, err := runLeg(ctx, cfg, slowFirst, hedged, designs, want)
			if err != nil {
				return nil, fmt.Errorf("schedsim: stragglers first=%v, hedge=%v: %w", slowFirst, hedged, err)
			}
			out = append(out, r)
		}
	}
	return out, nil
}

func runLeg(ctx context.Context, cfg config, slowFirst, hedged bool, designs []space.Config, want []string) (result, error) {
	members := make([]cluster.Member, 0, cfg.fast+cfg.slow)
	for i := 0; i < cfg.fast; i++ {
		members = append(members, cluster.Member{Transport: slowed(fmt.Sprintf("fast-%d", i), cfg.fastDelay)})
	}
	for i := 0; i < cfg.slow; i++ {
		name := fmt.Sprintf("slow-%d", i)
		if slowFirst {
			name = "a-" + name
		}
		members = append(members, cluster.Member{Transport: slowed(name, cfg.slowDelay)})
	}
	opts := cluster.Options{ShardSize: cfg.shardSize}
	if hedged {
		opts.HedgeFactor = cfg.hedge
	}
	var mu sync.Mutex
	coord := cluster.NewFleet(func() []cluster.Member {
		mu.Lock()
		defer mu.Unlock()
		return members
	}, opts)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if cfg.churn && cfg.fast > 1 {
		// Mid-sweep churn: the last fast worker drains, and moments later
		// a fresh one appears and starts taking shards. Each change
		// builds a new slice, so readers keep the one they were handed.
		go func() {
			select {
			case <-ctx.Done():
				return
			case <-time.After(cfg.churnAt):
				gone := fmt.Sprintf("fast-%d", cfg.fast-1)
				mu.Lock()
				members = slices.DeleteFunc(slices.Clone(members), func(m cluster.Member) bool { return m.Name() == gone })
				mu.Unlock()
			}
			select {
			case <-ctx.Done():
			case <-time.After(cfg.churnAt / 2):
				joiner := cluster.Member{Transport: slowed("joiner-0", cfg.fastDelay), Benchmarks: []string{"gcc"}}
				mu.Lock()
				members = append(slices.Clone(members), joiner)
				mu.Unlock()
			}
		}()
	}
	start := time.Now()
	res, err := coord.ParetoObserved(ctx, query(), designs, nil)
	if err != nil {
		return result{}, err
	}
	issued, won, wasted := coord.HedgeStats()
	return result{
		slowFirst: slowFirst,
		hedged:    hedged,
		makespan:  time.Since(start),
		retries:   res.Retries,
		issued:    issued,
		won:       won,
		wasted:    wasted,
		exact:     reflect.DeepEqual(keys(res.Frontier), want) && res.Evaluated == len(designs),
	}, nil
}

// slowed builds one fleet member: a Local transport over the shared
// deterministic model, stalled per design to set the worker's speed
// class. The stall watches ctx so cancelled hedge losers release
// promptly.
func slowed(name string, perDesign time.Duration) cluster.Transport {
	local := cluster.NewLocal(name, resolve)
	return delayed{Transport: local, perDesign: perDesign}
}

type delayed struct {
	cluster.Transport
	perDesign time.Duration
}

func (d delayed) Evaluate(ctx context.Context, q cluster.Query, s cluster.Shard) (*cluster.Partial, error) {
	select {
	case <-time.After(d.perDesign * time.Duration(s.Count)):
		return d.Transport.Evaluate(ctx, q, s)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// simModel is the deterministic stand-in predictor: a pure function of
// the config vector, so every worker agrees and frontier comparison is
// byte-exact.
type simModel struct{ phase float64 }

func (m simModel) Predict(cfg space.Config) []float64 {
	v := cfg.Vector()
	out := make([]float64, 8)
	for i := range out {
		s := m.phase
		for j, x := range v {
			s += x * math.Sin(float64(i+j)+m.phase)
		}
		out[i] = 1 + math.Abs(s)
	}
	return out
}

func resolve(_ context.Context, benchmark, metric string) (core.DynamicsModel, error) {
	if benchmark != "gcc" {
		return nil, fmt.Errorf("unknown benchmark %q", benchmark)
	}
	switch metric {
	case "CPI":
		return simModel{phase: 0.3}, nil
	case "Power":
		return simModel{phase: 1.7}, nil
	}
	return nil, fmt.Errorf("unknown metric %q", metric)
}

func query() cluster.Query {
	return cluster.Query{
		Benchmark:  "gcc",
		Objectives: []wire.ObjectiveSpec{{Metric: "CPI"}, {Metric: "Power", Kind: "worst"}},
	}
}

func reference(designs []space.Config) ([]string, error) {
	cpi, _ := resolve(context.Background(), "gcc", "CPI")
	pow, _ := resolve(context.Background(), "gcc", "Power")
	obj0, _ := (wire.ObjectiveSpec{Metric: "CPI"}).Build()
	obj1, _ := (wire.ObjectiveSpec{Metric: "Power", Kind: "worst"}).Build()
	res, err := explore.SweepContext(context.Background(), designs, []core.DynamicsModel{cpi, pow}, []explore.Objective{obj0, obj1}, explore.Options{})
	if err != nil {
		return nil, err
	}
	return keys(res.Frontier), nil
}

func keys(cands []explore.Candidate) []string {
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = fmt.Sprintf("%v|%v", c.Config.SweptValues(), c.Scores)
	}
	sort.Strings(out)
	return out
}
