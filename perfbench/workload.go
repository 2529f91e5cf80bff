package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/mathx"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/wire"
)

// spec is the production training spec: dsed's flag defaults, passed
// explicitly so the daemons and the in-process reference train the same
// models by construction.
var spec = registry.Spec{Train: 40, Candidates: 10, Seed: 1, Samples: 64, Instructions: 65536, Coefficients: 16}

var trainMetrics = []sim.Metric{sim.MetricCPI, sim.MetricPower, sim.MetricAVF}

// specFlags renders spec (and the metric set) as dsed flags.
func specFlags() []string {
	return []string{
		"-train", strconv.Itoa(spec.Train),
		"-candidates", strconv.Itoa(spec.Candidates),
		"-train-seed", strconv.FormatUint(spec.Seed, 10),
		"-samples", strconv.Itoa(spec.Samples),
		"-instrs", strconv.FormatUint(spec.Instructions, 10),
		"-k", strconv.Itoa(spec.Coefficients),
		"-metrics", "CPI,Power,AVF",
	}
}

// objectives of every op: CPI mean, then Power mean.
var objectives = []wire.ObjectiveSpec{{Metric: "CPI"}, {Metric: "Power"}}

// sampleSize and topK shape a sampled-topk op.
const (
	sampleSize = 128
	topK       = 10
)

// workload is one traffic mix the benchmark drives through real daemons.
type workload struct {
	name       string
	benchmarks []string // trained at boot, and by the reference
	peers      int      // 1: a single daemon; 2: a -peers fleet
	clients    int      // closed-loop clients
}

var workloads = []workload{
	{name: "frontier-full", benchmarks: []string{"gcc"}, peers: 1, clients: 1},
	{name: "sampled-topk", benchmarks: []string{"gcc", "mcf"}, peers: 1, clients: 2},
	{name: "peer-fleet", benchmarks: []string{"gcc"}, peers: 2, clients: 1},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// op is one generated request. Exactly one of pareto and sweep is set.
type op struct {
	index  int
	pareto *wire.ParetoRequest
	sweep  *wire.SweepRequest
}

// sampleSeed is the LHS seed of sampled-topk op i. The daemon reads a
// zero seed as 1, and so does the reference.
func sampleSeed(seed uint64, i int) uint64 {
	s := seed + uint64(i)
	if s == 0 {
		s = 1
	}
	return s
}

// models are the reference predictors of one benchmark, keyed by metric.
type models map[sim.Metric]*core.Predictor

// reference holds what the answer checks compare against: the models,
// the full-factorial frontier for frontier ops, and the Power limit each
// benchmark's top-K constraint uses.
type reference struct {
	models   map[string]models
	frontier []byte // sorted point set, one JSON candidate per line
	powerMax map[string]float64
	// setup timings of the reference training, reused by the traced run.
	simSeconds   float64
	trainSeconds float64
}

// trainReference fits the reference models exactly the way the daemon's
// trainer does: the spec's LHS designs, simulated once, one predictor
// per metric.
func trainReference(ctx context.Context, benchmarks []string) (*reference, error) {
	ref := &reference{models: make(map[string]models), powerMax: make(map[string]float64)}
	designs := space.SampleDesign(spec.Train, space.TrainLevels(), space.Baseline(), spec.Candidates, mathx.NewRNG(spec.Seed))
	for _, b := range benchmarks {
		jobs := make([]sim.Job, len(designs))
		for i, d := range designs {
			jobs[i] = sim.Job{Config: d, Benchmark: b}
		}
		start := time.Now()
		traces, err := sim.SweepContext(ctx, jobs, sim.Options{Instructions: spec.Instructions, Samples: spec.Samples}, 0)
		if err != nil {
			return nil, fmt.Errorf("reference: simulating %s: %w", b, err)
		}
		ref.simSeconds += time.Since(start).Seconds()
		ms := make(models)
		start = time.Now()
		for _, m := range trainMetrics {
			series := make([][]float64, len(traces))
			for i, tr := range traces {
				series[i] = tr.Series(m)
			}
			p, err := core.Train(designs, series, core.Options{NumCoefficients: spec.Coefficients})
			if err != nil {
				return nil, fmt.Errorf("reference: training %s/%s: %w", b, m, err)
			}
			ms[m] = p
		}
		ref.trainSeconds += time.Since(start).Seconds()
		ref.models[b] = ms
	}
	return ref, nil
}

// resolve returns the models and objectives an op's objective specs
// select, built the way the daemon builds them.
func (ref *reference) resolve(benchmark string) ([]core.DynamicsModel, []explore.Objective, error) {
	ms, ok := ref.models[benchmark]
	if !ok {
		return nil, nil, fmt.Errorf("reference: no models for %s", benchmark)
	}
	dm := make([]core.DynamicsModel, len(objectives))
	objs := make([]explore.Objective, len(objectives))
	for i, o := range objectives {
		obj, err := o.Build()
		if err != nil {
			return nil, nil, err
		}
		m, err := wire.ParseMetric(o.Metric)
		if err != nil {
			return nil, nil, err
		}
		dm[i], objs[i] = ms[m], obj
	}
	return dm, objs, nil
}

// computeFrontier is the oracle for frontier ops: explore.ParetoFrontier
// over the full train factorial, as a sorted point set.
func (ref *reference) computeFrontier(ctx context.Context, benchmark string) error {
	dm, objs, err := ref.resolve(benchmark)
	if err != nil {
		return err
	}
	res, err := explore.SweepContext(ctx, space.TrainLevels().FullFactorial(space.Baseline()), dm, objs, explore.Options{})
	if err != nil {
		return err
	}
	// SweepContext's Frontier is explore.ParetoFrontier over every design.
	ref.frontier, err = pointSet(wire.ToCandidates(res.Frontier))
	return err
}

// computePowerLimits picks each benchmark's top-K Power constraint: the
// median predicted Power over a seeded LHS sample, so about half of
// every op's sample is feasible.
func (ref *reference) computePowerLimits(ctx context.Context, seed uint64, benchmarks []string) error {
	for _, b := range benchmarks {
		dm, objs, err := ref.resolve(b)
		if err != nil {
			return err
		}
		// The complemented seed keeps this sample apart from every op's.
		designs := space.SampleDesign(4*sampleSize, space.TrainLevels(), space.Baseline(), 4, mathx.NewRNG(^seed))
		res, err := explore.SweepContext(ctx, designs, dm, objs, explore.Options{})
		if err != nil {
			return err
		}
		power := make([]float64, len(res.Evaluated))
		for i, c := range res.Evaluated {
			power[i] = c.Scores[1]
		}
		ref.powerMax[b] = median(power)
	}
	return nil
}

// topK is the oracle for a sampled-topk op: explore.TopK over the same
// LHS sample the daemon draws.
func (ref *reference) topK(ctx context.Context, req *wire.SweepRequest) ([]byte, error) {
	dm, objs, err := ref.resolve(req.Benchmark)
	if err != nil {
		return nil, err
	}
	designs := space.SampleDesign(req.Sample, space.TrainLevels(), space.Baseline(), 4, mathx.NewRNG(req.Seed))
	cons := make([]explore.Constraint, len(req.Constraints))
	for i, c := range req.Constraints {
		cons[i] = explore.Constraint{Objective: c.Objective, Max: c.Max}
	}
	top := explore.NewTopK(req.TopK, req.Objective, cons)
	if err := explore.SweepStream(ctx, designs, dm, objs, explore.Options{Workers: 1}, top); err != nil {
		return nil, err
	}
	return json.Marshal(wire.ToCandidates(top.Results()))
}

// makeOp generates op i of workload w from the workload seed.
func makeOp(w workload, seed uint64, i int, ref *reference) op {
	if w.name != "sampled-topk" {
		return op{index: i, pareto: &wire.ParetoRequest{
			Benchmark:  "gcc",
			Objectives: objectives,
			SpaceSpec:  wire.SpaceSpec{Space: "train"},
		}}
	}
	b := w.benchmarks[i%len(w.benchmarks)]
	return op{index: i, sweep: &wire.SweepRequest{
		Benchmark:   b,
		Objectives:  objectives,
		SpaceSpec:   wire.SpaceSpec{Space: "train", Sample: sampleSize, Seed: sampleSeed(seed, i)},
		TopK:        topK,
		Objective:   0,
		Constraints: []wire.Constraint{{Objective: 1, Max: ref.powerMax[b]}},
	}}
}

// pointSet renders candidates as a sorted, newline-joined list of their
// JSON encodings: the frontier as a set, independent of order.
func pointSet(cands []wire.Candidate) ([]byte, error) {
	lines := make([][]byte, len(cands))
	for i, c := range cands {
		raw, err := json.Marshal(c)
		if err != nil {
			return nil, err
		}
		lines[i] = raw
	}
	sort.Slice(lines, func(i, j int) bool { return bytes.Compare(lines[i], lines[j]) < 0 })
	return bytes.Join(lines, []byte("\n")), nil
}

// check compares one op's final candidates with the reference answer.
func (ref *reference) check(ctx context.Context, o op, got []wire.Candidate) error {
	if o.pareto != nil {
		set, err := pointSet(got)
		if err != nil {
			return err
		}
		if !bytes.Equal(set, ref.frontier) {
			return fmt.Errorf("op %d: frontier of %d points differs from the reference", o.index, len(got))
		}
		return nil
	}
	want, err := ref.topK(ctx, o.sweep)
	if err != nil {
		return err
	}
	have, err := json.Marshal(got)
	if err != nil {
		return err
	}
	if !bytes.Equal(have, want) {
		return fmt.Errorf("op %d: top-%d of %s seed %d differs from the reference", o.index, topK, o.sweep.Benchmark, o.sweep.Seed)
	}
	return nil
}
