package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/mathx"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/wire"
)

// shardSize is cluster's default fixed shard size, which the peers run.
const shardSize = 2048

// replayMetrics are the in-process replay metrics every traced run
// reports, whether or not its workload reaches the layer.
var replayMetrics = []string{
	"sim.instrs_per_s", "core.train_ms", "core.predict_designs_per_s", "api.encode_final_ms",
	"space.factorial_ms", "space.sample_ms", "explore.frontier_designs_per_s",
	"explore.topk_designs_per_s", "explore.merge_ms", "wire.shard_kb", "wire.shard_encode_ms",
	"wire.shard_decode_ms", "cluster.local_job_ms",
}

// timed runs fn reps times, records each call as a span, and returns
// the median call in ms.
func timed(rec *recorder, name string, reps int, fn func(rep int) error) (float64, error) {
	samples := make([]float64, reps)
	for i := range samples {
		t := time.Now()
		if err := fn(i); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		end := time.Now()
		rec.add(-1, 0, name, t, end)
		samples[i] = ms(end.Sub(t).Nanoseconds())
	}
	return median(samples), nil
}

// replayLayers calls each layer's public functions in-process on the
// inputs workload w sends, and times them from outside. A layer the
// workload never reaches reads 0.
func replayLayers(ctx context.Context, w workload, seed uint64, ref *reference, final *api.Update, rec *recorder) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, name := range replayMetrics {
		out[name] = 0
	}
	var err error
	frontierOps := w.name != "sampled-topk"

	nBench := float64(len(w.benchmarks))
	out["sim.instrs_per_s"] = nBench * float64(spec.Train) * float64(spec.Instructions) / ref.simSeconds
	out["core.train_ms"] = 1000 * ref.trainSeconds / nBench

	if final != nil {
		if out["api.encode_final_ms"], err = timed(rec, "api.EncodeJSON", 20, func(int) error {
			return api.EncodeJSON(io.Discard, final)
		}); err != nil {
			return nil, err
		}
	}

	dm, objs, err := ref.resolve("gcc")
	if err != nil {
		return nil, err
	}
	levels := space.TrainLevels()
	var factorial []space.Config
	if out["space.factorial_ms"], err = timed(rec, "space.FullFactorial", 3, func(int) error {
		factorial = levels.FullFactorial(space.Baseline())
		return nil
	}); err != nil {
		return nil, err
	}
	if !frontierOps {
		out["space.factorial_ms"] = 0
		if out["space.sample_ms"], err = timed(rec, "space.SampleDesign", 20, func(rep int) error {
			space.SampleDesign(sampleSize, levels, space.Baseline(), 4, mathx.NewRNG(sampleSeed(seed, rep)))
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// One thread through the batch kernel, reusing one chunk of buffers.
	cpi := ref.models["gcc"][sim.MetricCPI]
	dst := make([][]float64, shardSize)
	predMS, err := timed(rec, "core.PredictBatch", 1, func(int) error {
		for s := 0; s < len(factorial); s += shardSize {
			cpi.PredictBatch(factorial[s:min(s+shardSize, len(factorial))], dst)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["core.predict_designs_per_s"] = float64(len(factorial)) / (predMS / 1000)

	if frontierOps {
		fc := explore.NewFrontierCollector()
		sweepMS, err := timed(rec, "explore.SweepStream/frontier", 1, func(int) error {
			return explore.SweepStream(ctx, factorial, dm, objs, explore.Options{Workers: 1}, fc)
		})
		if err != nil {
			return nil, err
		}
		out["explore.frontier_designs_per_s"] = float64(len(factorial)) / (sweepMS / 1000)
		if err := ref.checkFrontier("explore.FrontierCollector", fc.Frontier()); err != nil {
			return nil, err
		}
	} else {
		req := makeOp(w, seed, 0, ref).sweep
		cons := []explore.Constraint{{Objective: 1, Max: req.Constraints[0].Max}}
		sweepMS, err := timed(rec, "explore.SweepStream/topk", 1, func(int) error {
			return explore.SweepStream(ctx, factorial, dm, objs, explore.Options{Workers: 1}, explore.NewTopK(topK, 0, cons))
		})
		if err != nil {
			return nil, err
		}
		out["explore.topk_designs_per_s"] = float64(len(factorial)) / (sweepMS / 1000)
	}

	if w.peers > 1 {
		if err := replayFleetLayers(ctx, ref, factorial, dm, objs, rec, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// replayFleetLayers times what a peer fleet adds to a frontier job: the
// shard wire format, merging shard frontiers, and the coordinator over
// in-process transports.
func replayFleetLayers(ctx context.Context, ref *reference, factorial []space.Config, dm []core.DynamicsModel, objs []explore.Objective, rec *recorder, out map[string]float64) error {
	var err error
	// One shard request, built the way cluster.HTTP builds it.
	shard := factorial[:shardSize]
	var body []byte
	if out["wire.shard_encode_ms"], err = timed(rec, "wire.encode_shard", 10, func(int) error {
		specs := make([]wire.ConfigSpec, len(shard))
		for i, c := range shard {
			specs[i] = wire.SpecFromConfig(c)
		}
		body, err = json.Marshal(wire.ParetoRequest{
			Benchmark: "gcc", Objectives: objectives,
			SpaceSpec: wire.SpaceSpec{Designs: specs}, Scope: wire.ScopeLocal,
		})
		return err
	}); err != nil {
		return err
	}
	out["wire.shard_kb"] = float64(len(body)) / 1000
	if out["wire.shard_decode_ms"], err = timed(rec, "wire.decode_shard", 10, func(int) error {
		var req wire.ParetoRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return err
		}
		if err := req.Validate(); err != nil {
			return err
		}
		designs, err := req.ResolveEarly()
		if err == nil && len(designs) != shardSize {
			err = fmt.Errorf("decoded %d designs, want %d", len(designs), shardSize)
		}
		return err
	}); err != nil {
		return err
	}

	// Fleet-shaped partials: one frontier per shard, merged in order.
	var parts []*explore.FrontierCollector
	for s := 0; s < len(factorial); s += shardSize {
		fc := explore.NewFrontierCollector()
		if err := explore.SweepStream(ctx, factorial[s:min(s+shardSize, len(factorial))], dm, objs, explore.Options{Workers: 1}, fc); err != nil {
			return err
		}
		parts = append(parts, fc)
	}
	if out["explore.merge_ms"], err = timed(rec, "explore.FrontierCollector.Merge", 5, func(int) error {
		all := explore.NewFrontierCollector()
		for _, p := range parts {
			all.Merge(p)
		}
		return nil
	}); err != nil {
		return err
	}

	// The coordinator over two in-process workers at the fleet's shape.
	resolve := func(_ context.Context, benchmark, metric string) (core.DynamicsModel, error) {
		m, err := wire.ParseMetric(metric)
		if err != nil {
			return nil, err
		}
		return ref.models[benchmark][m], nil
	}
	workers := make([]cluster.Transport, 2)
	for i := range workers {
		l := cluster.NewLocal(fmt.Sprintf("local-%d", i), resolve)
		l.Workers = 1
		workers[i] = l
	}
	coord, err := cluster.New(workers, cluster.Options{ShardSize: shardSize})
	if err != nil {
		return err
	}
	var res *cluster.ParetoResult
	if out["cluster.local_job_ms"], err = timed(rec, "cluster.ParetoObserved/local", 1, func(int) error {
		res, err = coord.ParetoObserved(ctx, cluster.Query{Benchmark: "gcc", Objectives: objectives}, factorial, nil)
		return err
	}); err != nil {
		return err
	}
	return ref.checkFrontier("cluster.Local fleet", res.Frontier)
}

// checkFrontier holds an in-process frontier to the same oracle as the
// daemons' answers.
func (ref *reference) checkFrontier(who string, got []explore.Candidate) error {
	set, err := pointSet(wire.ToCandidates(got))
	if err != nil {
		return err
	}
	if !bytes.Equal(set, ref.frontier) {
		return fmt.Errorf("%s frontier of %d points differs from explore.ParetoFrontier", who, len(got))
	}
	return nil
}
