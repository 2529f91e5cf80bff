package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// setupBoots is how many times an untraced run boots its topology; it
// reports the median boot and drives the last.
const setupBoots = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's one-line verdict.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runConfig struct {
	work    string // build and scratch dir inside the checkout
	seed    uint64
	seconds float64
	trace   bool
}

// runWorkload is one benchmark run: train the reference, boot the
// topology (several times, untraced), drive the timed phase(s), check
// every answer, and compute the metrics the mode reports.
func runWorkload(ctx context.Context, p *procs, cfg runConfig, w workload) (*result, error) {
	ref, err := trainReference(ctx, w.benchmarks)
	if err != nil {
		return nil, err
	}
	if w.name == "sampled-topk" {
		err = ref.computePowerLimits(ctx, cfg.seed, w.benchmarks)
	} else {
		err = ref.computeFrontier(ctx, "gcc")
	}
	if err != nil {
		return nil, err
	}

	boots := setupBoots
	if cfg.trace {
		boots = 1
	}
	var setups, converges []float64
	var f *fleet
	for i := 0; i < boots; i++ {
		if f != nil {
			f.stop()
		}
		if f, err = boot(ctx, p, w, cfg.work); err != nil {
			return nil, err
		}
		setups = append(setups, f.setup.Seconds())
		converges = append(converges, ms(f.converge.Nanoseconds()))
	}
	defer f.stop()
	afterBoot, err := f.scrapeAll(ctx)
	if err != nil {
		return nil, err
	}

	dr := &driver{w: w, seed: cfg.seed, ref: ref, f: f}
	seconds := time.Duration(cfg.seconds * float64(time.Second))
	var plain, traced *phase
	var rec *recorder
	var before, after []scrape
	if !cfg.trace {
		plain = dr.run(ctx, seconds, nil)
	} else {
		// Half untraced, half traced, on the same daemons: the gap in
		// throughput between the halves is the tracing overhead.
		plain = dr.run(ctx, seconds/2, nil)
		if before, err = f.scrapeAll(ctx); err != nil {
			return nil, err
		}
		rec = newRecorder()
		traced = dr.run(ctx, seconds/2, rec)
		if after, err = f.scrapeAll(ctx); err != nil {
			return nil, err
		}
	}
	rss, err := f.peakRSSMB()
	if err != nil {
		return nil, err
	}
	f.stop()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	phases := []*phase{plain}
	if traced != nil {
		phases = append(phases, traced)
	}
	res := &result{Metrics: make(map[string]metric)}
	for _, ph := range phases {
		att, failed := checkAnswers(ctx, ref, ph)
		res.Attempted += att
		res.Failed += failed
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	if !cfg.trace {
		e2e := endToEnd(plain)
		e2e["setup_s"] = metric{median(setups), "s"}
		e2e["rss_mb"] = metric{rss, "MB"}
		res.Metrics = e2e
		n := completed(plain)
		logf("%s: %d ops in %.1fs; %d samples beyond p75, highest percentile with %d beyond: p%.0f; setups %.3f",
			w.name, n, plain.wall.Seconds(), tailSamples(n, 0.75), minTail,
			100*highestPercentile(n, 0.5, 0.75, 0.9, 0.99), setups)
		return res, nil
	}

	layers, err := perLayer(ctx, w, cfg.seed, ref, plain, traced, rec, afterBoot, before, after)
	if err != nil {
		return nil, err
	}
	layers["gossip.converge_ms"] = 0
	if w.peers > 1 {
		layers["gossip.converge_ms"] = median(converges)
	}
	for name, v := range layers {
		res.Metrics[name] = metric{v, unitOf(name)}
	}
	if err := rec.write(filepath.Join(cfg.work, fmt.Sprintf("spans-%s-%d.json", w.name, cfg.seed))); err != nil {
		return nil, err
	}
	reportShares(w, layers)
	return res, nil
}

// checkAnswers holds every op of a phase to the reference; failed ops
// and wrong answers both count as failed. sampled-topk checks run on
// both cores, after the daemons are gone.
func checkAnswers(ctx context.Context, ref *reference, ph *phase) (attempted, failed int) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan int)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				r := &ph.ops[i]
				if r.err == nil {
					r.err = ref.check(ctx, r.op, r.cands)
				}
				if r.err != nil {
					mu.Lock()
					if failed < 3 {
						logf("FAILED %v", r.err)
					}
					failed++
					mu.Unlock()
				}
			}
		}()
	}
	for i := range ph.ops {
		work <- i
	}
	close(work)
	wg.Wait()
	return len(ph.ops), failed
}

func completed(ph *phase) int {
	n := 0
	for _, r := range ph.ops {
		if r.err == nil {
			n++
		}
	}
	return n
}

// endToEnd computes the user-visible metrics of one phase (setup_s and
// rss_mb are added by the caller).
func endToEnd(ph *phase) map[string]metric {
	var lat []float64
	evaluated := 0
	for _, r := range ph.ops {
		if r.err == nil {
			lat = append(lat, r.latencyMS)
			evaluated += r.evaluated
		}
	}
	n := float64(max(len(lat), 1))
	var fwd int64
	for _, b := range ph.forwarded {
		fwd += b
	}
	return map[string]metric{
		"designs_per_s":   {float64(evaluated) / ph.wall.Seconds(), "designs/s"},
		"latency_ms_p50":  {percentile(lat, 0.50), "ms"},
		"latency_ms_p75":  {percentile(lat, 0.75), "ms"},
		"wire_kb_per_job": {float64(ph.clientBytes+fwd) / 1000 / n, "KB"},
	}
}

// perLayer computes the traced run's per-layer metrics.
func perLayer(ctx context.Context, w workload, seed uint64, ref *reference, plain, traced *phase, rec *recorder, afterBoot, before, after []scrape) (map[string]float64, error) {
	out, err := replayLayers(ctx, w, seed, ref, traced.final, rec)
	if err != nil {
		return nil, err
	}
	for k, v := range rec.fold() {
		out[k] = v
	}
	for _, name := range traceLayers {
		out[name] += 0 // a layer no span reached reads 0
	}

	var submit, first, overhead []float64
	updates, finalKB := 0.0, 0.0
	for _, r := range traced.ops {
		if r.err != nil {
			continue
		}
		submit = append(submit, r.submitMS)
		first = append(first, r.firstMS)
		overhead = append(overhead, r.latencyMS-r.elapsedMS)
		updates += float64(r.updates)
		finalKB += r.finalKB
	}
	n := float64(max(len(submit), 1))
	out["dsedclient.submit_ms"] = median(submit)
	out["dsedclient.first_update_ms"] = median(first)
	out["dsedclient.updates_per_job"] = updates / n
	out["dsedclient.final_kb"] = finalKB / n
	out["dsed.overhead_ms"] = median(overhead)
	out["dsed.dispatch_kb_per_job"] = float64(traced.forwarded[classDispatch]) / 1000 / n
	out["dsed.replicate_kb_per_job"] = float64(traced.forwarded[classReplicate]) / 1000 / n
	out["dsed.gossip_kb_per_job"] = float64(traced.forwarded[classGossip]) / 1000 / n

	// Daemon counters over the traced phase, summed across daemons.
	d := make(scrape)
	for i := range after {
		for k, s := range delta(before[i], after[i]) {
			d[fmt.Sprintf("%d/%s", i, k)] = s
		}
	}
	total := 0.0
	for route, endpoints := range requestRoutes {
		sum := 0.0
		for _, ep := range endpoints {
			sum += d.sum("dsed_http_requests_total", map[string]string{"endpoint": ep})
		}
		out["dsed.requests_per_job."+route] = sum / n
		total += sum
	}
	out["dsed.requests_per_job"] = total / n
	out["cluster.shards_per_job"] = d.sum("dsed_cluster_shards_total", nil) / n
	out["cluster.retries_per_job"] = d.sum("dsed_cluster_shard_retries_total", nil) / n
	out["cluster.hedges_per_job"] = d.sum("dsed_cluster_shard_hedges_total", map[string]string{"result": "issued"}) / n

	// Registry training time per benchmark, from the boot's own split,
	// averaged over the daemons that trained it.
	for _, b := range []string{"gcc", "mcf"} {
		sum, count := 0.0, 0.0
		for _, sc := range afterBoot {
			sum += sc.sum("dsed_registry_train_ms_sum", map[string]string{"benchmark": b})
			count += sc.sum("dsed_registry_train_ms_count", map[string]string{"benchmark": b})
		}
		out["registry.train_ms."+b] = 0
		if count > 0 {
			out["registry.train_ms."+b] = sum / count
		}
	}

	plainRate := endToEnd(plain)["designs_per_s"].Value
	tracedRate := endToEnd(traced)["designs_per_s"].Value
	out["tracing.overhead_pct"] = 100 * (plainRate - tracedRate) / plainRate
	return out, nil
}

// requestRoutes groups the daemon's request counters by what a job
// spends them on. Health probes, scrapes and trace fetches are the
// benchmark's own and are left out.
var requestRoutes = map[string][]string{
	"submit":    {"/v1/pareto", "/v1/sweeps"},
	"stream":    {"/v1/jobs/{id}/stream"},
	"job":       {"/v1/jobs/{id}"},
	"replicate": {"/v1/jobs/replicate"},
	"gossip":    {"/v1/gossip"},
}

// traceLayers are the daemon-span layers every traced run reports.
var traceLayers = []string{
	"trace.client_ms", "trace.job_ms", "trace.train_ms", "trace.encode_ms", "trace.predict_ms",
	"trace.merge_ms", "trace.dispatch_ms", "trace.residual_ms",
}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms") || strings.Contains(name, "_ms."):
		return "ms"
	case strings.HasSuffix(name, "_kb") || strings.HasSuffix(name, "_kb_per_job"):
		return "KB"
	case strings.HasSuffix(name, "designs_per_s"):
		return "designs/s"
	case strings.HasSuffix(name, "instrs_per_s"):
		return "instrs/s"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	}
	return "count"
}

// reportShares prints the traced split of client latency, largest layer
// first, so the dominant layer can be read off each run.
func reportShares(w workload, layers map[string]float64) {
	total := 0.0
	for _, name := range traceLayers {
		total += layers[name]
	}
	names := append([]string(nil), traceLayers...)
	sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
	var parts []string
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", strings.TrimSuffix(strings.TrimPrefix(name, "trace."), "_ms"), 100*layers[name]/total))
	}
	logf("%s self-time shares: %s", w.name, strings.Join(parts, ", "))
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
