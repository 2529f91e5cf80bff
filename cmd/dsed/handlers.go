package main

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/wire"
)

// modelInfo describes one registry entry in /v1/healthz and
// /v1/benchmarks.
type modelInfo struct {
	Benchmark string `json:"benchmark"`
	Metric    string `json:"metric"`
	Networks  int    `json:"networks"`
	TraceLen  int    `json:"trace_len"`
	// Warm models were loaded from disk at boot instead of trained.
	Warm      bool   `json:"warm,omitempty"`
	TrainedAt string `json:"trained_at,omitempty"`
}

func (s *Server) modelInfos() []modelInfo {
	entries := s.store.Entries()
	infos := make([]modelInfo, len(entries))
	for i, e := range entries {
		infos[i] = modelInfo{
			Benchmark: e.Benchmark, Metric: e.Metric.String(),
			Networks: e.Networks, TraceLen: e.TraceLen, Warm: e.Warm,
		}
		if !e.TrainedAt.IsZero() {
			infos[i].TrainedAt = e.TrainedAt.UTC().Format(time.RFC3339)
		}
	}
	return infos
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !api.RequireGet(w, r) {
		return
	}
	api.WriteJSON(w, r, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.started).Seconds(),
		"trainings":      s.store.Trainings(),
		"models":         s.modelInfos(),
	})
}

// handleBenchmarks lists what the daemon can answer for: benchmarks with
// models in memory, and benchmarks it would train on first request.
func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	if !api.RequireGet(w, r) {
		return
	}
	// "Trained" means every served metric is in memory: a partially
	// warm-started benchmark still owes a training run, so clients that
	// pick pre-warmed work from this list are never surprised. The same
	// inventory is what membership heartbeats advertise for affinity
	// scheduling.
	metrics := s.store.Metrics()
	trained := s.store.Trained()
	trainedSet := make(map[string]bool, len(trained))
	for _, b := range trained {
		trainedSet[b] = true
	}
	onDemand := []string{}
	for _, b := range s.store.Trainable() {
		if !trainedSet[b] {
			onDemand = append(onDemand, b)
		}
	}
	api.WriteJSON(w, r, http.StatusOK, map[string]any{
		"trained":             trained,
		"trainable_on_demand": onDemand,
		"metrics":             metricStrings(metrics),
		"models":              s.modelInfos(),
	})
}

func metricStrings(ms []sim.Metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.String()
	}
	return out
}

// handleWarm is the admin pre-warm hook: it drives registry.LoadOrTrain
// for every configured metric of the listed benchmarks, so a fleet owner
// (or an operator ahead of a demo) can place models before the first
// sweep pays for them.
func (s *Server) handleWarm(w http.ResponseWriter, r *http.Request) {
	var req wire.WarmRequest
	if !api.DecodePost(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		api.WriteError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	s.warmLocal(w, r, req)
}

// warmLocal trains this daemon's own registry for a decoded, validated
// warm request — shared by the worker route and a peer's local-scope
// warm dispatch (a peer decodes once to read the scope, then either
// trains here or fans out across the fleet).
func (s *Server) warmLocal(w http.ResponseWriter, r *http.Request, req wire.WarmRequest) {
	start := time.Now()
	trainings, failures, err := s.warm(r.Context(), req.Benchmarks)
	if err != nil {
		api.WriteError(w, r, registryStatus(err), "%v", err)
		return
	}
	errStrings := make([]string, len(failures))
	for i, e := range failures {
		errStrings[i] = e.Error()
	}
	api.WriteJSON(w, r, http.StatusOK, wire.WarmResponse{
		Benchmarks: req.Benchmarks,
		Trainings:  trainings,
		ElapsedMS:  float64(time.Since(start).Microseconds()) / 1000,
		Errors:     errStrings,
	})
}

// warm trains the benchmarks into this daemon's registry, returning how
// many training runs it triggered and each benchmark that failed.
// Partial failure still warmed something: only a warm that placed
// nothing is an error (err). The failures of a partial warm are itemised
// instead, so a fleet warm fanning out keeps the successful placements.
func (s *Server) warm(ctx context.Context, benchmarks []string) (trainings int, failures []error, err error) {
	before := s.store.Trainings()
	err = s.store.Warm(ctx, benchmarks)
	// The before/after diff approximates this warm's own cost; a
	// concurrent on-demand training can inflate it, but the number stays
	// a per-call delta rather than an uncomparable lifetime sum.
	trainings = s.store.Trainings() - before
	if err == nil {
		return trainings, nil, nil
	}
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		failures = joined.Unwrap()
	} else {
		failures = []error{err}
	}
	if len(failures) == len(benchmarks) {
		return trainings, nil, err
	}
	return trainings, failures, nil
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req wire.PredictRequest
	if !api.DecodePost(w, r, &req) {
		return
	}
	if len(req.Configs) > 0 || len(req.Metrics) > 0 {
		s.handleBatchPredict(w, r, req)
		return
	}
	// Validate the config before resolving the model: a malformed
	// request must not trigger an on-demand training run.
	cfg, err := req.Config.Apply(space.Baseline())
	if err != nil {
		api.WriteError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	p, m, status, err := s.model(r.Context(), req.Benchmark, req.Metric)
	if err != nil {
		api.WriteError(w, r, status, "%v", err)
		return
	}
	// The mean is scored in coefficient space, exactly as a sweep's mean
	// objective scores this config.
	trace := p.Predict(cfg)
	api.WriteJSON(w, r, http.StatusOK, wire.PredictResponse{
		Benchmark: req.Benchmark,
		Metric:    m.String(),
		Config:    wire.ToConfigJSON(cfg),
		Trace:     trace,
		Mean:      p.PredictMean(cfg),
		Worst:     mathx.Max(trace),
	})
}

// maxBatchConfigs bounds one batch /v1/predict request; with metrics capped
// at sim.NumMetrics, the result matrix stays small even at the body
// limit.
const maxBatchConfigs = 4096

// handleBatchPredict scores configs × metrics in one request on the
// worker pool. All metrics of the benchmark come from one registry entry
// (trained together on demand), so the whole batch costs one training at
// most.
func (s *Server) handleBatchPredict(w http.ResponseWriter, r *http.Request, req wire.PredictRequest) {
	if req.Metric != "" || req.Config != (wire.ConfigSpec{}) {
		api.WriteError(w, r, http.StatusBadRequest, "use either the single form (metric, config) or the batch form (metrics, configs), not both")
		return
	}
	if len(req.Metrics) == 0 {
		api.WriteError(w, r, http.StatusBadRequest, "batch predict needs a non-empty metrics list")
		return
	}
	if len(req.Configs) == 0 {
		api.WriteError(w, r, http.StatusBadRequest, "batch predict needs a non-empty configs list")
		return
	}
	// The body limit alone doesn't bound the configs × metrics product
	// (1 MiB of empty configs and repeated metric names expands
	// quadratically); cap both factors explicitly.
	if len(req.Configs) > maxBatchConfigs {
		api.WriteError(w, r, http.StatusBadRequest, "batch predict accepts at most %d configs (got %d)", maxBatchConfigs, len(req.Configs))
		return
	}
	if len(req.Metrics) > int(sim.NumMetrics) {
		api.WriteError(w, r, http.StatusBadRequest, "batch predict accepts at most %d metrics (got %d)", sim.NumMetrics, len(req.Metrics))
		return
	}
	// Dedupe on the parsed metric, not the raw name: parsing is
	// case-insensitive, so "CPI" and "cpi" are the same column.
	seenMetric := make(map[sim.Metric]bool, len(req.Metrics))
	for _, name := range req.Metrics {
		m, err := wire.ParseMetric(name)
		if err != nil {
			api.WriteError(w, r, http.StatusBadRequest, "%v", err)
			return
		}
		if seenMetric[m] {
			api.WriteError(w, r, http.StatusBadRequest, "metric %q listed twice", name)
			return
		}
		seenMetric[m] = true
	}
	// Configs are validated before models are resolved, so a malformed
	// batch cannot trigger an on-demand training run.
	configs := make([]space.Config, len(req.Configs))
	for i, cs := range req.Configs {
		cfg, err := cs.Apply(space.Baseline())
		if err != nil {
			api.WriteError(w, r, http.StatusBadRequest, "config %d: %v", i, err)
			return
		}
		configs[i] = cfg
	}
	preds := make([]*core.Predictor, len(req.Metrics))
	names := make([]string, len(req.Metrics))
	for i, name := range req.Metrics {
		p, m, status, err := s.model(r.Context(), req.Benchmark, name)
		if err != nil {
			api.WriteError(w, r, status, "metric %d: %v", i, err)
			return
		}
		preds[i], names[i] = p, m.String()
	}

	// Fan configs out over the worker pool; each worker scores one config
	// under every metric (predictors are immutable, so no locking).
	start := time.Now()
	results := make([][]wire.PredictResult, len(configs))
	err := explore.ParallelFor(r.Context(), len(configs), s.workers, func(i int) {
		row := make([]wire.PredictResult, len(preds))
		for j, p := range preds {
			trace := p.Predict(configs[i])
			row[j] = wire.PredictResult{Mean: p.PredictMean(configs[i]), Worst: mathx.Max(trace)}
			if req.IncludeTraces {
				row[j].Trace = trace
			}
		}
		results[i] = row
	})
	if err != nil {
		api.WriteError(w, r, http.StatusServiceUnavailable, "%v", err)
		return
	}
	wireConfigs := make([]wire.ConfigJSON, len(configs))
	for i, cfg := range configs {
		wireConfigs[i] = wire.ToConfigJSON(cfg)
	}
	api.WriteJSON(w, r, http.StatusOK, wire.BatchPredictResponse{
		Benchmark: req.Benchmark,
		Metrics:   names,
		Configs:   wireConfigs,
		Results:   results,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	})
}

// sweepModel resolves the model one objective of a sweep scores with:
// the registry's predictor, trained on demand. It is the model source of
// both this daemon's own jobs and its Local's shards.
func (s *Server) sweepModel(ctx context.Context, benchmark, metric string) (core.DynamicsModel, error) {
	p, err := s.store.LoadOrTrain(ctx, benchmark, mustMetric(metric))
	if err != nil {
		return nil, err
	}
	return p, nil
}

// mustMetric parses a metric name that already passed Validate; drift
// between the two parses must not pass silently as a zero metric.
func mustMetric(name string) sim.Metric {
	m, err := wire.ParseMetric(name)
	if err != nil {
		panic(fmt.Sprintf("dsed: metric %q passed Validate but failed to parse: %v", name, err))
	}
	return m
}

// handleSubmit starts a job of the given kind on this daemon's own
// models.
func (s *Server) handleSubmit(kind wire.JobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if spec, early, ok := decodeJob(w, r, kind, false); ok {
			s.submit(w, r, spec, len(early), s.runLocal(spec, early))
		}
	}
}

// runLocal is the job body on this daemon's own models, for either
// kind: resolve models (training on demand), resolve the space, and
// sweep it on the daemon's Local into the kind's collector, publishing
// its partial answer on a ticker while the engine runs (the collectors'
// snapshots are safe mid-sweep). A frontier job's incremental
// FrontierCollector equals the batch ParetoFrontier over the same
// designs (property-tested in internal/explore).
func (s *Server) runLocal(spec wire.JobSpec, early []space.Config) api.RunFunc {
	q := cluster.QueryOf(spec)
	return func(ctx context.Context, pub api.Publisher) (any, api.Update, error) {
		ctx, jobSpan := startJobSpan(s.tel, ctx, "job:"+string(spec.Kind), pub, spec.Benchmark)
		defer jobSpan.End()
		models, objectives, err := q.Resolve(ctx, s.tel.tracer, s.sweepModel)
		if err != nil {
			return nil, api.Update{}, err
		}
		designs, pinned, err := resolveSpace(ctx, s.tel.tracer, q.Space, early)
		if err != nil {
			return nil, api.Update{}, err
		}
		col := q.NewCollector()
		names := wire.ObjectiveNames(objectives)
		// The opening snapshot: a subscriber sees the job's shape (design
		// total, objectives) before the first results land.
		pub.Publish(api.Update{Designs: designs, Objectives: names})
		stopTicks := startSnapshotTicker(ctx, pub, func() api.Update {
			u := api.Update{Evaluated: col.Seen(), Designs: designs, Objectives: names}
			// The partial answer is built only for an attached stream;
			// pollers still see the counters advance.
			if pub.Streaming() {
				answer, feasible := cluster.Snapshot(col)
				u.Feasible, u.Candidates = feasible, wire.ToCandidates(answer)
			}
			return u
		})
		start := time.Now()
		err = s.local.Sweep(ctx, q, cluster.Shard{Count: designs, Designs: pinned}, models, objectives, col)
		stopTicks()
		if err != nil {
			return nil, api.Update{}, err
		}
		_, mergeSpan := s.tel.tracer.Start(ctx, "phase:merge")
		answer, feasible := cluster.Snapshot(col)
		final := api.Update{
			Evaluated:  col.Seen(),
			Designs:    designs,
			Feasible:   feasible,
			Objectives: names,
			Candidates: wire.ToCandidates(answer),
			ElapsedMS:  float64(time.Since(start).Microseconds()) / 1000,
		}
		mergeSpan.End()
		return jobResult(spec, final, false), final, nil
	}
}

// startJobSpan opens a job's root-on-this-node span and binds the job
// ID to its trace in the store, so GET /v1/jobs/{id}/trace can find it.
// When the submitting request carried a traceparent, the job span lands
// under it, in the client's trace. Shared by local and fleet job bodies.
func startJobSpan(tel *telemetry, ctx context.Context, name string, pub api.Publisher, benchmark string) (context.Context, *obs.ActiveSpan) {
	ctx, span := tel.tracer.Start(ctx, name)
	span.SetAttr("job_id", pub.JobID())
	span.SetAttr("benchmark", benchmark)
	if id := api.RequestID(ctx); id != "" {
		span.SetAttr("request_id", id)
	}
	tel.traces.Bind(pub.JobID(), span.Context().TraceID)
	return ctx, span
}

// resolveSpace resolves a job's space, after its models, to its design
// count and, for a pinned list, its designs. Lone, fleet and adopted
// jobs take this one path, so an adopter rebuilds the dead owner's list
// exactly. An unsampled named space, windowed or whole, stays a count:
// the sweep workers (or a fleet's window shards) enumerate it, and it is
// never materialised. An explicit list is early itself, and a sample is
// drawn under a "phase:encode" span, stopping with ctx's error if the
// job is cancelled.
func resolveSpace(ctx context.Context, tracer *obs.Tracer, sp wire.SpaceSpec, early []space.Config) (int, []space.Config, error) {
	if w, ok := sp.FactorialWindow(); ok {
		return w.Count, nil, nil
	}
	ctx, span := tracer.Start(ctx, "phase:encode")
	defer span.End()
	designs, err := sp.ResolveLate(ctx, early)
	if err != nil {
		span.SetAttr("error", err.Error())
		return 0, nil, err
	}
	span.SetAttr("designs", strconv.Itoa(len(designs)))
	return len(designs), designs, nil
}

// chunkDone is the explore engine's per-chunk observer: pre-registered
// instruments, no allocation, safe at evaluation-chunk rate. chunkN
// counts the designs a chunk covered and scored those it scored, which
// a pruning window sweep keeps below them.
func (s *Server) chunkDone(covered, scored int, elapsed time.Duration) {
	s.chunkN.Observe(float64(covered))
	s.scored.Add(int64(scored))
	s.chunkMS.Observe(float64(elapsed.Microseconds()) / 1000)
}

// startSnapshotTicker publishes snapshots on the stream cadence until
// the returned stop runs (or ctx dies). Snapshot construction happens on
// the ticker goroutine, off the evaluation hot path.
func startSnapshotTicker(ctx context.Context, pub api.Publisher, snapshot func() api.Update) (stop func()) {
	tickCtx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(streamInterval)
		defer t.Stop()
		for {
			select {
			case <-tickCtx.Done():
				return
			case <-t.C:
				pub.Publish(snapshot())
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}
