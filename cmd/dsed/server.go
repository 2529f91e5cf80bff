package main

import (
	"context"
	"errors"
	"log"
	"maps"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Server is the serving layer over the model registry: it owns no models
// itself, translating HTTP queries into registry lookups (training
// missing benchmarks on demand) and exploration-engine sweeps.
// Exploration runs as async /v1 jobs.
type Server struct {
	store *registry.Store
	// workers bounds query-evaluation parallelism (0 = GOMAXPROCS).
	workers int
	started time.Time
	stats   *httpStats
	// reqLog receives one structured line per request; nil silences it.
	reqLog *log.Logger
	tel    *telemetry
	// chunk instruments feed the explore engine's allocation-free
	// ChunkDone hook on every job sweep.
	chunkMS *obs.Histogram
	chunkN  *obs.Histogram
	scored  *obs.Counter
	// local is the in-process evaluator every sweep this daemon runs
	// goes through: its own jobs' and, in peer mode, its shards (see
	// newSelfWorker). Its Stall is -straggle-per-design.
	local *cluster.Local
	jobAPI
}

// NewServer wraps a registry store in the HTTP serving layer. ctx is
// the daemon's lifetime: when it dies (shutdown signal), every running
// job is cancelled and settles with a final "canceled" update. tel is
// the daemon's observability plane (nil builds a private one, for
// tests).
func NewServer(ctx context.Context, store *registry.Store, workers int, reqLog *log.Logger, tel *telemetry) *Server {
	if tel == nil {
		tel = newTelemetry("worker")
	}
	s := &Server{
		store:   store,
		workers: workers,
		started: time.Now(),
		stats:   newHTTPStats(tel.reg),
		reqLog:  reqLog,
		tel:     tel,
		chunkMS: tel.reg.Histogram("dsed_explore_chunk_ms",
			"Evaluation chunk duration on the sweep hot path.", obs.LatencyMSBuckets),
		chunkN: tel.reg.Histogram("dsed_explore_chunk_designs",
			"Designs per evaluation chunk.", obs.SizeBuckets),
		scored: tel.reg.Counter("dsed_explore_designs_scored_total",
			"Designs the sweep hot path scored; below the chunks' designs when a window sweep pruned dominated ones."),
		jobAPI: jobAPI{
			jobs: api.NewManager(api.ManagerOptions{
				ErrorStatus: serverStatus,
				BaseContext: ctx,
				Obs:         tel.reg,
			}),
			tel: tel,
		},
	}
	s.local = newSelfWorker(s, "local")
	return s
}

// newSelfWorker builds the cluster.Local a daemon runs every sweep on,
// over its own registry: its own jobs, and in peer mode the shards it
// places on itself, with no HTTP round trip, and the shards other peers
// send its /v1/shards. Shard models resolve through Server.sweepModel,
// the registry's deterministic verdicts become WorkerRejections, and
// phase spans and chunk histograms are recorded as a daemon's own jobs
// record them.
func newSelfWorker(srv *Server, name string) *cluster.Local {
	l := cluster.NewLocal(name, func(ctx context.Context, benchmark, metric string) (core.DynamicsModel, error) {
		m, err := srv.sweepModel(ctx, benchmark, metric)
		return m, selfVerdict(name, err)
	})
	l.Workers = srv.workers
	l.Tracer = srv.tel.tracer
	l.ChunkDone = srv.chunkDone
	l.WarmFunc = func(ctx context.Context, benchmarks []string) (int, error) {
		n, _, err := srv.warm(ctx, benchmarks)
		return n, selfVerdict(name, err)
	}
	return l
}

// selfVerdict classifies a registry error the way the HTTP transport
// classifies the 4xx the same error becomes on a remote peer: a
// deterministic verdict on the request is a WorkerRejection, so it
// aborts the job instead of booking a failure and retrying the shard
// on every peer.
func selfVerdict(name string, err error) error {
	if st := registryStatus(err); err != nil && st >= 400 && st < 500 {
		return &cluster.WorkerRejection{Worker: name, Status: st, Msg: err.Error()}
	}
	return err
}

// Handler serves a single daemon: the /v1 route table as is.
func (s *Server) Handler() http.Handler { return s.routes(nil) }

// routes builds the daemon's one /v1 route table behind the request-ID
// / logging / metrics middleware. A peer passes the handlers it
// overrides and the routes it adds, keyed by pattern; nil serves a
// single daemon. Every other path answers the structured 404.
func (s *Server) routes(peer map[string]http.HandlerFunc) http.Handler {
	table := map[string]http.HandlerFunc{
		"/v1/healthz":          negotiated(s.handleHealthz),
		"/v1/benchmarks":       negotiated(s.handleBenchmarks),
		"/v1/metricsz":         s.tel.handleMetricsz,
		"/v1/predict":          negotiated(s.handlePredict),
		"/v1/warm":             negotiated(s.handleWarm),
		"/v1/sweeps":           negotiated(s.handleSubmit(wire.JobSweep)),
		"/v1/pareto":           negotiated(s.handleSubmit(wire.JobPareto)),
		"/v1/jobs":             negotiated(s.handleJobs),
		"/v1/jobs/{id}":        negotiated(s.handleJob),
		"/v1/jobs/{id}/stream": s.handleJobStream,
		"/v1/jobs/{id}/trace":  negotiated(s.tel.handleJobTrace),
	}
	maps.Copy(table, peer)
	mux := http.NewServeMux()
	known := make(map[string]bool, len(table))
	for pattern, h := range table {
		mux.HandleFunc(pattern, h)
		known[pattern] = true
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		api.WriteError(w, r, http.StatusNotFound, "no such route %q", r.URL.Path)
	})
	return instrument(mux, s.stats, known, s.reqLog)
}

// model resolves one (benchmark, metric) pair, training the benchmark on
// demand when the registry allows it. The returned status distinguishes
// malformed requests (400), unknown benchmarks/metrics (404), and
// training failures (500).
func (s *Server) model(ctx context.Context, benchmark, metric string) (*core.Predictor, sim.Metric, int, error) {
	m, err := wire.ParseMetric(metric)
	if err != nil {
		return nil, 0, http.StatusBadRequest, err
	}
	p, err := s.store.LoadOrTrain(ctx, benchmark, m)
	if err != nil {
		return nil, 0, registryStatus(err), err
	}
	return p, m, http.StatusOK, nil
}

// serverStatus maps job errors onto HTTP statuses for every job this
// server's table can hold: registry faults for local sweeps, plus a
// worker's forwarded deterministic verdict for the fleet-scope jobs a
// symmetric peer coordinates from the same table.
func serverStatus(err error) int {
	var rejected *cluster.WorkerRejection
	if errors.As(err, &rejected) {
		return rejected.Status
	}
	return registryStatus(err)
}

// registryStatus maps registry errors onto HTTP statuses.
func registryStatus(err error) int {
	switch {
	case errors.Is(err, registry.ErrUnknownBenchmark), errors.Is(err, registry.ErrUntrainedMetric):
		return http.StatusNotFound
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client went away mid-training; nobody reads this status,
		// but the metrics should not count it as a server fault.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}
