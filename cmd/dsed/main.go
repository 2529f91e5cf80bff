// Command dsed is the design-space-exploration daemon: it serves
// model-driven queries over the microarchitecture design space as JSON
// over HTTP, growing its inventory of wavelet-RBF predictors under load.
//
// Models live in an internal/registry store. Benchmarks named by
// -benchmarks are trained (or warm-started from -model-dir) before the
// listener opens; any other known benchmark is trained on demand the
// first time a request names it, with concurrent requests deduplicated
// into one training run. With -model-dir set, every trained model is
// persisted with a provenance manifest, so a restarted daemon answers its
// first query in milliseconds instead of re-simulating.
//
// The serving surface is the versioned /v1 API; every path outside it
// answers 404 (the unversioned deprecation shims are gone). Synchronous
// endpoints:
//
//	GET  /v1/healthz     liveness plus the model inventory (and, on a
//	                     peer, the gossip view: alive_peers, peers)
//	GET  /v1/benchmarks  trained and trainable-on-demand benchmarks
//	GET  /v1/metricsz    every series in Prometheus text format (per-endpoint
//	                     request/latency/status counters among them)
//	POST /v1/predict     predicted dynamics: one (metric, config), or a
//	                     batch of configs × metrics in one request
//	POST /v1/warm        pre-train (or warm-start) a benchmark list
//
// Exploration is asynchronous — a job, not an RPC:
//
//	POST   /v1/sweeps                submit a top-K selection job → 202 + job ID
//	POST   /v1/pareto                submit a Pareto-frontier job → 202 + job ID
//	GET    /v1/jobs                  the job table
//	GET    /v1/jobs/{id}             status/progress (+ result once done)
//	GET    /v1/jobs/{id}/stream      NDJSON partial results until the final update
//	GET    /v1/jobs/{id}/trace       the job's assembled span tree
//	DELETE /v1/jobs/{id}             cancel
//
// Every error is the structured model {code, message, retryable,
// request_id}; X-Request-ID is honoured when supplied and echoed always.
// Prefer pkg/dsedclient over hand-rolled JSON.
//
// A fleet is a -peers list, and a lone dsed is its degenerate case. With
// -peers every node is both a worker and a coordinator. Membership
// converges by anti-entropy gossip (POST /v1/gossip) every -heartbeat,
// and gossip is the only liveness authority: a peer suspected after two
// silent rounds leaves the scheduling fleet. Any peer accepts POST
// /v1/sweeps or /v1/pareto and coordinates that job across the alive
// fleet: it partitions the job into shards (-shard-size, or adaptively
// toward -target-shard-ms), places each on the free peer holding the
// benchmark's models with the fewest shards in flight, runs the shards
// it places on itself in process and sends each other one as a single
// POST /v1/shards, hedges stragglers (-hedge-factor), and
// merges the partial answers (see internal/cluster) — a job's stream
// publishes the merged partial after every shard. Each running job's
// spec is replicated to -replicate peers (POST /v1/jobs/replicate) as it
// starts and again every -heartbeat, so when the owning node dies the
// first alive replica adopts the job under its original ID and re-runs
// it from the spec to an identical answer. Job routes on any peer follow
// the job:
// 307-redirecting to the owner (or its adopter) when it lives elsewhere.
// pkg/dsedclient accepts a comma-separated endpoint list and fails over
// between peers transparently, streams included.
//
// Example (see doc.go for the full submit → poll → stream → cancel tour):
//
//	dsed -addr :8090 -benchmarks gcc,mcf -metrics CPI,Power -train 40 -model-dir ./models
//	curl -s localhost:8090/v1/predict -d '{"benchmark":"gcc","metric":"CPI","config":{"fetch_width":4}}'
//	job=$(curl -s localhost:8090/v1/pareto -d '{"benchmark":"gcc","objectives":[{"metric":"CPI"},{"metric":"Power"}],"space":"test"}' | sed 's/.*"id":"\([^"]*\)".*/\1/')
//	curl -sN localhost:8090/v1/jobs/$job/stream
//	curl -s localhost:8090/v1/jobs/$job
//	curl -s -X DELETE localhost:8090/v1/jobs/$job
//
// A three-peer fleet:
//
//	dsed -addr 127.0.0.1:9401 -peers 127.0.0.1:9402,127.0.0.1:9403 -replicate 2 &
//	dsed -addr 127.0.0.1:9402 -peers 127.0.0.1:9401,127.0.0.1:9403 -replicate 2 &
//	dsed -addr 127.0.0.1:9403 -peers 127.0.0.1:9401,127.0.0.1:9402 -replicate 2 &
//	curl -s 127.0.0.1:9401/v1/healthz    # "alive_peers":3 once converged
//	dse -daemon 127.0.0.1:9401,127.0.0.1:9402,127.0.0.1:9403 -exp pareto -benchmarks gcc
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/workload"
)

func main() {
	var (
		addr       = flag.String("addr", ":8090", "listen address")
		benchmarks = flag.String("benchmarks", "gcc,mcf", "comma-separated benchmarks to train before serving (empty = on-demand only)")
		metrics    = flag.String("metrics", "CPI,Power,AVF", "comma-separated metrics to train (CPI,Power,AVF,IQ_AVF)")
		train      = flag.Int("train", 40, "training design points per benchmark")
		candidates = flag.Int("candidates", 10, "LHS candidate matrices scored by discrepancy")
		samples    = flag.Int("samples", 64, "trace samples per run (power of two)")
		instrs     = flag.Uint64("instrs", 65536, "instructions per training run")
		k          = flag.Int("k", 16, "wavelet coefficients per model")
		trainSeed  = flag.Uint64("train-seed", 1, "training-design sampling seed")
		parallel   = flag.Int("parallel", 0, "simulation/query parallelism (0 = GOMAXPROCS)")
		modelDir   = flag.String("model-dir", "", "persist trained models here and warm-start from it on boot")
		quiet      = flag.Bool("quiet", false, "suppress per-request log lines")
		shardSize  = flag.Int("shard-size", 0, "designs per shard of the fleet jobs this peer owns (0 = default; first-shard size when -target-shard-ms is set)")
		targetMS   = flag.Int("target-shard-ms", 0, "adaptive shard sizing: carve each peer's shards of an owned job to take about this long (0 = fixed -shard-size)")
		heartbeat  = flag.Duration("heartbeat", 5*time.Second, "gossip round interval with -peers: a peer silent for 2 rounds is suspected and leaves the scheduling fleet, for 3 is dead and its jobs adopted")
		advertise  = flag.String("advertise", "", "address this peer gossips and names its spans with (default -addr; set it when -addr binds a wildcard other peers cannot dial)")
		debugAddr  = flag.String("debug-addr", "", "optional second listener serving net/http/pprof (e.g. localhost:6060); empty disables profiling")
		peerList   = flag.String("peers", "", "comma-separated peer addresses (host:port); run as a symmetric peer: a full worker that also coordinates fleet-scope jobs, with membership by gossip and job survival by replication")
		replicate  = flag.Int("replicate", 1, "with -peers: push each running job's spec to this many peers, any of which can adopt and re-run the job if this node dies")
		hedgeF     = flag.Float64("hedge-factor", 3, "straggler hedging for the fleet jobs this peer owns: re-dispatch a shard when its elapsed time exceeds this multiple of its expected duration; 0 disables hedging")
		straggle   = flag.Duration("straggle-per-design", 0, "fault injection: after each evaluation chunk of every sweep, stall this long per design the chunk covered, making this daemon a deliberate straggler for hedging tests; 0 disables")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "dsed: ", log.LstdFlags)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reqLog := logger
	if *quiet {
		reqLog = nil
	}

	if *debugAddr != "" {
		startDebugServer(ctx, *debugAddr, logger)
	}

	// The telemetry node name is how this daemon's spans read in an
	// assembled cross-node trace — the advertised address when one
	// exists, the listen address otherwise.
	node := *advertise
	if node == "" {
		node = *addr
	}
	tel := newTelemetry(node)

	// Parse and dedupe the metric list: the store keys models by unique
	// (benchmark, metric), so duplicates here would skew every
	// inventory count downstream.
	var metricSet []sim.Metric
	seenMetric := make(map[sim.Metric]bool)
	for _, name := range splitList(*metrics) {
		m, err := wire.ParseMetric(name)
		if err != nil {
			logger.Fatal(err)
		}
		if !seenMetric[m] {
			seenMetric[m] = true
			metricSet = append(metricSet, m)
		}
	}
	if len(metricSet) == 0 {
		logger.Fatal("no metrics to serve")
	}

	// Zero flag values fall back to the historical defaults rather than
	// producing an empty training campaign.
	if *train <= 0 {
		*train = 40
	}
	if *candidates <= 0 {
		*candidates = 10
	}
	if *trainSeed == 0 {
		*trainSeed = 1
	}
	spec := registry.Spec{
		Train:        *train,
		Candidates:   *candidates,
		Seed:         *trainSeed,
		Samples:      *samples,
		Instructions: *instrs,
		Coefficients: *k,
	}
	trainer := &simTrainer{Spec: spec, Workers: *parallel, Log: logger}
	store, err := registry.Open(registry.Config{
		Trainer:   trainer,
		Metrics:   metricSet,
		Trainable: workload.Names(),
		Dir:       *modelDir,
		Spec:      spec,
		Context:   ctx,
		Log:       logger,
		Obs:       tel.reg,
	})
	if err != nil {
		logger.Fatal(err)
	}

	// Pre-train the configured benchmarks; warm-started ones are free.
	// Every metric is probed so a partially warm-started benchmark (say a
	// corrupt Power model beside a valid CPI one) still pays its training
	// before the listener opens, not on the first unlucky request.
	start := time.Now()
	for _, b := range splitList(*benchmarks) {
		for _, m := range metricSet {
			if _, err := store.LoadOrTrain(ctx, b, m); err != nil {
				logger.Fatal(err)
			}
		}
	}
	logger.Printf("registry ready: %d models (%d trained this boot) in %v",
		len(store.Entries()), store.Trainings(), time.Since(start).Round(time.Millisecond))

	srv := NewServer(ctx, store, *parallel, reqLog, tel)
	if *straggle > 0 {
		srv.local.Stall = *straggle
		logger.Printf("fault injection: straggling %v per design on sweeps", *straggle)
	}

	// With peers configured, run the leaderless control plane: this node
	// is a worker (POST /v1/shards evaluates here) and a coordinator
	// (its jobs shard across whoever gossip says is alive), with running
	// jobs replicated so a peer adopts them if this node dies.
	if peers := splitList(*peerList); len(peers) > 0 {
		ps := newPeerServer(srv, node, peers, peerOptions{
			shardSize:     *shardSize,
			targetShardMS: *targetMS,
			heartbeat:     *heartbeat,
			hedgeFactor:   *hedgeF,
			replicate:     *replicate,
		}, logger)
		go ps.loop(ctx)
		logger.Printf("peer mode: gossiping with %s every %v (replication factor %d)",
			strings.Join(peers, ", "), *heartbeat, *replicate)
		serve(ctx, *addr, ps.Handler(), logger)
		return
	}

	serve(ctx, *addr, srv.Handler(), logger)
}

// serve runs one HTTP listener until the signal context drains it.
func serve(ctx context.Context, addr string, handler http.Handler, logger *log.Logger) {
	httpSrv := &http.Server{Addr: addr, Handler: handler}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		logger.Print("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Printf("shutdown: %v", err)
		}
	}()
	logger.Printf("serving on %s", addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Fatal(err)
	}
	<-drained
}

// splitList splits a comma-separated flag, dropping empty elements. An
// empty flag yields nil (the daemon then trains nothing up front and
// relies on warm starts and on-demand training).
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
