// Package repro reproduces Cho, Zhang & Li, "Informed Microarchitecture
// Design Space Exploration using Workload Dynamics" (MICRO 2007): wavelet
// neural networks that forecast the time-varying CPI, power and AVF
// behaviour of workloads across a nine-parameter superscalar design space,
// together with the full simulation substrate the paper's evaluation needs
// (cycle-level out-of-order core, Wattch-style power model, ACE-based AVF
// accounting, synthetic SPEC-2000-like workloads, and the Section 5 dynamic
// vulnerability management case study).
//
// # Module layout
//
// The module (named repro, defined by go.mod at the repository root) is
// organised in three tiers:
//
//   - Simulation substrate — internal/cpu, internal/cache, internal/bpred,
//     internal/power, internal/avf, internal/dvm, internal/workload, and
//     internal/sim, which binds them into one Run per (config, benchmark)
//     and a pooled, context-cancellable SweepContext for campaigns.
//   - Modelling — internal/wavelet, internal/rbf, internal/regtree,
//     internal/mathx, and internal/core, whose Predictor maps a
//     normalised configuration vector to a forecast dynamics trace.
//   - Exploration — internal/space (the Table 1/2 design space),
//     internal/explore (the exploration engine below),
//     internal/registry (the trained-model store behind the daemon),
//     internal/wire (the daemon's shared JSON wire format),
//     internal/api (the versioned /v1 route map, structured errors, and
//     the async job subsystem), internal/cluster (the distributed sweep
//     plane below), internal/gossip (the leaderless membership table
//     behind peer mode), and internal/experiments (the paper's tables and
//     figures), driven by cmd/dse, cmd/dsed, cmd/simtrace, cmd/wavedemo,
//     and examples/ — all speaking to the daemon through one typed
//     client, pkg/dsedclient.
//
// # Exploration engine
//
// internal/explore turns trained predictors into answers about the design
// space. Candidates are evaluated on a bounded worker pool with
// context.Context cancellation and deterministic, design-ordered results.
// explore.SweepContext materialises every candidate and extracts the
// Pareto frontier with sorted-sweep / divide-and-conquer algorithms
// (O(n log n) for the common one- and two-objective cases); for larger
// spaces, explore.SweepStream pushes candidates through streaming
// Collectors — TopK for constrained best-of selection and
// FrontierCollector for incremental frontiers — so a million-design sweep
// retains only the answer. internal/sim gained the same shape:
// sim.SweepContext runs simulations on a fixed pool and aborts the sweep
// on the first error or cancellation.
//
// # The model registry
//
// internal/registry treats the trained-model inventory as a first-class
// subsystem: a concurrency-safe store keyed by (benchmark, metric) with
// Get/LoadOrTrain semantics. A request for an untrained benchmark trains
// it on demand through an injectable Trainer, and singleflight
// deduplication collapses N concurrent requests into exactly one
// training run (all metrics of a benchmark are fitted from one
// simulation sweep). With a model directory configured, trained models
// are persisted through core.Save next to a versioned JSON manifest
// recording their provenance (train options, seed, trace length), so a
// restarted daemon warm-starts in milliseconds instead of re-simulating;
// corrupt or provenance-mismatched files are skipped and retrained on
// first use.
//
// # The dsed daemon and the /v1 job API
//
// cmd/dsed is the serving surface over the registry and the engine: it
// pre-trains (or warm-starts) the benchmarks named on the command line,
// grows its model inventory on demand under load, and answers concurrent
// JSON queries behind request-ID/logging/metrics middleware. The surface
// is the versioned /v1 API; every /v1 error is the structured model
// {code, message, retryable, request_id} and X-Request-ID is honoured
// when supplied, minted otherwise, echoed always.
//
// Synchronous queries:
//
//	go run ./cmd/dsed -addr :8090 -benchmarks gcc,mcf -metrics CPI,Power -model-dir ./models
//	curl -s localhost:8090/v1/healthz
//	curl -s localhost:8090/v1/benchmarks
//	curl -s localhost:8090/v1/predict -d '{"benchmark":"gcc","metric":"CPI","config":{"fetch_width":4}}'
//	curl -s localhost:8090/v1/predict -d '{"benchmark":"gcc","metrics":["CPI","Power"],"configs":[{"fetch_width":2},{"fetch_width":8}]}'
//	curl -s localhost:8090/v1/warm -d '{"benchmarks":["twolf","gap"]}'
//
// Exploration is long-running by nature — predictor-driven sweeps over
// millions of design points — so it is a job, not an RPC. Submission
// answers 202 with a job ID immediately; progress streams as NDJSON,
// one cumulative snapshot per line, ending with the final update. A
// lone daemon's job publishes designs evaluated and its partial
// frontier / feasible top-K every 100 ms. A fleet job publishes its
// counters and per-peer attribution at every merged shard, and attaches
// the merged partial answer at the same 100 ms cadence: to the first
// merge after a stream attaches, then to at most one merge per
// interval, so a line without candidates leaves the last partial
// standing:
//
//	job=$(curl -s localhost:8090/v1/pareto -d '{"benchmark":"gcc","objectives":[{"metric":"CPI"},{"metric":"Power"}],"space":"test"}' | sed 's/.*"id":"\([^"]*\)".*/\1/')
//	curl -sN localhost:8090/v1/jobs/$job/stream      # NDJSON partial frontiers (?updates=final for just the answer)
//	curl -s  localhost:8090/v1/jobs/$job             # status + result once done
//	curl -s  -X DELETE localhost:8090/v1/jobs/$job   # cancel a running job; release a finished one
//	curl -s localhost:8090/v1/sweeps -d '{"benchmark":"gcc","objectives":[{"metric":"CPI"},{"metric":"Power","kind":"worst"}],"space":"train","top_k":5,"constraints":[{"objective":1,"max":60}]}'
//
// Because every streamed update is cumulative, a client that
// disconnects re-opens the stream at ?from_seq= (the last seq it saw)
// and misses nothing — pkg/dsedclient's iterator does this
// automatically, and its Run opens at ?from_seq=0, so its callback sees
// the retained partials even of a job that settled before it attached.
//
// The unversioned routes (/predict, /sweep, /pareto, /warm, /healthz,
// /benchmarks, /metrics, /cluster/sweep, /cluster/pareto, /register,
// /heartbeat) and the registration plane (/v1/register, /v1/heartbeat)
// were removed after their deprecation period: every path outside /v1
// answers the structured 404, as does the JSON /v1/metrics, whose
// counters /v1/metricsz serves. A blocking sweep is a submit followed by
// the stream's final update (dsedclient's Run).
//
// The batch /v1/predict form scores many configs under many metrics in
// one request on the worker pool; /v1/benchmarks lists what is trained
// versus trainable on demand; /v1/metricsz exposes per-endpoint request,
// status and latency counters among its series; POST /v1/warm pre-trains
// a benchmark list
// before the first sweep needs it. POST bodies are bounded (413 beyond
// 1 MiB) and every endpoint enforces its method.
//
// # The Go client
//
// pkg/dsedclient is the one way this repository speaks to a daemon: the
// cluster transport, all five examples, cmd/dse's remote mode, and a
// peer's gossip and replication pushes are built on it. It offers typed calls
// with context cancellation, automatic retry with backoff on errors the
// daemon marks retryable, submit/poll/cancel for jobs, a streaming
// iterator that resumes across disconnects, and one blocking
// convenience, Run, that bundles submit → stream → final for a job of
// either kind and returns the final update with the job's ID:
//
//	c := dsedclient.New("localhost:8090")
//	final, jobID, err := c.Run(ctx, wire.ParetoRequest{...}, func(u api.Update) {
//		log.Printf("partial: %d/%d designs, %d frontier points", u.Evaluated, u.Designs, len(u.Candidates))
//	})
//
// # The cluster plane
//
// internal/cluster scales the daemon horizontally. Both reductions the
// daemon serves — Pareto frontiers and constrained top-K — are
// associative, so a sweep distributes losslessly: a job's owner
// range-partitions the design list into shards, places each on a peer
// by one ranking rule (see "Scheduling"), dispatches shards
// concurrently with per-shard retry onto the rest of the fleet when a
// peer dies mid-sweep, and folds the partial
// answers into the job kind's mergeable collector (explore.TopK or
// explore.FrontierCollector). The job kind is a value (wire.JobKind,
// "sweep" or "pareto") carried through every layer: one function,
// cluster.Query.NewCollector, maps it to its collector, and everything
// above — Coordinator.Run (fresh and resumed jobs alike), the one-method
// shard link, the daemon's one local and one fleet job body, and
// dsedclient.Run — is kind-agnostic. A partial whose candidates do not
// carry one score per objective, or that answers more candidates than
// its shard holds, is a worker fault and re-dispatches like a failed
// attempt. The shard link is a Transport with three methods (Name, Warm,
// Evaluate); two implement it, interchangeable answer for answer: an
// in-process Local, the daemon's one evaluator — a lone daemon's jobs
// sweep through it (Local.Sweep), and a peer evaluates its shards on it
// (it also gives the cluster package deterministic -race tests) — and
// HTTP, which speaks the ordinary dsed wire format.
//
// A fleet is a -peers list, and a lone dsed is its degenerate case:
// every peer is a full worker that also coordinates the jobs submitted
// to it, membership is leaderless, and a running job survives the death
// of the node coordinating it:
//
//	dsed -addr 127.0.0.1:9401 -peers 127.0.0.1:9402,127.0.0.1:9403 -replicate 2 ... &
//	dsed -addr 127.0.0.1:9402 -peers 127.0.0.1:9401,127.0.0.1:9403 -replicate 2 ... &
//	dsed -addr 127.0.0.1:9403 -peers 127.0.0.1:9401,127.0.0.1:9402 -replicate 2 ... &
//	curl -s 127.0.0.1:9401/v1/healthz    # "alive_peers":3 once gossip converged
//	curl -s 127.0.0.1:9401/v1/warm -d '{"benchmarks":["gcc"]}'
//	go run ./cmd/dse -daemon 127.0.0.1:9401,127.0.0.1:9402,127.0.0.1:9403 -exp pareto -benchmarks gcc -sample 2000
//
// A fleet job's stream publishes the merged partial frontier after
// every shard, so partial results flow peer → owner → client while the
// fleet sweeps. Each remote shard is one synchronous peer-only
// POST /v1/shards call that answers the shard's partial in one body (see
// the fleet section below). A shard of a named, unsampled space travels
// as a window on it —
// {"space":"train","offset":o,"count":n}, a few dozen bytes the peer
// resolves to exactly the designs the owner carved
// (space.Levels.FactorialRange) — while shards of explicit or sampled
// jobs still pin their designs, since those lists have no positional
// name. /v1/warm trains each benchmark on every live peer ahead of the
// first query.
//
// # Fleet operations
//
// Membership is anti-entropy gossip (internal/gossip): each peer keeps a
// versioned member table — per-member incarnation number, beat counter,
// alive/suspect/dead state, and the capacity and model-inventory payload
// the scheduler consumes — and each -heartbeat interval
// exchanges full-table digests with one random peer over POST
// /v1/gossip. Both directions of an exchange are validated entry by
// entry (a host:port address, a known state, bounded counters, a bounded
// inventory with sane names and a non-negative capacity) before
// anything merges: a malformed answer is a failed round. Merge order is
// (incarnation, state badness, beat), so a false suspicion loses to the
// accused peer's next self-refutation (which bumps its own incarnation),
// and a death verdict sticks. A peer unseen for two intervals turns
// suspect, for three turns dead. The table's alive entries are the
// scheduling fleet itself: the coordinator reads them at every
// placement, so the scheduler and the gossip layer cannot disagree
// about who is dispatchable. A suspect peer leaves the fleet and an
// announced one joins it the moment its entry changes, and a departed
// peer's in-flight shards re-dispatch to the survivors. Drain a peer by
// stopping it.
// There is no leader, no quorum, no election — any subset of live peers
// keeps accepting and finishing work.
//
// Any peer accepts POST /v1/sweeps (and /v1/pareto, /v1/warm) and
// coordinates that job over the fleet. Every shard runs on a peer's own
// cluster.Local over its registry: the shards the owner places on
// itself in process, and each remote shard as one synchronous
// POST /v1/shards?kind= (a peer-only route) that the receiving peer runs
// on the same Local and answers in one body, with the shard's partial
// and only its own spans. A shard is no job anywhere: no job-table
// entry, no stream, no DELETE; cancelling the call (a lost hedge, a
// cancelled job) stops the peer's work. A shard of a named,
// unsampled space is an [offset, count) window on it (composed with the
// job's own window), and a shard of an explicit or sampled job pins its
// designs. A frontier job's window shard also carries an incumbent: at
// most 16 score vectors of the owner's merged frontier as of the last
// merge, evenly spaced along the first objective with both extremes
// kept. The shard's sweep seeds its prune test with them and its answer
// leaves out what they beat in every objective, so the fleet's shards
// prune nearly as one window does. Each vector is a real design's
// scores that the final merge keeps or dominates, so final answers,
// evaluated counts and shard counts stay byte-identical; only partial
// snapshots differ. Top-K and pinned shards carry none. While a
// fleet-scope job runs, its owner replicates the job's
// spec to -replicate peers: once as the job starts and again every
// -heartbeat, with its trace context and a sequence floor, never its
// progress. Every answer is a deterministic function of the spec
// and the models, so the spec is the whole recoverable job, and a push
// stays the same size however far the job has got.
//
// When gossip declares an owner dead, the first live replica in the
// job's (rendezvous-hashed) replica list adopts: it restarts the job
// under the same job ID and re-runs it from scratch, numbering its
// updates past any seq the owner could have published (the owner's
// floor plus the design count plus two), so a failed-over stream's
// sequence keeps rising. The adopted job's progress counters start
// over; its final answer is byte-identical to the uninterrupted run,
// with every design evaluated (property-tested for owners killed after
// every merge count in internal/cluster, and end to end in cmd/dsed).
// Non-owners answer /v1/jobs/{id}
// for replicated jobs with a 307 to the owner (or the adopter, once the
// owner is dead), so a client can ask any peer about any job. The
// adopter splices the owner's replicated spans into its own trace tree
// under an "adopt" span, so GET /v1/jobs/{id}/trace still returns one
// connected tree spanning both owners' lifetimes.
//
// pkg/dsedclient closes the loop: New accepts a comma-separated
// endpoint list, rotates to the next endpoint on dial failure, replays
// Stream reconnects with ?from_seq= (the server answers with the delta
// the reader missed, or the latest cumulative snapshot if that fell off
// the 64-update history ring), and tolerates the brief 404/503 window
// between an owner's death and the adoption. A streaming client
// watching a sweep when its job's owner dies sees at most a pause.
// Read the fleet from any peer: /v1/healthz lists the gossip view
// (alive_peers, and per peer its state, incarnation, beat and advertised
// capacity and inventory). The owner's fault taxonomy per peer is in
// /v1/metricsz: dsed_cluster_worker_failures_total (transport faults and
// timeouts — a sick peer), dsed_cluster_worker_rejections_total (its
// deterministic 4xx verdicts on bad requests — not its fault) and
// dsed_cluster_shard_hedges_total, so an operator can tell a dead
// machine from a bad client from a slow one.
// Observability: dsed_gossip_rounds_total{result},
// dsed_gossip_members{state}, dsed_gossip_members_divergence (how far
// this peer's view lags the freshest beat it has seen),
// dsed_gossip_refutations_total, and dsed_jobs_adopted_total{reason}.
//
// # Scheduling
//
// Shard placement is one rule (internal/cluster's rank), the same on
// every peer, over a snapshot of the live fleet the owner already keeps:
// per-peer shards in flight, advertised capacity and the gossiped
// trained-model inventory. Each shard goes to the first peer in this
// order:
//
//  1. tier: free peers (in flight below capacity) that advertise the
//     benchmark's models, then other free peers, then saturated peers;
//  2. fewest shards in flight;
//  3. ties dealt round-robin over name order, rotated by a counter that
//     advances with every placement, so equal peers share consecutive
//     shards.
//
// Saturated peers keep in-flight-then-name order, so a sweep still moves
// when every slot is taken. Model holders come first because a warmed
// benchmark then never trains on demand mid-sweep; fewest-in-flight
// keeps a slow holder from collecting shards while a free one waits. A
// peer's own shards finish in process, so on a fleet where every member
// has capacity 1 (dsed -parallel 1) free peers always have nothing in
// flight and the rule is pure model-affinity dealt round-robin. Load the
// owner did not create (jobs other peers own) is invisible to the rule;
// hedging covers a peer that turns slow.
//
// Against stragglers the owner speculates (hedged dispatch): when
// a shard's elapsed time exceeds -hedge-factor times its expected
// duration — the worker's per-design EWMA, or the fleet median before
// the worker has one, times the shard size — the shard is dispatched a
// second time to the scheduler's next-ranked worker and the first answer
// wins. -hedge-factor 0 is the disable switch; the trigger is floored at
// 25ms, and a cold fleet with no latency observations never hedges (its
// first shards may be training models on demand). Outcomes are counted
// in dsed_cluster_shard_hedges_total{result=issued|won|wasted}, and
// every speculative attempt carries a
// hedge=true dispatch span in the job's trace tree.
//
// Hedging is safe because exactly one partial merges per shard. The
// collectors are associative but deliberately not duplicate-idempotent
// (two copies of one frontier point both survive a strict dominance
// check), so the owner deduplicates at the source: the losing
// attempt's answer feeds the worker's latency EWMA and the trace tree
// but never the merge — and since a shard's answer is a deterministic
// function of the shard, whichever attempt wins merges the identical
// result. tools/schedsim races the rule, hedged and unhedged, over a
// simulated heterogeneous churny fleet, with the stragglers' names
// sorting both after and before the fast workers', and prints each
// leg's makespan; every leg merges the byte-identical frontier.
//
// # Observability
//
// internal/obs is the fleet's stdlib-only observability layer: a metrics
// registry (atomic counters, gauges, fixed-bucket histograms) whose
// record path is allocation-free — handles are pre-registered once,
// Inc/Set/Observe touch only atomics, so instrumenting the sweep hot
// path keeps its zero-allocations-per-design invariant — plus trace
// spans threaded over the existing request-ID plumbing.
//
// Metric names follow Prometheus conventions under one dsed_ prefix:
// dsed_<subsystem>_<what>[_total] with snake_case label keys (worker,
// benchmark, endpoint, code, state, event, result). Durations are
// histograms in milliseconds (suffix _ms) over obs.LatencyMSBuckets,
// sixteen buckets from 0.1ms to 10s; size distributions (merge
// candidates, chunk designs) use the power-of-two obs.SizeBuckets. The
// series cover every seam of the fleet: per-worker shard dispatch
// latency and the two-column fault taxonomy
// (dsed_cluster_worker_failures_total / _rejections_total), shard
// retries, the fleet's size (dsed_cluster_members)
// and churn (dsed_cluster_membership_events_total{event=join|rejoin|leave},
// counted as gossip entries enter and leave the alive set),
// registry training/load/warm timings and cache hit ratios
// (dsed_registry_train_ms{benchmark}, dsed_registry_cache_total{result}),
// job lifecycle and stream health (dsed_jobs_running,
// dsed_jobs_finished_total{state}, dsed_jobs_stream_dropped_total),
// sweep chunk timings (dsed_explore_chunk_ms), and per-endpoint HTTP
// accounting (dsed_http_requests_total{endpoint,code}). Scrape any peer
// in Prometheus text format:
//
//	curl -s localhost:8090/v1/metricsz
//
// Traces answer "where did this job spend its time" across machines.
// A fleet job opens a root span on its owner; each shard attempt opens a
// dispatch child whose context rides the HTTP hop as a W3C-shaped
// traceparent header (plus the request ID); the remote peer records the
// shard's train/predict/merge phases as child spans of it in a store of
// that request's own and ships exactly those spans back in its
// /v1/shards answer. The owner splices them into its ring-buffered trace
// store (the most recent 256 traces), so one GET returns the assembled
// cross-node tree once the job is done:
//
//	curl -s localhost:8090/v1/jobs/$job/trace
//
// The response is {job_id, trace_id, spans, tree}: nested spans with
// name, node (which daemon recorded it), start, duration and
// annotations (benchmark, job_id, request_id, worker, verdict).
// `dse -daemon` prints the same tree after its final answer as
// "trace:"-prefixed lines. GET /v1/jobs lists the job table (filter
// with ?state=, ?benchmark=, ?kind=, page with ?limit=).
//
// For deeper digging dsed takes -debug-addr, a second
// listener (never exposed by default) serving net/http/pprof:
//
//	go run ./cmd/dsed -addr :8090 -debug-addr localhost:6060 &
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
//	curl -s 'localhost:6060/debug/pprof/goroutine?debug=1'
//
// # Performance
//
// The sweep hot path — millions of Predict calls per exploration — is
// batch-oriented and allocation-free in steady state. Every layer
// contributes:
//
//   - internal/core: wavelet reconstruction is linear, so each Predictor
//     precomputes one reconstruction basis vector per selected
//     coefficient (with its nonzero support trimmed); Predict becomes k
//     scaled vector additions instead of a full inverse transform.
//     PredictInto(cfg, dst) and PredictBatch(cfgs, dst) reuse
//     caller-provided output buffers. A trace's mean is linear in the
//     coefficients, so each Predictor also precomputes its basis
//     vectors' means and PredictMean scores a mean as Σ c_i·mean(basis_i)
//     over only the networks with a nonzero basis mean. In the paper's
//     Haar form the average coefficient's basis mean is exactly 1 and
//     every detail's exactly 0, so a mean costs one network instead of k
//     plus a trace reconstruction. It agrees with the trace mean to
//     rounding (within 1e-15 relative, tested), and /v1/predict reports
//     the same value. The sweep engine scores a *core.Predictor through
//     its level entry points: PredictMeanLevels and PredictVecLevelsInto
//     take a design's pre-encoded feature vector (the plain encoding is a
//     strict prefix of the DVM one, so one encoding serves every model)
//     and its level indices against the networks' one shared declaration
//     (DimLevels; Train binds every network to it and Load refuses a file
//     whose networks differ) from the caller. PredictInto and
//     PredictMean resolve and delegate to them, so each computation has
//     one body and the sweep engine resolves once for every model
//     sharing a declaration. MeanTerms exposes
//     PredictMeanLevels' fold (the nonzero-basis-mean networks, in order,
//     with their weights), which a window sweep reproduces from the
//     networks' tables. The baselines (GlobalANN, LinearWavelet) offer
//     Predict only.
//   - internal/rbf: the Gaussian has axis-aligned radii, so every network
//     is one function f(x) = s(x)·g(x_V) + b, with one kernel body (a
//     network without a level declaration has every dimension continuous;
//     core declares the Table 2 feature levels). The shared factor s is a single
//     table-driven ExpFast (relative error under 1e-10) over the
//     dimensions the regression tree never split on. The varying part g
//     is tabulated over the product of the 2–6 varying dimensions'
//     levels (at most 1<<14 entries; ≤3,072 for every gcc network), so an
//     on-level design costs each network one exponential and one table
//     lookup. The networks a mean is scored from (core's mean terms) also
//     tabulate s over the shared dimensions' levels (TabulateShared,
//     under the same cap; 768 entries for gcc's CPI mean network), so an
//     on-level design costs such a network two table lookups and one
//     multiply, and TableOffsets/PredictTables let a sweep address both
//     tables by summed per-level offsets. TabulateShared also reduces
//     both tables over a subtree's free digits (the shortest suffix of
//     dimensions with at least 64 declared designs) into per-block
//     min/max tables sized by the fixed digits alone, so BoundTables
//     bounds PredictTables over a whole subtree from the same prefix
//     sums: the four corner products, rounded as PredictTables rounds,
//     exactly. Off-level values fall back to
//     computing s and g through the very functions that filled the
//     tables, so hits and misses are bit-identical; the product s·g is
//     written float64(s*g), so no architecture fuses it with the bias.
//     core.Predictor resolves a design's level indices once and shares
//     them across its k networks. The tables are derived on training and
//     on load, never persisted.
//   - internal/explore: evalChunks workers hold per-worker scratch (one
//     trace buffer per model, one flat score matrix per chunk, the
//     current design's encoding and level indices) and emit scores only —
//     zero heap allocations per design in steady state. A model takes one
//     of two routes: a *core.Predictor is scored through
//     PredictMeanLevels (mean objectives) or PredictVecLevelsInto (trace
//     objectives, bit-identical to Predict); any other model through
//     Predict on the design's Config. On a list each design is encoded
//     once and its level indices resolved once per distinct declaration,
//     for every model. SweepWindow never builds a Config per design
//     unless a Predict-route model needs one: it precomputes, per
//     parameter and level of the window's space, the feature value and
//     each declaration's level index (by encoding and resolving real
//     designs, so they are bit-identical to the list path), and each
//     worker ticks the odometer (Levels.Seek/Tick), rewriting only the
//     digits that changed. A mean objective on a plain-encoding
//     Predictor whose mean terms all have both tables, over a
//     window whose levels all lie on its declaration, takes the lattice
//     route: per sweep each term's table offsets are mapped onto the
//     window's levels, each worker carries each term's two table indices
//     as integer prefix sums along the odometer (updated from the most
//     significant digit Tick changed), and the score is
//     PredictMeanLevels' own fold over PredictTables — no exponential,
//     bit for bit the level route. DVM-feature models, off-declaration
//     windows and networks over the table cap keep the level route. A
//     window sweep whose every model is on the lattice and whose every
//     collector is a FrontierCollector prunes: its chunks are whole
//     subtrees of the odometer (the designs sharing every digit but the
//     last three on the train levels, 64 of them), cut on the subtree
//     boundaries of the window's space so a window of any size or offset
//     prunes, and before scoring a subtree a worker folds each term's
//     BoundTables at the subtree's prefix sums, exactly as latticeMean
//     folds PredictTables, into a low corner no design of the subtree
//     can score below, and skips the subtree with one odometer step when
//     a point it already scored in this sweep (its incumbent: a capped
//     Pareto set of its subtrees' per-objective minimisers) is strictly
//     lower in every objective. Such a design is dominated by a real
//     point of the same sweep, so the final frontier, a shard's partial
//     and Seen (which counts skipped designs) are byte-identical to an
//     unpruned sweep; only mid-sweep snapshots may lack points an
//     unpruned sweep would have held for a while. Skipped rows are
//     marked in the chunk, which FrontierCollector passes over;
//     Options.ChunkDone reports designs scored beside designs covered
//     (dsed_explore_designs_scored_total). TopK, whose feasible count
//     needs every score, and list sweeps score every design. On gcc's
//     production CPI/Power models a frontier-full sweep scores ~5% of
//     its 245,760 designs. The package's two
//     Collectors, TopK and
//     FrontierCollector, take a whole chunk under their own mutex, test
//     each candidate's scores first, and decode a Config (Window.Design)
//     only for the candidates they keep; their snapshot methods are safe
//     mid-sweep, so cmd/dsed publishes partials without a second
//     per-design lock. cmd/dsed runs every unsampled named space as a
//     window, and a fleet owner carves such a space's shards as counts,
//     never materialising it. FrontierCollector checks the member that
//     rejected the previous arrival first, so neighbouring designs are
//     usually rejected without a scan. ParetoFrontier prefilters against
//     a strong pivot and sorts two-objective inputs by flat value keys.
//   - internal/space: Levels.Seek and Levels.Tick are the one mixed-radix
//     enumerator of a full factorial (first parameter most significant);
//     FactorialRangeInto is a thin wrapper over them, and Tick reports
//     the most significant digit it changed so index-space sweeps update
//     only what moved. SampleDesign, which draws every `sample` job's
//     space and every model's training set, scores each LHS candidate's
//     L2-star discrepancy in one flat row-major kernel. The designs are
//     encoded once into a single []float64, overwritten with 1−x, and
//     each pair's term Π_j min(1−a_j, 1−b_j) uses the branchless builtin
//     min over four rows at a time. 1−max(a, b) = min(1−a, 1−b) exactly,
//     and the product and summation orders are unchanged, so the
//     discrepancies, and so the chosen sets, are bit-identical to the
//     nested-slice form (tested against a frozen copy of it). A 128-design,
//     4-candidate draw takes ~1 ms instead of ~4 ms. SampleDesignContext
//     checks the context once per candidate and once per row of the pair
//     sum, so cancelling a job stops its sampling.
//   - cmd/dsed: JSON and NDJSON responses encode through pooled buffers
//     (api.EncodeJSON) — one marshal, one Write per response or stream
//     line, no per-update allocation at shard rate.
//
// The trajectory is recorded, not remembered. The BENCH_PR<N>.json files
// at the repository root are committed baselines for the hot-path
// benchmarks (BenchmarkExploreSweep and its full-factorial window twin
// BenchmarkExploreSweepFactorial, whose collector=topk cases time the
// scoring path and whose frontier cases are dominated by their synthetic
// models' 3,543-point frontier, BenchmarkPredictBatch,
// BenchmarkRBFPredict (a declared network's Predict at one on-level
// design) with its off-level twin BenchmarkRBFPredictOffLevel and the
// level routes BenchmarkRBFPredictLevels and BenchmarkRBFPredictTables,
// BenchmarkSampleDesign); the one with the highest N is current. Record
// a new point (and commit it under the PR's number when a PR moves the
// needle) with:
//
//	go test -run='^$' -bench='ExploreSweep|PredictBatch|RBFPredict|SampleDesign' \
//	  -benchtime=10x -count=3 . | go run ./tools/benchjson > BENCH_PR<N>.json
//
// CI's perf gate re-runs those benchmarks on every push and compares
// against the newest committed baseline, read from HEAD with git show,
// via `benchjson -compare -tolerance 25`:
// ns/op may grow at most 25%, rate metrics (designs/s) may drop at most
// 25%, judged on the best of the repeated runs so scheduler noise cannot
// fail the gate, and a gated benchmark that disappears from the run is
// itself a regression. See tools/benchjson for the format and the
// comparison rules.
//
// # Enforced invariants
//
// The conventions above — context-first dispatch, injected clocks,
// structured /v1 errors — stop being conventions the moment a reviewer
// misses one. cmd/dsedlint machine-checks them: a go/analysis-style
// suite (internal/lint) that CI runs over every package and that any
// developer can run through the standard vet harness:
//
//	go build -o /tmp/dsedlint ./cmd/dsedlint
//	go vet -vettool=/tmp/dsedlint ./...
//
// or standalone (same diagnostics, no build cache required):
//
//	go run ./cmd/dsedlint ./...
//
// The suite enforces five invariants, each rooted in a past or plausible
// fleet failure mode:
//
//   - ctxflow: no context.Background()/context.TODO() outside package
//     main and tests — a detached context in library code cannot be
//     cancelled, so a dead client would keep a sweep burning worker
//     capacity. Functions that dispatch work (go statements, errgroup
//     .Go) must accept a context.Context so cancellation has a path in.
//   - lockhold: no blocking operation (channel send/receive without a
//     selectable default, WaitGroup.Wait, time.Sleep, network or exec
//     calls) while a sync.Mutex/RWMutex is held, and every Lock must
//     pair with an Unlock on all return paths. Holding the coordinator
//     mutex across a worker RPC is exactly how a slow worker stalls the
//     whole membership plane.
//   - httperr: /v1 handlers must report errors through the structured
//     envelope writer, never http.Error or ad-hoc {"error": ...}
//     literals — clients parse one shape. Handlers that decode request
//     bodies must bound them with http.MaxBytesReader first, so a
//     malformed client cannot balloon coordinator memory.
//   - jsonenc: json Encode/Marshal error results must not be discarded;
//     a dropped encode error turns a broken response into a silent
//     truncation the client misreads as success.
//   - clockinject: packages that inject a clock seam (a now() method or
//     clock-typed field) must use it everywhere — a raw time.Now or
//     time.Sleep beside a seam silently escapes the fake clock in tests
//     and re-introduces flakes the seam existed to kill.
//
// False positives are suppressed inline, never silently: a
// //dsedlint:ignore <analyzer> <reason> directive on (or immediately
// above) the offending line disables the named analyzers for that line,
// and the reason is mandatory — a directive without one is itself a
// diagnostic. The suite's own fixtures live under internal/lint/testdata
// and every analyzer is proven by failing cases there; TestRepoIsClean
// (internal/lint/checker) re-runs the whole suite over the module inside
// the ordinary test run, so `go test ./...` and CI's vet gate cannot
// disagree.
//
// See README.md for the tour, DESIGN.md for the system inventory and
// experiment index, and EXPERIMENTS.md for paper-versus-measured results.
// The top-level benchmark harness (bench_test.go) regenerates every table
// and figure and tracks the engine's sweep and frontier throughput
// (BenchmarkExploreSweep, BenchmarkParetoFrontier):
// go test -bench=. -benchmem .
package repro
