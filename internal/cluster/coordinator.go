// Package cluster is the distributed sweep plane: a coordinator that
// partitions model-driven design-space sweeps across a fleet of dsed
// workers and merges their partial answers losslessly.
//
// The paper's predictors make evaluating a design point microseconds
// cheap, so a single process bounds a sweep by one machine's cores. Both
// reductions this repository serves — Pareto frontiers and constrained
// top-K selection — are associative, so a sweep distributes exactly:
// partition the design list into shards, evaluate each shard on any
// worker holding the benchmark's models, and fold the partial frontiers /
// top-Ks together (explore.FrontierCollector.Merge, explore.TopK.Merge).
// The merged answer equals the single-process answer candidate-for-
// candidate.
//
// The fleet is a live membership table, not a frozen list: workers join
// through Join (the serving layer's POST /register), renew through
// Heartbeat, and are evicted when their lease lapses — see membership.go.
// The consistent-hash ring rebuilds incrementally on join and leave, so a
// campaign keeps running while machines come and go, re-dispatching only
// the shards orphaned by a departure.
//
// Placement is pluggable (policy.go): every shard is routed by a Policy
// ranking a snapshot of the live fleet — benchmark-affinity ring routing
// by default, with least-loaded (queue-depth driven), best-fit packing,
// and oversubscription as alternatives. Shard sizes adapt per worker:
// the coordinator tracks an EWMA of each worker's per-design latency and
// carves subsequent shards toward a target shard duration, so fast
// workers take big bites and slow ones small, without a fixed
// -shard-size guess. The same EWMA prices straggler hedging
// (Options.HedgeFactor): a shard that outlives a multiple of its
// expected duration is speculatively re-dispatched and the first answer
// wins, with exactly one partial merged per shard.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/explore"
	"repro/internal/obs"
	"repro/internal/space"
)

// Options tunes the coordinator.
type Options struct {
	// ShardSize is the number of designs per shard (default 2048 — large
	// enough to amortise one HTTP round trip, small enough that a shard
	// body stays well under the worker's 1 MiB request limit and a lost
	// worker forfeits little work). With TargetShardTime set it is only
	// the first-shard size, before latency observations exist.
	ShardSize int
	// TargetShardTime enables adaptive shard sizing: each worker's next
	// shard is carved so that, at the worker's observed per-design EWMA
	// latency, it takes about this long. Zero keeps fixed ShardSize
	// shards.
	TargetShardTime time.Duration
	// Parallelism bounds in-flight shards (default 2 per live worker at
	// sweep start).
	Parallelism int
	// VirtualNodes is the consistent-hash ring's replication factor per
	// worker (default 64).
	VirtualNodes int
	// Replicas is how many workers serve (and Warm pre-places) each
	// benchmark, counted clockwise from its ring home. Ring-order
	// dispatch prefers exactly this set — so a warmed benchmark never
	// trains on demand mid-sweep — and spills past it only under load or
	// failure. Default 0 means the whole fleet: maximum sweep
	// throughput, with Warm placing models everywhere. Set it lower on
	// large many-benchmark fleets to bound how many workers hold each
	// benchmark's models.
	Replicas int
	// ShardTimeout bounds one shard attempt on one worker (default 5
	// minutes — generous enough for a cold benchmark training on demand
	// inside the request). A worker that accepts the connection but
	// never answers counts as failed and the shard moves on, instead of
	// hanging the whole sweep.
	ShardTimeout time.Duration
	// HeartbeatTTL is how long a dynamic member survives without a
	// heartbeat before eviction (default 15s; static members never
	// expire).
	HeartbeatTTL time.Duration
	// WorkerCapacity is the default concurrent-shard budget per worker
	// before affinity scheduling spills to the ring; a worker's
	// advertised capacity overrides it (default 4).
	WorkerCapacity int
	// Policy is the placement strategy ranking workers for each shard
	// (see policy.go). Nil means the affinity policy — the fleet's
	// historical behavior.
	Policy Policy
	// HedgeFactor enables straggler speculation: when a shard's elapsed
	// time exceeds HedgeFactor × its expected duration (the worker's
	// per-design EWMA — or, before it has one, the fleet median — times
	// the shard size), the shard is hedged onto a second worker and the
	// first answer wins. Exactly one answer merges, so the duplicate
	// never double-counts. Zero (the default) disables hedging.
	HedgeFactor float64
	// HedgeMinDelay floors the speculation trigger (default 25ms): a
	// shard is never hedged sooner, however fast the fleet, so the
	// cheapest shards don't double every dispatch. It is also the poll
	// interval while no latency estimate exists anywhere in the fleet —
	// a cold fleet, possibly training models on demand, must not
	// hedge-storm its first shards.
	HedgeMinDelay time.Duration
	// Obs, when set, receives coordinator metrics: per-worker shard
	// latency histograms and the three-column fault taxonomy, merge
	// sizes, membership churn. Nil disables metric recording.
	Obs *obs.Registry
	// Tracer, when set, opens a dispatch span per shard attempt,
	// propagates its context to the worker over the transport, and
	// splices the worker's returned spans into the trace. Nil disables
	// tracing.
	Tracer *obs.Tracer
}

// maxShardSize caps shard sizes, configured or adaptive. The body-size
// rationale binds only pinned shards (explicit or sampled jobs): a pinned
// design is ~170 bytes of JSON, so 4096 designs stay comfortably inside
// the worker's 1 MiB request-body limit, and a larger value would make
// every such shard 413 on every worker. A windowed shard is a few dozen
// bytes at any size, but shares the cap so shard granularity — and with
// it retry cost and load balance — does not depend on the job's space.
const maxShardSize = 4096

// minShardSize floors adaptive sizing: below this the HTTP round trip
// dominates and the scheduler would churn on noise.
const minShardSize = 16

func (o Options) withDefaults() Options {
	if o.ShardSize <= 0 {
		o.ShardSize = 2048
	}
	if o.ShardSize > maxShardSize {
		o.ShardSize = maxShardSize
	}
	if o.VirtualNodes <= 0 {
		o.VirtualNodes = defaultVirtualNodes
	}
	if o.ShardTimeout <= 0 {
		o.ShardTimeout = 5 * time.Minute
	}
	if o.HeartbeatTTL <= 0 {
		o.HeartbeatTTL = 15 * time.Second
	}
	if o.WorkerCapacity <= 0 {
		o.WorkerCapacity = 4
	}
	if o.Policy == nil {
		o.Policy = affinityPolicy{}
	}
	if o.HedgeMinDelay <= 0 {
		o.HedgeMinDelay = 25 * time.Millisecond
	}
	return o
}

// Coordinator partitions sweeps across a live worker fleet.
type Coordinator struct {
	opts    Options
	policy  Policy
	metrics *clusterMetrics
	tracer  *obs.Tracer
	// clock overrides time.Now in tests (nil in production).
	clock func() time.Time

	mu         sync.Mutex
	members    map[string]*member
	ring       *ring
	deal       int
	retries    int
	failures   map[string]int
	rejections map[string]int
	busy       map[string]int
	hedges     map[string]int
}

// New builds a coordinator over an initial static fleet (possibly empty:
// a coordinator can boot with no workers and grow entirely through
// Join). Static worker names must be unique: they are the ring's
// placement keys.
func New(workers []Transport, opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	c := &Coordinator{
		opts:       opts,
		policy:     opts.Policy,
		metrics:    newClusterMetrics(opts.Obs, opts.Policy.Name()),
		tracer:     opts.Tracer,
		members:    make(map[string]*member),
		ring:       newRing(opts.VirtualNodes),
		failures:   make(map[string]int),
		rejections: make(map[string]int),
		busy:       make(map[string]int),
		hedges:     make(map[string]int),
	}
	now := c.now()
	for i, w := range workers {
		name := w.Name()
		if name == "" || c.members[name] != nil {
			return nil, fmt.Errorf("cluster: worker %d has empty or duplicate name %q", i, name)
		}
		c.members[name] = &member{
			name:      name,
			transport: w,
			static:    true,
			capacity:  opts.WorkerCapacity,
			joined:    now,
			lastSeen:  now,
			inst:      c.metrics.worker(name),
		}
		c.ring.add(name)
	}
	c.metrics.membersGauge.Set(float64(len(c.members)))
	return c, nil
}

// ParetoResult is a merged distributed frontier.
type ParetoResult struct {
	Evaluated int
	Frontier  []explore.Candidate
	Shards    int
	Retries   int
}

// SweepResult is a merged distributed top-K selection.
type SweepResult struct {
	Evaluated  int
	Feasible   int
	Candidates []explore.Candidate
	Shards     int
	Retries    int
}

// Progress is one merged-partial snapshot of an in-flight distributed
// sweep — the worker → coordinator → client streaming unit. Snapshots
// are cumulative: Candidates is the whole merged frontier (or feasible
// top-K) so far, not a delta, so any snapshot alone is a valid partial
// answer. Updates arrive at shard granularity (a shard's partial is the
// smallest mergeable unit — folding a worker's unfinished shard would
// double-count when the finished one lands).
type Progress struct {
	// Worker is the fleet member whose shard was just merged; Delta is
	// how many designs that shard contributed.
	Worker string
	Delta  int
	// Evaluated and Feasible are cumulative across merged shards.
	Evaluated int
	Feasible  int
	// Shards counts merged shards so far.
	Shards int
	// Workers is the live fleet size at this snapshot — it moves as
	// members join and lapse mid-sweep.
	Workers int
	// Candidates is the merged partial frontier / top-K snapshot.
	Candidates []explore.Candidate
	// ShardStart and ShardLen identify the merged shard's design range
	// [ShardStart, ShardStart+ShardLen) — the unit a replication ledger
	// records, so a peer adopting the job re-dispatches exactly the
	// complement.
	ShardStart int
	ShardLen   int
	// Indexed is the snapshot with original design indices preserved
	// (top-K sweeps only; nil on frontier jobs, which are
	// index-independent). Top-K selection tie-breaks on indices, so a
	// snapshot that later re-seeds a collector must carry them for the
	// resumed answer to stay bit-identical.
	Indexed []IndexedCandidate
}

// Observer receives Progress snapshots. It is called under the merge
// lock (snapshots are consistent and ordered) and must not call back
// into the coordinator.
type Observer func(Progress)

// Pareto distributes a frontier sweep: shard, evaluate per worker, merge
// the partial frontiers. The merged frontier equals the single-process
// explore.ParetoFrontier over the same designs, up to ordering.
func (c *Coordinator) Pareto(ctx context.Context, q Query, designs []space.Config) (*ParetoResult, error) {
	return c.ParetoObserved(ctx, q, designs, nil)
}

// ParetoObserved is Pareto with a streaming observer: obs (when non-nil)
// sees the merged frontier after every shard, so a serving layer can
// stream partial frontiers to its client while the sweep runs.
func (c *Coordinator) ParetoObserved(ctx context.Context, q Query, designs []space.Config, obs Observer) (*ParetoResult, error) {
	if len(designs) == 0 {
		return nil, fmt.Errorf("cluster: no designs to sweep")
	}
	return c.ParetoResumeObserved(ctx, q, []Segment{{Designs: designs}}, Seed{}, obs)
}

// Sweep distributes a constrained top-K sweep: each shard answers its own
// feasible top K, and the merged heap keeps the global best K (associative
// because the global top K is a subset of the union of shard top Ks).
func (c *Coordinator) Sweep(ctx context.Context, q Query, designs []space.Config) (*SweepResult, error) {
	return c.SweepObserved(ctx, q, designs, nil)
}

// SweepObserved is Sweep with a streaming observer: obs (when non-nil)
// sees the merged feasible top-K after every shard.
func (c *Coordinator) SweepObserved(ctx context.Context, q Query, designs []space.Config, obs Observer) (*SweepResult, error) {
	if len(designs) == 0 {
		return nil, fmt.Errorf("cluster: no designs to sweep")
	}
	return c.SweepResumeObserved(ctx, q, []Segment{{Designs: designs}}, Seed{}, obs)
}

// run is the shared distribution engine: a bounded pool of dispatchers
// carves shards off the design list on demand (each sized for the worker
// about to take it), runs them with per-attempt timeouts, retries failed
// shards on the rest of the live fleet, and folds successful partials
// through merge. The fleet snapshot is taken per attempt, not per sweep:
// a worker joining mid-run starts taking shards, one dying forfeits only
// its in-flight shards. merge may be called concurrently; callers
// serialise their own state.
func (c *Coordinator) run(ctx context.Context, q Query, segments []Segment,
	call func(t Transport, ctx context.Context, q Query, s Shard) (*Partial, error),
	merge func(worker string, s Shard, p *Partial)) (shards, retries int, err error) {

	cv := &carver{segments: segments}
	var (
		errMu        sync.Mutex
		errs         []error
		shardCount   atomic.Int64
		localRetries atomic.Int64
		active       atomic.Int64
		wg           sync.WaitGroup
	)
	// A deterministic rejection cancels the run through this context's
	// cause: the homogeneous fleet would give every remaining shard the
	// same verdict, so one doomed round trip is enough.
	runCtx, abort := context.WithCancelCause(ctx)
	defer abort(nil)
	var dispatch func()
	dispatch = func() {
		defer wg.Done()
		defer active.Add(-1)
		for runCtx.Err() == nil {
			s, first, ok := c.nextAssignment(cv, q.Benchmark)
			if !ok {
				return
			}
			// Elastic pool: a fleet that grew mid-sweep deserves more
			// in-flight shards. Spawning from inside a live dispatcher
			// (before its own Done) keeps the WaitGroup sound; a slight
			// overshoot under races only idles a goroutine.
			if c.opts.Parallelism <= 0 {
				for want := int64(c.parallelism()); active.Load() < want; {
					active.Add(1)
					wg.Add(1)
					go dispatch()
				}
			}
			shardCount.Add(1)
			if err := c.runShard(runCtx, q, s, first, abort, &localRetries, call, merge); err != nil {
				errMu.Lock()
				errs = append(errs, err)
				errMu.Unlock()
			}
		}
	}
	for d := c.parallelism(); d > 0; d-- {
		active.Add(1)
		wg.Add(1)
		go dispatch()
	}
	wg.Wait()
	shards = int(shardCount.Load())
	retries = int(localRetries.Load())
	if cause := context.Cause(runCtx); cause != nil && !errors.Is(cause, context.Canceled) && !errors.Is(cause, context.DeadlineExceeded) {
		return shards, retries, cause
	}
	if ctx.Err() != nil {
		return shards, retries, ctx.Err()
	}
	if err := errors.Join(errs...); err != nil {
		return shards, retries, err
	}
	return shards, retries, nil
}

// memberCount reports the live fleet size (the Progress snapshot field).
func (c *Coordinator) memberCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.members)
}

// parallelism resolves the dispatcher-pool size at sweep start.
func (c *Coordinator) parallelism() int {
	if c.opts.Parallelism > 0 {
		return c.opts.Parallelism
	}
	c.mu.Lock()
	live := len(c.members)
	c.mu.Unlock()
	if live == 0 {
		return 1
	}
	return 2 * live
}

// attemptResult carries one dispatch attempt's outcome back to the
// shard driver.
type attemptResult struct {
	m       *member
	p       *Partial
	err     error
	elapsed time.Duration
	hedge   bool
}

// Hedge outcome names — the `result` label of
// dsed_cluster_shard_hedges_total and the keys of Coordinator.hedges.
const (
	hedgeIssued = "issued"
	hedgeWon    = "won"
	hedgeWasted = "wasted"
)

// runShard drives one shard to completion: the assigned worker first,
// then — on transport failure — whichever untried live worker the
// scheduler prefers next, until one answers or no live worker is left to
// try. Each attempt is bounded by ShardTimeout, so a wedged worker counts
// as failed instead of hanging the sweep. Claims travel as *member
// pointers: a worker that is evicted and re-registers mid-attempt gets a
// fresh record, and this shard's accounting settles on the detached one.
//
// With HedgeFactor set the driver also speculates against stragglers:
// when the in-flight attempt outlives HedgeFactor × its expected
// duration (hedgeDelay), the shard is dispatched a second time to the
// scheduler's next pick and the first answer wins. Exactly one partial
// merges per shard — the collectors are associative but not duplicate-
// idempotent (two copies of the same frontier point both survive a
// dominance check), so deduplication lives here, not in the merge. A
// losing attempt that completes anyway still feeds its worker's EWMA and
// the trace tree; a cancelled one is released without an observation, so
// a chronically hedged-away worker keeps its cold estimate and keeps
// being hedged rather than laundering its slowness into the average.
func (c *Coordinator) runShard(ctx context.Context, q Query, s Shard, first *member,
	abort context.CancelCauseFunc, localRetries *atomic.Int64,
	call func(t Transport, ctx context.Context, q Query, s Shard) (*Partial, error),
	merge func(worker string, s Shard, p *Partial)) error {

	tried := make(map[string]bool)
	// Buffered to the attempt fan-out ceiling (one primary + one hedge),
	// so a finishing attempt never blocks even after the driver returns.
	results := make(chan attemptResult, 2)
	var cancels []context.CancelFunc
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()

	running := 0
	hedged := false       // at most one hedge per shard
	hedgeSettled := false // won/wasted booked exactly once per issued hedge
	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	var primary *member // the current non-speculative attempt's worker
	var primaryStart time.Time

	stopHedge := func() {
		if hedgeTimer != nil && !hedgeTimer.Stop() {
			select {
			case <-hedgeTimer.C:
			default:
			}
		}
		hedgeC = nil
	}
	defer stopHedge()
	armHedge := func(d time.Duration) {
		stopHedge()
		if hedgeTimer == nil {
			hedgeTimer = time.NewTimer(d)
		} else {
			hedgeTimer.Reset(d)
		}
		hedgeC = hedgeTimer.C
	}

	launch := func(m *member, hedge bool) {
		tried[m.name] = true
		attemptCtx, cancel := context.WithTimeout(ctx, c.opts.ShardTimeout)
		cancels = append(cancels, cancel)
		running++
		if !hedge {
			primary = m
			primaryStart = c.now()
		}
		go func() {
			// The dispatch span's context rides the transport as a
			// traceparent header, so the worker's own job spans land under
			// this one.
			spanCtx, span := c.tracer.Start(attemptCtx, "dispatch")
			span.SetAttr("worker", m.name)
			span.SetAttr("shard_start", strconv.Itoa(s.Start))
			span.SetAttr("designs", strconv.Itoa(len(s.Designs)))
			if hedge {
				span.SetAttr("hedge", "true")
			}
			start := c.now()
			p, err := call(m.transport, spanCtx, q, s)
			elapsed := c.now().Sub(start)
			if err == nil && p.Evaluated != len(s.Designs) {
				// A short count means the worker silently dropped designs;
				// trust the fleet over the answer.
				err = fmt.Errorf("cluster: worker %s evaluated %d of %d shard designs", m.name, p.Evaluated, len(s.Designs))
			}
			if err == nil {
				span.SetAttr("status", "ok")
			} else {
				span.SetAttr("status", verdict(err))
				span.SetAttr("error", err.Error())
			}
			span.End()
			results <- attemptResult{m: m, p: p, err: err, elapsed: elapsed, hedge: hedge}
		}()
	}

	// settle cancels whatever is still in flight and consumes its
	// outcome, so every claimed slot releases exactly once. A loser that
	// finished real work still records its latency and spans — only the
	// merge is deduplicated.
	settle := func() {
		stopHedge()
		for _, cancel := range cancels {
			cancel()
		}
		for running > 0 {
			o := <-results
			running--
			if o.err == nil {
				c.tracer.Import(o.p.Spans)
				c.observe(o.m, len(s.Designs), o.elapsed)
			} else {
				c.release(o.m)
			}
		}
		if hedged && !hedgeSettled {
			hedgeSettled = true
			c.noteHedge(hedgeWasted)
		}
	}

	m := first
	var lastErr error
	attempts := 0
	for {
		for running == 0 && m != nil {
			if err := ctx.Err(); err != nil {
				c.release(m)
				return err
			}
			if !c.isLive(m) {
				// Evicted (or drained) between assignment and dispatch; not
				// a worker fault — hand the shard to the scheduler's next
				// pick.
				c.release(m)
				m = c.claimRetry(q.Benchmark, tried)
				continue
			}
			attempts++
			launch(m, false)
			m = nil
			if c.opts.HedgeFactor > 0 && !hedged {
				if d := c.hedgeDelay(primary, len(s.Designs)); d > 0 {
					armHedge(d)
				} else {
					// No latency estimate anywhere yet: poll until one
					// exists instead of hedging blind.
					armHedge(c.opts.HedgeMinDelay)
				}
			}
		}
		if running == 0 {
			if attempts == 0 {
				return fmt.Errorf("cluster: shard [%d,%d): no live workers", s.Start, s.Start+len(s.Designs))
			}
			return fmt.Errorf("cluster: shard [%d,%d) failed on all %d workers: %w",
				s.Start, s.Start+len(s.Designs), attempts, lastErr)
		}

		select {
		case o := <-results:
			running--
			if o.err == nil {
				if hedged && !hedgeSettled {
					hedgeSettled = true
					if o.hedge {
						c.noteHedge(hedgeWon)
					} else {
						c.noteHedge(hedgeWasted)
					}
				}
				c.tracer.Import(o.p.Spans)
				c.observe(o.m, len(s.Designs), o.elapsed)
				merge(o.m.name, s, o.p)
				settle()
				return nil
			}
			// A deterministic rejection (4xx) is the fleet's verdict on
			// the request itself: retrying it on other workers — or
			// running the remaining shards of the same request — would
			// book phantom failures against healthy machines and burn a
			// round trip per shard for one bad request. It is accounted
			// apart from transport failures so fleet health never confuses
			// a bad request with a dead worker.
			var rejected *WorkerRejection
			if errors.As(o.err, &rejected) {
				c.noteRejection(o.m)
				settle()
				abort(o.err)
				return o.err
			}
			lastErr = o.err
			if ctx.Err() != nil {
				// The failure is (or is about to be reported as) the
				// caller cancelling; don't blame the worker.
				c.release(o.m)
				settle()
				return ctx.Err()
			}
			// A busy verdict spills the shard exactly like a transport
			// failure, but lands in its own accounting column — saturation
			// is not sickness and must not trip failure-based alerting.
			var busyErr *WorkerBusy
			if running > 0 {
				// The other attempt (primary or hedge) is still working
				// the shard; it is the de-facto re-dispatch, already
				// counted in the hedge series.
				if errors.As(o.err, &busyErr) {
					c.noteBusy(o.m, false)
				} else {
					c.noteFailure(o.m, false)
				}
				continue
			}
			next := c.claimRetry(q.Benchmark, tried)
			if errors.As(o.err, &busyErr) {
				c.noteBusy(o.m, next != nil)
			} else {
				// Every failed attempt is the worker's failure, but only a
				// failure with another worker left to try is a re-dispatch.
				c.noteFailure(o.m, next != nil)
			}
			if next != nil {
				localRetries.Add(1)
			}
			m = next

		case <-hedgeC:
			hedgeC = nil
			if hedged || primary == nil {
				break
			}
			d := c.hedgeDelay(primary, len(s.Designs))
			if d <= 0 {
				// Still unpriceable (cold fleet): keep polling.
				armHedge(c.opts.HedgeMinDelay)
				break
			}
			if wait := d - c.now().Sub(primaryStart); wait > 0 {
				// The estimate moved since arming; re-check on schedule.
				armHedge(wait)
				break
			}
			h := c.claimRetry(q.Benchmark, tried)
			if h == nil {
				// Nobody to hedge onto right now; a joiner may yet appear.
				armHedge(c.opts.HedgeMinDelay)
				break
			}
			hedged = true
			c.noteHedge(hedgeIssued)
			launch(h, true)

		case <-ctx.Done():
			settle()
			return ctx.Err()
		}
	}
}

// hedgeDelay prices the speculation trigger for one attempt: HedgeFactor
// times the shard's expected duration — the worker's own per-design EWMA
// or, before it has one, the fleet's median — floored at HedgeMinDelay.
// Zero means "cannot price it yet": no latency observation exists
// anywhere, so speculation waits rather than doubling a cold fleet's
// first (possibly training-on-demand) shards.
func (c *Coordinator) hedgeDelay(m *member, designs int) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	per := m.ewmaPerDesignMS
	if per <= 0 {
		per = c.fleetEWMALocked()
	}
	if per <= 0 {
		return 0
	}
	d := time.Duration(c.opts.HedgeFactor * per * float64(designs) * float64(time.Millisecond))
	if d < c.opts.HedgeMinDelay {
		d = c.opts.HedgeMinDelay
	}
	return d
}

// fleetEWMALocked is the median positive per-design EWMA across the live
// fleet — the expected speed of a worker that has not completed a shard
// yet.
func (c *Coordinator) fleetEWMALocked() float64 {
	var samples []float64
	for _, m := range c.members {
		if m.ewmaPerDesignMS > 0 {
			samples = append(samples, m.ewmaPerDesignMS)
		}
	}
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	return samples[len(samples)/2]
}

// noteHedge books one hedge outcome in both surfaces (the obs series and
// the /healthz totals).
func (c *Coordinator) noteHedge(result string) {
	c.metrics.hedges[result].Inc()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hedges[result]++
}

// PolicyName reports the placement policy this coordinator schedules
// with (the /healthz policy row).
func (c *Coordinator) PolicyName() string { return c.policy.Name() }

// HedgeStats reports lifetime hedge totals: speculative attempts issued,
// hedges whose answer merged first, and hedges that bought nothing.
func (c *Coordinator) HedgeStats() (issued, won, wasted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hedges[hedgeIssued], c.hedges[hedgeWon], c.hedges[hedgeWasted]
}

// verdict names the fault-taxonomy column an attempt error falls in —
// the dispatch span's status annotation.
func verdict(err error) string {
	var rejected *WorkerRejection
	if errors.As(err, &rejected) {
		return "rejected"
	}
	var busy *WorkerBusy
	if errors.As(err, &busy) {
		return "busy"
	}
	return "failed"
}

// isLive reports whether this exact member record is still in the fleet
// (same name and same registration — a rejoined worker is a new record).
func (c *Coordinator) isLive(m *member) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.members[m.name] == m
}

// observe books a completed shard: releases the worker's slot and folds
// the attempt latency into its per-design EWMA (the adaptive shard
// sizer's input).
func (c *Coordinator) observe(m *member, designs int, elapsed time.Duration) {
	m.inst.shards.Inc()
	m.inst.latency.Observe(float64(elapsed.Microseconds()) / 1000)
	c.mu.Lock()
	defer c.mu.Unlock()
	m.inflight--
	m.shardsDone++
	if designs <= 0 {
		return
	}
	sample := float64(elapsed.Microseconds()) / 1000 / float64(designs)
	if m.ewmaPerDesignMS == 0 {
		m.ewmaPerDesignMS = sample
	} else {
		m.ewmaPerDesignMS = ewmaAlpha*sample + (1-ewmaAlpha)*m.ewmaPerDesignMS
	}
}

// ewmaAlpha weights the newest shard latency sample: heavy enough to
// track a worker warming up or degrading within a sweep, light enough
// that one hiccup does not whipsaw shard sizes.
const ewmaAlpha = 0.3

// release frees a worker's shard slot without a latency observation
// (cancelled attempts say nothing about the worker's speed).
func (c *Coordinator) release(m *member) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m.inflight--
}

// noteFailure books a transport failure (and optionally a re-dispatch)
// against a worker for the lifetime health report, releasing its slot.
func (c *Coordinator) noteFailure(m *member, redispatched bool) {
	m.inst.failures.Inc()
	if redispatched {
		c.metrics.retries.Inc()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	m.inflight--
	c.failures[m.name]++
	if redispatched {
		c.retries++
	}
}

// noteRejection books a deterministic 4xx verdict, releasing the slot.
// Rejections blame the request, not the worker: they are reported in
// their own column and never count toward fleet-health failures.
func (c *Coordinator) noteRejection(m *member) {
	m.inst.rejections.Inc()
	c.mu.Lock()
	defer c.mu.Unlock()
	m.inflight--
	c.rejections[m.name]++
}

// noteBusy books a retryable busy verdict (and optionally a re-dispatch),
// releasing the slot. Busy verdicts mean the worker is saturated, not
// sick: they count toward the re-dispatch total but never toward the
// worker's failure column.
func (c *Coordinator) noteBusy(m *member, redispatched bool) {
	m.inst.busy.Inc()
	if redispatched {
		c.metrics.retries.Inc()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	m.inflight--
	c.busy[m.name]++
	if redispatched {
		c.retries++
	}
}

// WarmResult is the outcome of one fleet warm.
type WarmResult struct {
	// Trainings sums the training runs this warm triggered fleet-wide.
	Trainings int
	// Workers is how many workers were asked to warm something.
	Workers int
	// Errors holds the per-worker failures; fewer errors than Workers
	// means the warm partially succeeded and a sweep would still run
	// (re-dispatching around the failed workers).
	Errors []error
}

// Warm pre-places models: each benchmark is trained (or warm-started) on
// its Replicas home workers, concurrently per worker. Ring-order shard
// dispatch prefers exactly the same replica set, so a following sweep's
// shards land on workers that already hold the models. Like a sweep, a
// warm degrades through worker loss: per-worker failures are reported in
// the result, not allowed to void the placements that succeeded.
func (c *Coordinator) Warm(ctx context.Context, benchmarks []string) *WarmResult {
	c.mu.Lock()
	c.evictExpiredLocked(c.now())
	per := make(map[string][]string)
	transports := make(map[string]Transport)
	for _, b := range benchmarks {
		order := c.ring.order(b)
		replicas := c.replicasLocked()
		for r := 0; r < replicas && r < len(order); r++ {
			name := order[r]
			per[name] = append(per[name], b)
			transports[name] = c.members[name].transport
		}
	}
	c.mu.Unlock()
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		res     = &WarmResult{Workers: len(per)}
		warmErr []error
	)
	for name, list := range per {
		wg.Add(1)
		go func(name string, t Transport, list []string) {
			defer wg.Done()
			n, werr := t.Warm(ctx, list)
			mu.Lock()
			defer mu.Unlock()
			res.Trainings += n
			if werr != nil {
				warmErr = append(warmErr, fmt.Errorf("cluster: warming %v on %s: %w", list, name, werr))
			}
		}(name, transports[name], list)
	}
	wg.Wait()
	res.Errors = warmErr
	return res
}

// replicasLocked resolves the per-benchmark replica count against the
// live fleet size.
func (c *Coordinator) replicasLocked() int {
	if c.opts.Replicas > 0 && c.opts.Replicas < len(c.members) {
		return c.opts.Replicas
	}
	return len(c.members)
}

// WorkerHealth is one worker's live status plus its cumulative shard
// accounting over the coordinator's lifetime. Failures are transport
// faults and timeouts — evidence of a sick worker; Rejections are the
// worker's own deterministic 4xx verdicts on bad requests, which say
// nothing about its health; Busy counts its retryable at-capacity
// verdicts (429s), which mean load, not sickness.
type WorkerHealth struct {
	Name       string
	Err        error
	Failures   int
	Rejections int
	Busy       int
}

// Health probes every live member concurrently.
func (c *Coordinator) Health(ctx context.Context) []WorkerHealth {
	c.mu.Lock()
	c.evictExpiredLocked(c.now())
	names := make([]string, 0, len(c.members))
	for name := range c.members {
		names = append(names, name)
	}
	sort.Strings(names)
	transports := make([]Transport, len(names))
	for i, name := range names {
		transports[i] = c.members[name].transport
	}
	c.mu.Unlock()
	out := make([]WorkerHealth, len(names))
	var wg sync.WaitGroup
	for i := range names {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = WorkerHealth{Name: names[i], Err: transports[i].Healthy(ctx)}
		}(i)
	}
	wg.Wait()
	c.mu.Lock()
	for i := range out {
		out[i].Failures = c.failures[out[i].Name]
		out[i].Rejections = c.rejections[out[i].Name]
		out[i].Busy = c.busy[out[i].Name]
	}
	c.mu.Unlock()
	return out
}

// Retries returns how many shard attempts failed and were re-dispatched
// over the coordinator's lifetime.
func (c *Coordinator) Retries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retries
}
