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
// top-Ks into the job kind's collector (Query.NewCollector). The merged
// answer equals the single-process answer candidate-for-candidate. The
// kind is a value on the Query: Run serves both.
//
// The fleet is not a frozen list: the coordinator reads a fleet source
// (NewFleet) at every placement, so a campaign keeps running while
// machines come and go, re-dispatching only the shards orphaned by a
// departure — see membership.go. A peer's source is its gossip table,
// the liveness authority; New wraps a fixed worker list as a source.
//
// Placement is one rule (scheduler.go): every shard goes to the first
// worker of a ranking over the live fleet — free model holders, then
// other free workers, then saturated ones, fewest in-flight shards
// first, ties dealt round-robin. Shard sizes adapt per worker:
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
	"repro/internal/wire"
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
	// ShardTimeout bounds one shard attempt on one worker (default 5
	// minutes — generous enough for a cold benchmark training on demand
	// inside the request). A worker that accepts the connection but
	// never answers counts as failed and the shard moves on, instead of
	// hanging the whole sweep.
	ShardTimeout time.Duration
	// WorkerCapacity is the default concurrent-shard budget per worker
	// before placement treats it as saturated; a worker's advertised
	// capacity overrides it (default 4).
	WorkerCapacity int
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
	// latency histograms and the two-column fault taxonomy, merge
	// sizes, placements and hedges. Nil disables metric recording.
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
	if o.ShardTimeout <= 0 {
		o.ShardTimeout = 5 * time.Minute
	}
	if o.WorkerCapacity <= 0 {
		o.WorkerCapacity = 4
	}
	if o.HedgeMinDelay <= 0 {
		o.HedgeMinDelay = 25 * time.Millisecond
	}
	return o
}

// Coordinator partitions sweeps across a live worker fleet.
type Coordinator struct {
	opts    Options
	metrics *clusterMetrics
	tracer  *obs.Tracer
	// fleet reports the live fleet; it is read at every placement.
	fleet func() []Member
	// clock overrides time.Now in tests (nil in production).
	clock func() time.Time

	mu      sync.Mutex
	workers map[string]*worker
	gen     uint64
	deal    int
	hedges  map[string]int
}

// New builds a coordinator over a fixed fleet of workers. Their names
// must be unique and non-empty, since they key the scheduler state.
func New(workers []Transport, opts Options) (*Coordinator, error) {
	fleet := make([]Member, len(workers))
	seen := make(map[string]bool, len(workers))
	for i, w := range workers {
		name := w.Name()
		if name == "" || seen[name] {
			return nil, fmt.Errorf("cluster: worker %d has empty or duplicate name %q", i, name)
		}
		seen[name] = true
		fleet[i] = Member{Transport: w}
	}
	return NewFleet(func() []Member { return fleet }, opts), nil
}

// NewFleet builds a coordinator over a live fleet source. fleet must be
// safe for concurrent use and report unique, non-empty worker names,
// each always with the same transport. A worker is schedulable from the
// first read that reports it, also by sweeps already in flight, and
// unschedulable from the first that does not.
func NewFleet(fleet func() []Member, opts Options) *Coordinator {
	opts = opts.withDefaults()
	return &Coordinator{
		opts:    opts,
		metrics: newClusterMetrics(opts.Obs),
		tracer:  opts.Tracer,
		fleet:   fleet,
		workers: make(map[string]*worker),
		hedges:  make(map[string]int),
	}
}

// Result is a merged distributed answer: the frontier or the feasible
// top K, best first, with the distribution's accounting.
type Result struct {
	Evaluated int
	// Feasible counts designs satisfying every constraint (0 on a
	// frontier job).
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
// double-count when the finished one lands). Every merge delivers one;
// the observer decides which to forward in full, and a job observer
// forwards Candidates at its stream cadence only, counters always.
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
}

// Observer receives Progress snapshots, one per merged shard. It is
// called under the merge lock (snapshots are consistent and ordered, and
// state the observer keeps across calls needs no lock of its own) and
// must not call back into the coordinator.
type Observer func(Progress)

// ParetoResult is Run's answer to a fresh frontier job.
type ParetoResult struct {
	Result
	Frontier []explore.Candidate
}

// ParetoObserved is Run for a frontier job over designs: the
// frontier-only entry point perfbench drives.
func (c *Coordinator) ParetoObserved(ctx context.Context, q Query, designs []space.Config, obs Observer) (*ParetoResult, error) {
	q.Kind = wire.JobPareto
	res, err := c.Run(ctx, q, len(designs), designs, obs)
	if err != nil {
		return nil, err
	}
	return &ParetoResult{Result: *res, Frontier: res.Candidates}, nil
}

// Run distributes one job of the query's kind over the fleet: it
// evaluates the job's n designs shard by shard, folds every shard's
// partial answer into the kind's collector, and returns the merged
// answer, which equals the single-process answer over the same designs
// up to ordering (a top K candidate for candidate). pinned holds the n
// designs of an explicit list or an LHS sample; it is nil for a named,
// unsampled space, whose shards travel as windows on Query.Space. obs,
// when non-nil, sees the merged answer after every shard.
//
// A frontier job over windows seeds every shard carved after its first
// merge with the merged frontier's IncumbentOf, refreshed from the
// snapshot each merge takes, so shards prune as one window does. That
// changes partials, never the merged answer (see Shard.Incumbent).
//
// A job whose owner died is re-run here from scratch by its adopter:
// the answer is a deterministic function of the query, the designs and
// the models, so the restart lands on the same answer byte for byte.
func (c *Coordinator) Run(ctx context.Context, q Query, n int, pinned []space.Config, obs Observer) (*Result, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: no designs to sweep")
	}
	if pinned != nil && len(pinned) != n {
		return nil, fmt.Errorf("cluster: %d pinned designs for a %d-design job", len(pinned), n)
	}
	merged := q.NewCollector()
	seeds := q.Kind != wire.JobSweep && pinned == nil
	cv := &carver{n: n, pinned: pinned}
	var mu sync.Mutex
	evaluated, feasible, mergedShards := 0, 0, 0
	shards, retries, err := c.run(ctx, q, cv, func(worker string, p *Partial) {
		c.metrics.mergeSize.Observe(float64(len(p.Candidates)))
		workers := len(c.fleet())
		mu.Lock()
		defer mu.Unlock()
		// The partial's counters cover the whole shard; its candidates
		// are only the shard's survivors, so the job's counts are the
		// partial sums, never the merged collector's.
		evaluated += p.Evaluated
		feasible += p.Feasible
		mergedShards++
		for _, ic := range p.Candidates {
			merged.Collect(ic.Index, ic.Candidate)
		}
		if obs == nil && !seeds {
			return
		}
		answer, _ := Snapshot(merged)
		if seeds {
			inc := IncumbentOf(answer)
			cv.incumbent.Store(&inc)
		}
		if obs != nil {
			obs(Progress{
				Worker:     worker,
				Delta:      p.Evaluated,
				Evaluated:  evaluated,
				Feasible:   feasible,
				Shards:     mergedShards,
				Workers:    workers,
				Candidates: answer,
			})
		}
	})
	if err != nil {
		return nil, err
	}
	answer, _ := Snapshot(merged)
	return &Result{Evaluated: evaluated, Feasible: feasible, Candidates: answer, Shards: shards, Retries: retries}, nil
}

// IncumbentOf picks a shard's incumbent from a frontier sorted by its
// first objective: at most wire.MaxIncumbent score vectors, evenly
// spaced by rank along that order, both extremes always included. The
// vectors alias the frontier's.
func IncumbentOf(frontier []explore.Candidate) [][]float64 {
	n := len(frontier)
	k := min(n, wire.MaxIncumbent)
	out := make([][]float64, k)
	for i := range out {
		j := 0
		if k > 1 {
			j = i * (n - 1) / (k - 1)
		}
		out[i] = frontier[j].Scores
	}
	return out
}

// run is the distribution engine: a bounded pool of dispatchers carves
// shards off the design list on demand (each sized for the worker about
// to take it), runs them with per-attempt timeouts, retries failed
// shards on the rest of the live fleet, and folds successful partials
// through merge. The fleet snapshot is taken per attempt, not per sweep:
// a worker joining mid-run starts taking shards, one dying forfeits only
// its in-flight shards. merge may be called concurrently; callers
// serialise their own state.
func (c *Coordinator) run(ctx context.Context, q Query, cv *carver,
	merge func(worker string, p *Partial)) (shards, retries int, err error) {

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
			if err := c.runShard(runCtx, q, s, first, abort, &localRetries, merge); err != nil {
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

// parallelism resolves the dispatcher-pool size at sweep start.
func (c *Coordinator) parallelism() int {
	if c.opts.Parallelism > 0 {
		return c.opts.Parallelism
	}
	if live := len(c.fleet()); live > 0 {
		return 2 * live
	}
	return 1
}

// attemptResult carries one dispatch attempt's outcome back to the
// shard driver.
type attemptResult struct {
	m       *worker
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
// as failed instead of hanging the sweep. A claimed slot keeps its
// worker's scheduler state alive until it settles, so a worker that
// leaves and returns mid-attempt has this shard's accounting settle
// exactly once.
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
func (c *Coordinator) runShard(ctx context.Context, q Query, s Shard, first *worker,
	abort context.CancelCauseFunc, localRetries *atomic.Int64,
	merge func(worker string, p *Partial)) error {

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
	var primary *worker // the current non-speculative attempt's worker
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

	launch := func(m *worker, hedge bool) {
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
			// traceparent header, so the worker's phase spans land under
			// this one.
			spanCtx, span := c.tracer.Start(attemptCtx, "dispatch")
			span.SetAttr("worker", m.name)
			span.SetAttr("shard_start", strconv.Itoa(s.Start))
			span.SetAttr("designs", strconv.Itoa(s.Count))
			span.SetAttr("incumbent", strconv.Itoa(len(s.Incumbent)))
			if hedge {
				span.SetAttr("hedge", "true")
			}
			start := c.now()
			p, err := m.transport.Evaluate(spanCtx, q, s)
			elapsed := c.now().Sub(start)
			if err == nil {
				err = malformed(m.name, q, s, p)
			}
			// The status is the attempt's fault-taxonomy column.
			status := "ok"
			var rejected *WorkerRejection
			if errors.As(err, &rejected) {
				status = "rejected"
			} else if err != nil {
				status = "failed"
			}
			span.SetAttr("status", status)
			if err != nil {
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
				c.observe(o.m, s.Count, o.elapsed)
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
				// Left the fleet between assignment and dispatch; not
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
				if d := c.hedgeDelay(primary, s.Count); d > 0 {
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
				return fmt.Errorf("cluster: shard [%d,%d): no live workers", s.Start, s.Start+s.Count)
			}
			return fmt.Errorf("cluster: shard [%d,%d) failed on all %d workers: %w",
				s.Start, s.Start+s.Count, attempts, lastErr)
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
				c.observe(o.m, s.Count, o.elapsed)
				merge(o.m.name, o.p)
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
			if running > 0 {
				// The other attempt (primary or hedge) is still working
				// the shard; it is the de-facto re-dispatch, already
				// counted in the hedge series.
				c.noteFailure(o.m, false)
				continue
			}
			next := c.claimRetry(q.Benchmark, tried)
			// Every failed attempt is the worker's failure, but only a
			// failure with another worker left to try is a re-dispatch.
			c.noteFailure(o.m, next != nil)
			if next != nil {
				localRetries.Add(1)
			}
			m = next

		case <-hedgeC:
			hedgeC = nil
			if hedged || primary == nil {
				break
			}
			d := c.hedgeDelay(primary, s.Count)
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

// maxShardSpans bounds the trace spans one shard's answer may carry. A
// shard records three (its train, predict and merge phases); a flood
// would evict other jobs' traces from the owner's bounded store.
const maxShardSpans = 64

// malformed reports why a shard's partial must not merge: a worker that
// dropped designs, answered more candidates than the shard holds, scored
// them under another objective count or flooded its trace spans runs
// other code, and merging its answer could corrupt the job or index past
// a score slice on this dispatcher goroutine. The fleet is trusted over
// the answer: the shard re-dispatches like any failed attempt.
func malformed(worker string, q Query, s Shard, p *Partial) error {
	if len(p.Spans) > maxShardSpans {
		return fmt.Errorf("cluster: worker %s answered %d trace spans for one shard, at most %d", worker, len(p.Spans), maxShardSpans)
	}
	if p.Evaluated != s.Count || p.Feasible < 0 || p.Feasible > p.Evaluated || len(p.Candidates) > s.Count {
		return fmt.Errorf("cluster: worker %s answered %d evaluated, %d feasible and %d candidates for a %d-design shard",
			worker, p.Evaluated, p.Feasible, len(p.Candidates), s.Count)
	}
	for _, ic := range p.Candidates {
		if len(ic.Scores) != len(q.Objectives) {
			return fmt.Errorf("cluster: worker %s scored a candidate under %d objectives, not %d", worker, len(ic.Scores), len(q.Objectives))
		}
	}
	return nil
}

// hedgeDelay prices the speculation trigger for one attempt: HedgeFactor
// times the shard's expected duration — the worker's own per-design EWMA
// or, before it has one, the fleet's median — floored at HedgeMinDelay.
// Zero means "cannot price it yet": no latency observation exists
// anywhere, so speculation waits rather than doubling a cold fleet's
// first (possibly training-on-demand) shards.
func (c *Coordinator) hedgeDelay(m *worker, designs int) time.Duration {
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

// fleetEWMALocked is the median positive per-design EWMA across the
// workers the scheduler tracks — the expected speed of a worker that has
// not completed a shard yet.
func (c *Coordinator) fleetEWMALocked() float64 {
	var samples []float64
	for _, m := range c.workers {
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
// the HedgeStats totals).
func (c *Coordinator) noteHedge(result string) {
	c.metrics.hedges[result].Inc()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hedges[result]++
}

// HedgeStats reports lifetime hedge totals: speculative attempts issued,
// hedges whose answer merged first, and hedges that bought nothing.
func (c *Coordinator) HedgeStats() (issued, won, wasted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hedges[hedgeIssued], c.hedges[hedgeWon], c.hedges[hedgeWasted]
}

// observe books a completed shard: releases the worker's slot and folds
// the attempt latency into its per-design EWMA (the adaptive shard
// sizer's input).
func (c *Coordinator) observe(m *worker, designs int, elapsed time.Duration) {
	m.inst.shards.Inc()
	m.inst.latency.Observe(float64(elapsed.Microseconds()) / 1000)
	c.mu.Lock()
	defer c.mu.Unlock()
	m.inflight--
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
func (c *Coordinator) release(m *worker) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m.inflight--
}

// noteFailure books a transport failure (and optionally a re-dispatch)
// against a worker, releasing its slot.
func (c *Coordinator) noteFailure(m *worker, redispatched bool) {
	m.inst.failures.Inc()
	if redispatched {
		c.metrics.retries.Inc()
	}
	c.release(m)
}

// noteRejection books a deterministic 4xx verdict, releasing the slot.
// Rejections blame the request, not the worker: they are reported in
// their own column and never count toward fleet-health failures.
func (c *Coordinator) noteRejection(m *worker) {
	m.inst.rejections.Inc()
	c.release(m)
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

// Warm pre-places models: every benchmark is trained (or warm-started)
// on every live worker, concurrently per worker, so a following sweep's
// shards land on workers that already hold the models wherever the
// placement rule puts them. Like a sweep, a warm degrades through worker
// loss: per-worker failures are reported in the result, not allowed to
// void the placements that succeeded.
func (c *Coordinator) Warm(ctx context.Context, benchmarks []string) *WarmResult {
	fleet := c.fleet()
	if len(benchmarks) == 0 {
		return &WarmResult{}
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		res     = &WarmResult{Workers: len(fleet)}
		warmErr []error
	)
	for _, m := range fleet {
		wg.Add(1)
		go func(t Transport) {
			defer wg.Done()
			n, werr := t.Warm(ctx, benchmarks)
			mu.Lock()
			defer mu.Unlock()
			res.Trainings += n
			if werr != nil {
				warmErr = append(warmErr, fmt.Errorf("cluster: warming %v on %s: %w", benchmarks, t.Name(), werr))
			}
		}(m.Transport)
	}
	wg.Wait()
	res.Errors = warmErr
	return res
}
