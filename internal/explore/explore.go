// Package explore implements the end use-case the paper motivates:
// *informed* design space exploration. Once wavelet neural networks are
// trained for a workload, whole design spaces can be swept through the
// models at microseconds per design instead of minutes of detailed
// simulation — scoring every candidate's predicted dynamics, filtering by
// worst-case scenario constraints, and extracting Pareto frontiers.
//
// The evaluation engine shards candidates across a bounded worker pool
// (models are immutable after training, so concurrent Predict calls are
// safe), honours context cancellation, and always reports results in
// design order regardless of which worker scored which candidate. Three
// sweep shapes are offered:
//
//   - SweepContext materialises every candidate and its Pareto frontier —
//     the right tool up to a few hundred thousand designs.
//   - SweepStream feeds candidates through Collectors (TopK,
//     FrontierCollector) without retaining them, so million-design sweeps
//     hold only the answer alive.
//   - SweepWindow is SweepStream over a space.Window of a full-factorial
//     space: the workers walk the window in level-index space, scoring
//     precomputed per-level features and level indices, so neither the
//     design list nor a Config per design is built — a collector decodes
//     a Config only for the candidates it keeps.
package explore

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/space"
)

// Objective summarises a predicted dynamics trace into a scalar score.
type Objective struct {
	// Name labels the objective in reports.
	Name string
	// Score reduces a predicted trace to a scalar (lower is better).
	Score func(trace []float64) float64

	// mean marks MeanObjective, whose score is linear in the model's
	// coefficients: sweeps score it through core.MeanVecPredictor without
	// predicting the trace.
	mean bool
}

// MeanObjective scores by trace mean — aggregate behaviour. Sweeps score
// it in coefficient space (core.MeanVecPredictor) when the model supports
// that, which agrees with mathx.Mean of the predicted trace to rounding.
func MeanObjective(name string) Objective {
	return Objective{Name: name, Score: mathx.Mean, mean: true}
}

// WorstCaseObjective scores by trace maximum — the worst execution
// scenario, the quantity thermal/reliability provisioning cares about.
func WorstCaseObjective(name string) Objective {
	return Objective{Name: name, Score: mathx.Max}
}

// ExceedanceObjective scores by the fraction of samples at or above a
// threshold — the scenario-classification view of Figures 12–13. An empty
// trace exceeds nothing and scores 0.
func ExceedanceObjective(name string, threshold float64) Objective {
	return Objective{Name: name, Score: func(trace []float64) float64 {
		if len(trace) == 0 {
			return 0
		}
		n := 0
		for _, v := range trace {
			if v >= threshold {
				n++
			}
		}
		return float64(n) / float64(len(trace))
	}}
}

// Candidate is one evaluated design point.
type Candidate struct {
	Config space.Config
	// Scores[i] is the i-th objective's value (lower is better).
	Scores []float64
}

// Result is the outcome of a model-driven sweep.
type Result struct {
	Objectives []Objective
	// Evaluated is every candidate in design order.
	Evaluated []Candidate
	// Frontier is the Pareto-optimal subset (no candidate dominates
	// another on all objectives), sorted by the first objective.
	Frontier []Candidate
}

// Options tunes the evaluation engine.
type Options struct {
	// Workers bounds evaluation parallelism. 0 means GOMAXPROCS.
	Workers int
	// Progress, when set, receives cumulative completed-design counts as
	// the sweep proceeds (once per finished chunk). It is called
	// concurrently from worker goroutines and counts may arrive slightly
	// out of order; consumers wanting a monotone gauge keep the maximum.
	// It must be cheap — it sits on the evaluation hot path.
	Progress func(completed int)
	// ChunkDone, when set, receives each finished chunk's design count
	// and wall time — the per-chunk latency signal observability layers
	// feed into histograms. Like Progress it is called concurrently from
	// worker goroutines and must be cheap and allocation-free; when nil
	// the engine does not even read the clock.
	ChunkDone func(designs int, elapsed time.Duration)
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Sweep predicts dynamics for every design and scores it under each
// (model, objective) pair. models[i] produces the trace scored by
// objectives[i]; the two slices must align. It is SweepContext with a
// background context and default engine options.
func Sweep(designs []space.Config, models []core.DynamicsModel, objectives []Objective) (*Result, error) {
	//dsedlint:ignore ctxflow frozen pre-context compatibility wrapper; new callers use SweepContext
	return SweepContext(context.Background(), designs, models, objectives, Options{})
}

// SweepContext evaluates every design on a bounded worker pool and
// extracts the Pareto frontier. Results are in design order regardless of
// evaluation interleaving. On cancellation the context's error is
// returned and partial results are discarded.
func SweepContext(ctx context.Context, designs []space.Config, models []core.DynamicsModel, objectives []Objective, opts Options) (*Result, error) {
	if err := validateSweep(designs, models, objectives); err != nil {
		return nil, err
	}
	res := &Result{Objectives: objectives, Evaluated: make([]Candidate, len(designs))}
	// One flat backing array holds every candidate's scores: two
	// allocations for the whole sweep instead of one per design, and
	// workers' reusable score scratch is copied out here. Candidates are
	// assembled directly from designs, so each Config is copied into the
	// result exactly once.
	m := len(models)
	backing := make([]float64, len(designs)*m)
	err := evalChunks(ctx, source{designs: designs}, models, objectives, opts, func(c *chunk) {
		for j := 0; j < c.n; j++ {
			i := c.start + j
			dst := backing[i*m : (i+1)*m : (i+1)*m]
			copy(dst, c.scoresOf(j))
			res.Evaluated[i] = Candidate{Config: c.cfgs[j], Scores: dst}
		}
	})
	if err != nil {
		return nil, err
	}
	res.Frontier = ParetoFrontier(res.Evaluated)
	slices.SortStableFunc(res.Frontier, func(a, b Candidate) int {
		if a.Scores[0] < b.Scores[0] {
			return -1
		}
		if b.Scores[0] < a.Scores[0] {
			return 1
		}
		return 0
	})
	return res, nil
}

// Collector consumes evaluated candidates during a streaming sweep.
// SweepStream serialises Collect calls, so implementations need no
// internal locking; index identifies the design so collectors can stay
// deterministic under out-of-order arrival.
//
// The candidate's Scores slice is worker scratch, valid only for the
// duration of the Collect call — implementations must copy the values
// (not the slice) for anything they retain. TopK and FrontierCollector
// already do, recycling evicted buffers so steady-state collection stays
// allocation-free. Those two take a whole chunk at a time under their own
// lock instead, check each candidate's scores first, and decode its
// Config only when they keep it; their snapshot methods may be called
// while a sweep runs.
type Collector interface {
	Collect(index int, c Candidate)
}

// SweepStream evaluates every design on a bounded worker pool and streams
// each candidate into the collectors instead of materialising the sweep.
// Candidates arrive exactly once each, tagged with their design index,
// but not necessarily in order. Memory stays proportional to what the
// collectors retain, not to len(designs).
func SweepStream(ctx context.Context, designs []space.Config, models []core.DynamicsModel, objectives []Objective, opts Options, collectors ...Collector) error {
	if err := validateSweep(designs, models, objectives); err != nil {
		return err
	}
	return collect(ctx, source{designs: designs}, models, objectives, opts, collectors)
}

// SweepWindow is SweepStream over w.Designs() without materialising
// them: each worker walks its chunk of the window as level indices (see
// the package doc). Collectors see the same candidates with the same
// indices (counted from the window's start), so results are
// byte-identical to SweepStream over the materialised window.
func SweepWindow(ctx context.Context, w space.Window, models []core.DynamicsModel, objectives []Objective, opts Options, collectors ...Collector) error {
	if err := validateModels(models, objectives); err != nil {
		return err
	}
	if err := w.Validate(); err != nil {
		return fmt.Errorf("explore: %w", err)
	}
	return collect(ctx, source{win: &w}, models, objectives, opts, collectors)
}

// ParallelFor runs fn(i) for every i in [0, n) on a bounded worker pool
// (workers ≤ 0 means GOMAXPROCS) — the engine's claim-off-a-cursor shape
// for callers whose per-item work doesn't fit the sweep API. Iterations
// stop being claimed once ctx is cancelled (in-flight ones finish) and
// the context's error is returned. fn must be safe for concurrent
// invocation on distinct indices.
func ParallelFor(ctx context.Context, n, workers int, fn func(i int)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

func validateModels(models []core.DynamicsModel, objectives []Objective) error {
	if len(models) == 0 || len(models) != len(objectives) {
		return fmt.Errorf("explore: need matching models (%d) and objectives (%d)", len(models), len(objectives))
	}
	return nil
}

func validateSweep(designs []space.Config, models []core.DynamicsModel, objectives []Objective) error {
	if err := validateModels(models, objectives); err != nil {
		return err
	}
	if len(designs) == 0 {
		return fmt.Errorf("explore: no designs to sweep")
	}
	return nil
}

// Constraint bounds one objective during constrained selection.
type Constraint struct {
	// Objective indexes Result.Objectives.
	Objective int
	// Max is the largest admissible score.
	Max float64
}

// Best returns the feasible candidate minimising the given objective, or
// ok=false when no candidate satisfies every constraint.
func (r *Result) Best(objective int, constraints []Constraint) (Candidate, bool) {
	if objective < 0 || objective >= len(r.Objectives) {
		panic(fmt.Sprintf("explore: objective %d out of range", objective))
	}
	top := NewTopK(1, objective, constraints)
	for i, c := range r.Evaluated {
		top.Collect(i, c)
	}
	best := top.Results()
	if len(best) == 0 {
		return Candidate{}, false
	}
	return best[0], true
}

// Report renders the frontier.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "explored %d designs; Pareto frontier has %d points\n", len(r.Evaluated), len(r.Frontier))
	for _, c := range r.Frontier {
		b.WriteString("  ")
		for i, obj := range r.Objectives {
			fmt.Fprintf(&b, "%s=%.4f ", obj.Name, c.Scores[i])
		}
		b.WriteString("| ")
		b.WriteString(c.Config.String())
		b.WriteByte('\n')
	}
	return b.String()
}
