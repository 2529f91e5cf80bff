package explore

import (
	"context"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/space"
)

// flatModel predicts a constant trace whose level is a fixed function of
// the configuration — enough to test sweep mechanics without training.
type flatModel struct {
	f func(cfg space.Config) float64
}

func (m flatModel) Predict(cfg space.Config) []float64 {
	out := make([]float64, 8)
	for i := range out {
		out[i] = m.f(cfg)
	}
	return out
}

var _ core.DynamicsModel = flatModel{}

func testDesigns() []space.Config {
	levels := space.Levels{
		{2, 4, 8, 16}, {96}, {32}, {16}, {256, 1024}, {8}, {8}, {8}, {1},
	}
	return levels.FullFactorial(space.Baseline())
}

// cpiModel: wider machines are faster. powerModel: wider machines and
// bigger L2 burn more.
func testModels() []core.DynamicsModel {
	cpi := flatModel{f: func(c space.Config) float64 { return 8 / float64(c.FetchWidth) }}
	power := flatModel{f: func(c space.Config) float64 {
		return float64(c.FetchWidth)*3 + float64(c.L2SizeKB)/256
	}}
	return []core.DynamicsModel{cpi, power}
}

func sweepOrFatal(t *testing.T) *Result {
	t.Helper()
	res, err := SweepContext(context.Background(), testDesigns(), testModels(),
		[]Objective{MeanObjective("cpi"), MeanObjective("power")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSweepEvaluatesAllDesigns(t *testing.T) {
	res := sweepOrFatal(t)
	if len(res.Evaluated) != 8 { // 4 widths × 2 L2 sizes
		t.Fatalf("evaluated %d designs, want 8", len(res.Evaluated))
	}
}

func TestSweepDeterministicOrder(t *testing.T) {
	designs := testDesigns()
	models := testModels()
	objectives := []Objective{MeanObjective("cpi"), MeanObjective("power")}
	for _, workers := range []int{1, 2, 7} {
		res, err := SweepContext(context.Background(), designs, models, objectives, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range res.Evaluated {
			if c.Config != designs[i] {
				t.Fatalf("workers=%d: Evaluated[%d] holds %v, want design order", workers, i, c.Config)
			}
			if want := 8 / float64(designs[i].FetchWidth); c.Scores[0] != want {
				t.Fatalf("workers=%d: Evaluated[%d] score %v, want %v", workers, i, c.Scores[0], want)
			}
		}
	}
}

// countingModel tracks Predict calls so cancellation tests can observe
// early exit; safe under concurrent use.
type countingModel struct {
	calls *atomic.Int64
}

func (m countingModel) Predict(space.Config) []float64 {
	m.calls.Add(1)
	return []float64{1}
}

func TestSweepCancellation(t *testing.T) {
	designs := make([]space.Config, 50000)
	for i := range designs {
		designs[i] = space.Baseline()
	}
	var calls atomic.Int64
	models := []core.DynamicsModel{countingModel{calls: &calls}}
	objectives := []Objective{MeanObjective("x")}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the sweep starts
	if _, err := SweepContext(ctx, designs, models, objectives, Options{Workers: 4}); err != context.Canceled {
		t.Fatalf("cancelled sweep error = %v, want context.Canceled", err)
	}
	// Workers check the context per chunk, so at most workers×chunk
	// evaluations can slip through — far fewer than the full space.
	if n := calls.Load(); n >= int64(len(designs)) {
		t.Fatalf("cancelled sweep still evaluated all %d designs", n)
	}
}

func TestSweepParallelMatchesSequential(t *testing.T) {
	rng := mathx.NewRNG(3)
	designs := space.Random(500, space.TrainLevels(), space.Baseline(), rng)
	models := testModels()
	objectives := []Objective{MeanObjective("cpi"), WorstCaseObjective("power")}
	seq, err := SweepContext(context.Background(), designs, models, objectives, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := SweepContext(context.Background(), designs, models, objectives, Options{Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Evaluated) != len(par.Evaluated) || len(seq.Frontier) != len(par.Frontier) {
		t.Fatalf("parallel sweep shape differs: %d/%d vs %d/%d",
			len(seq.Evaluated), len(seq.Frontier), len(par.Evaluated), len(par.Frontier))
	}
	for i := range seq.Evaluated {
		if seq.Evaluated[i].Scores[0] != par.Evaluated[i].Scores[0] ||
			seq.Evaluated[i].Scores[1] != par.Evaluated[i].Scores[1] {
			t.Fatalf("candidate %d differs between sequential and parallel sweeps", i)
		}
	}
}

func TestParetoFrontierShape(t *testing.T) {
	res := sweepOrFatal(t)
	// For each width, only the small-L2 variant can be on the frontier
	// (same CPI, less power) → exactly 4 frontier points.
	if len(res.Frontier) != 4 {
		t.Fatalf("frontier size %d, want 4: %v", len(res.Frontier), res.Frontier)
	}
	for _, c := range res.Frontier {
		if c.Config.L2SizeKB != 256 {
			t.Errorf("dominated large-L2 config on frontier: %v", c.Config)
		}
	}
	// Sorted by CPI ascending → width descending.
	for i := 1; i < len(res.Frontier); i++ {
		if res.Frontier[i].Scores[0] < res.Frontier[i-1].Scores[0] {
			t.Error("frontier not sorted by first objective")
		}
	}
}

func TestNoFrontierPointDominated(t *testing.T) {
	res := sweepOrFatal(t)
	for i, a := range res.Frontier {
		for j, b := range res.Frontier {
			if i != j && dominatesScores(a.Scores, b.Scores) {
				t.Errorf("frontier point %v dominates frontier point %v", a, b)
			}
		}
	}
}

func TestBestWithConstraints(t *testing.T) {
	res := sweepOrFatal(t)
	// Fastest machine under a power cap of 14: width 4 (12+1) beats
	// width 8 (24+1 — over cap).
	best, ok := res.Best(0, []Constraint{{Objective: 1, Max: 14}})
	if !ok {
		t.Fatal("expected a feasible candidate")
	}
	if best.Config.FetchWidth != 4 {
		t.Errorf("best under power cap = width %d, want 4", best.Config.FetchWidth)
	}
	// Impossible constraint.
	if _, ok := res.Best(0, []Constraint{{Objective: 1, Max: 0.1}}); ok {
		t.Error("infeasible constraints should report not-found")
	}
	// Unconstrained best CPI is the widest machine.
	best, _ = res.Best(0, nil)
	if best.Config.FetchWidth != 16 {
		t.Errorf("unconstrained best = width %d, want 16", best.Config.FetchWidth)
	}
}

func TestSweepValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := SweepContext(ctx, nil, testModels(), []Objective{MeanObjective("a"), MeanObjective("b")}, Options{}); err == nil {
		t.Error("empty design list should fail")
	}
	if _, err := SweepContext(ctx, testDesigns(), testModels(), []Objective{MeanObjective("a")}, Options{}); err == nil {
		t.Error("model/objective mismatch should fail")
	}
}

func TestObjectives(t *testing.T) {
	trace := []float64{1, 5, 2, 4}
	if got := MeanObjective("m").Score(trace); got != 3 {
		t.Errorf("mean objective = %v, want 3", got)
	}
	if got := WorstCaseObjective("w").Score(trace); got != 5 {
		t.Errorf("worst-case objective = %v, want 5", got)
	}
	if got := ExceedanceObjective("e", 4).Score(trace); got != 0.5 {
		t.Errorf("exceedance objective = %v, want 0.5", got)
	}
	if got := ExceedanceObjective("e", 4).Score(nil); got != 0 {
		t.Errorf("exceedance of empty trace = %v, want 0 (not NaN)", got)
	}
}

func TestReportLists(t *testing.T) {
	res := sweepOrFatal(t)
	rep := res.Report()
	if !strings.Contains(rep, "Pareto frontier") || !strings.Contains(rep, "cpi=") {
		t.Errorf("report incomplete:\n%s", rep)
	}
}

// referenceFrontier is the O(n²) pairwise scan the fast algorithms must
// reproduce exactly.
func referenceFrontier(cands []Candidate) []Candidate {
	var out []Candidate
	for i, c := range cands {
		dominated := false
		for j, o := range cands {
			if i != j && dominatesScores(o.Scores, c.Scores) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, c)
		}
	}
	return out
}

func sortedScoreSet(cands []Candidate) [][]float64 {
	out := make([][]float64, len(cands))
	for i, c := range cands {
		out[i] = c.Scores
	}
	sort.SliceStable(out, func(a, b int) bool { return lexLess(out[a], out[b]) })
	return out
}

// lexLess is the order sorted frontiers follow (lexCmp), as a less
// function for sort.SliceStable references.
func lexLess(a, b []float64) bool { return lexCmp(a, b) < 0 }

func sameFrontier(a, b []Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	sa, sb := sortedScoreSet(a), sortedScoreSet(b)
	for i := range sa {
		for j := range sa[i] {
			if sa[i][j] != sb[i][j] {
				return false
			}
		}
	}
	return true
}

func randomCandidates(rng *mathx.RNG, n, dims, levels int) []Candidate {
	cands := make([]Candidate, n)
	for i := range cands {
		scores := make([]float64, dims)
		for d := range scores {
			scores[d] = float64(rng.Intn(levels))
		}
		cands[i] = Candidate{Scores: scores}
	}
	return cands
}

// Property: the fast frontier matches the brute-force reference exactly —
// on discrete grids (heavy ties and duplicates) across 1, 2, 3 and 4
// objectives, which exercises the 1-D scan, the 2-D sorted sweep, and the
// divide-and-conquer path including its non-trivial split.
func TestParetoFrontierMatchesReference(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		dims := 1 + rng.Intn(4)
		n := 2 + rng.Intn(200)
		cands := randomCandidates(rng, n, dims, 2+rng.Intn(7))
		return sameFrontier(ParetoFrontier(cands), referenceFrontier(cands))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
	// Force the divide-and-conquer recursion well past its base case.
	rng := mathx.NewRNG(99)
	cands := randomCandidates(rng, 1500, 3, 12)
	if !sameFrontier(ParetoFrontier(cands), referenceFrontier(cands)) {
		t.Error("divide-and-conquer frontier diverges from reference at n=1500, d=3")
	}
}

// Property: the frontier is exactly the non-dominated subset — every
// evaluated candidate is either on the frontier or dominated by a frontier
// point.
func TestFrontierCoversProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		cands := randomCandidates(rng, 2+rng.Intn(30), 2, 8)
		frontier := ParetoFrontier(cands)
		for _, c := range cands {
			covered := false
			for _, fc := range frontier {
				if dominatesScores(fc.Scores, c.Scores) ||
					(fc.Scores[0] == c.Scores[0] && fc.Scores[1] == c.Scores[1]) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTopKStreaming(t *testing.T) {
	top := NewTopK(3, 0, []Constraint{{Objective: 1, Max: 10}})
	// Feed out of order; scores: objective 0 value i, objective 1
	// feasibility gate (odd i infeasible).
	order := []int{7, 2, 9, 0, 5, 1, 8, 3, 6, 4}
	for _, i := range order {
		gate := 0.0
		if i%2 == 1 {
			gate = 99
		}
		top.Collect(i, Candidate{Scores: []float64{float64(i), gate}})
	}
	got := top.Results()
	if len(got) != 3 {
		t.Fatalf("TopK kept %d candidates, want 3", len(got))
	}
	for i, want := range []float64{0, 2, 4} {
		if got[i].Scores[0] != want {
			t.Errorf("TopK result %d = %v, want %v", i, got[i].Scores[0], want)
		}
	}
	if top.Seen() != 10 || top.Feasible() != 5 {
		t.Errorf("TopK seen/feasible = %d/%d, want 10/5", top.Seen(), top.Feasible())
	}
}

func TestTopKDeterministicTies(t *testing.T) {
	// All scores equal: the lowest design indices must win regardless of
	// arrival order.
	arrivals := [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 4, 0, 3, 1}}
	var first []int
	for _, order := range arrivals {
		top := NewTopK(2, 0, nil)
		for _, i := range order {
			top.Collect(i, Candidate{Config: space.Baseline().WithSweptValues([space.NumParams]int{i + 1, 96, 32, 16, 256, 8, 8, 8, 1}), Scores: []float64{7}})
		}
		var picked []int
		for _, c := range top.Results() {
			picked = append(picked, c.Config.FetchWidth-1)
		}
		if first == nil {
			first = picked
			continue
		}
		for i := range first {
			if picked[i] != first[i] {
				t.Fatalf("tie-breaking depends on arrival order: %v vs %v", picked, first)
			}
		}
	}
	if first[0] != 0 || first[1] != 1 {
		t.Fatalf("ties should keep lowest indices, got %v", first)
	}
}

func TestFrontierCollectorMatchesBatch(t *testing.T) {
	rng := mathx.NewRNG(17)
	cands := randomCandidates(rng, 400, 2, 6)
	fc := NewFrontierCollector()
	for i, c := range cands {
		fc.Collect(i, c)
	}
	if !sameFrontier(fc.Frontier(), ParetoFrontier(cands)) {
		t.Error("streaming frontier diverges from batch frontier")
	}
	if fc.Seen() != 400 {
		t.Errorf("collector saw %d candidates, want 400", fc.Seen())
	}
}

func TestSweepStreamTopK(t *testing.T) {
	designs := testDesigns()
	models := testModels()
	objectives := []Objective{MeanObjective("cpi"), MeanObjective("power")}
	top := NewTopK(1, 0, []Constraint{{Objective: 1, Max: 14}})
	fc := NewFrontierCollector()
	err := SweepStream(context.Background(), designs, models, objectives,
		Options{Workers: 4}, top, fc)
	if err != nil {
		t.Fatal(err)
	}
	best := top.Results()
	if len(best) != 1 || best[0].Config.FetchWidth != 4 {
		t.Fatalf("streaming best under power cap = %v, want width 4", best)
	}
	// Must agree with the materialised sweep.
	res := sweepOrFatal(t)
	if !sameFrontier(fc.Frontier(), res.Frontier) {
		t.Error("streaming frontier diverges from materialised sweep frontier")
	}
	if math.IsNaN(best[0].Scores[0]) {
		t.Error("NaN score leaked through streaming sweep")
	}
}
