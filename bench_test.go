// Benchmark harness: one benchmark per paper table/figure (DESIGN.md §4).
//
//	go test -bench=. -benchmem
//
// Each benchmark regenerates its artifact at QuickScale and reports the
// headline number the paper plots (median or mean MSE%, asymmetry, …) via
// b.ReportMetric, so trend comparisons against the paper need only the
// bench output. Use cmd/dse -scale paper for the full protocol.
package repro

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/mathx"
	"repro/internal/rbf"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/thermal"
	"repro/internal/wavelet"
	"repro/internal/workload"
)

var (
	campaignOnce sync.Once
	campaign     *experiments.Campaign
	campaignErr  error
)

// benchCampaign lazily builds one shared campaign so dataset simulation
// costs are paid once across the whole bench run.
func benchCampaign(b *testing.B) *experiments.Campaign {
	b.Helper()
	campaignOnce.Do(func() {
		campaign, campaignErr = experiments.NewCampaign(experiments.QuickScale())
	})
	if campaignErr != nil {
		b.Fatal(campaignErr)
	}
	return campaign
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table2() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig1DynamicsVariation(b *testing.B) {
	c := benchCampaign(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(c)
		if err != nil {
			b.Fatal(err)
		}
		// Report the CPI dynamic range of gap on the baseline config.
		s := r.Rows[0].Series[1]
		b.ReportMetric(mathx.Max(s)/mathx.Min(s), "gap-CPI-range")
	}
}

func BenchmarkFig2HaarExample(b *testing.B) {
	data := []float64{3, 4, 20, 25, 15, 5, 20, 3}
	for i := 0; i < b.N; i++ {
		coeffs, err := wavelet.Haar{}.Decompose(data)
		if err != nil {
			b.Fatal(err)
		}
		if coeffs[0] != 11.875 {
			b.Fatal("wrong decomposition")
		}
	}
}

func BenchmarkFig4Reconstruction(b *testing.B) {
	c := benchCampaign(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(c)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MSEs[4], "MSE-at-k16")
	}
}

func BenchmarkFig7RankStability(b *testing.B) {
	c := benchCampaign(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(c, "gcc")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanSpearman, "spearman")
		b.ReportMetric(100*r.TopKOverlap, "topk-overlap-%")
	}
}

func BenchmarkFig8AccuracyBoxplots(b *testing.B) {
	c := benchCampaign(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(c)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.OverallMedian(0), "CPI-med-MSE%")
		b.ReportMetric(r.OverallMedian(1), "Power-med-MSE%")
		b.ReportMetric(r.OverallMedian(2), "AVF-med-MSE%")
	}
}

func BenchmarkFig9CoefficientTrend(b *testing.B) {
	c := benchCampaign(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(c, []int{4, 8, 16, 32})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Mean[0][0], "CPI-MSE%-k4")
		b.ReportMetric(r.Mean[0][2], "CPI-MSE%-k16")
	}
}

func BenchmarkFig10SamplingTrend(b *testing.B) {
	c := benchCampaign(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(c, []int{16, 32, 64})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Mean[0][0], "CPI-MSE%-n16")
		b.ReportMetric(r.Mean[0][2], "CPI-MSE%-n64")
	}
}

func BenchmarkFig11StarPlots(b *testing.B) {
	c := benchCampaign(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(c)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.ByOrder) != 3 {
			b.Fatal("missing star plots")
		}
	}
}

func BenchmarkFig13ScenarioClassification(b *testing.B) {
	c := benchCampaign(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13(c)
		if err != nil {
			b.Fatal(err)
		}
		// Mean asymmetry across benchmarks, CPI domain, Q2 level.
		var sum float64
		for bi := range r.Benchmarks {
			sum += r.Asymmetry[0][bi][1]
		}
		b.ReportMetric(sum/float64(len(r.Benchmarks)), "CPI-Q2-asym%")
	}
}

func BenchmarkFig14TraceOverlay(b *testing.B) {
	c := benchCampaign(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig14(c, "bzip2")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MSEs[0], "bzip2-CPI-MSE%")
	}
}

func BenchmarkFig17DVMScenarios(b *testing.B) {
	c := benchCampaign(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig17(c, "gcc", 0.3)
		if err != nil {
			b.Fatal(err)
		}
		agree := 0.0
		for _, sc := range r.Scenarios {
			if sc.ActualAchieved == sc.PredictAchieved {
				agree++
			}
		}
		b.ReportMetric(agree/float64(len(r.Scenarios)), "forecast-agreement")
	}
}

func BenchmarkFig18DVMHeatPlot(b *testing.B) {
	c := benchCampaign(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig18(c, 0.3)
		if err != nil {
			b.Fatal(err)
		}
		var all []float64
		for _, row := range r.IQAVF {
			all = append(all, row...)
		}
		b.ReportMetric(mathx.Median(all), "IQAVF-med-MSE%")
	}
}

func BenchmarkFig19DVMThresholds(b *testing.B) {
	c := benchCampaign(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig19(c, []float64{0.2, 0.3, 0.5})
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		var n int
		for _, row := range r.MSE {
			for _, v := range row {
				sum += v
				n++
			}
		}
		b.ReportMetric(sum/float64(n), "IQAVF-mean-MSE%")
	}
}

func BenchmarkAblationSelection(b *testing.B) {
	c := benchCampaign(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationSelection(c)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Mean[0], "magnitude-MSE%")
		b.ReportMetric(r.Mean[1], "order-MSE%")
	}
}

func BenchmarkAblationModels(b *testing.B) {
	c := benchCampaign(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationModels(c)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Mean[0], "waveletRBF-MSE%")
		b.ReportMetric(r.Mean[1], "linear-MSE%")
		b.ReportMetric(r.Mean[2], "globalANN-MSE%")
	}
}

func BenchmarkAblationSampling(b *testing.B) {
	c := benchCampaign(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationSampling(c)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Mean[0], "LHS-MSE%")
		b.ReportMetric(r.Mean[1], "random-MSE%")
	}
}

// Exploration-engine benchmarks: the model-driven sweep and frontier
// extraction paths the daemon serves.

var (
	exploreOnce      sync.Once
	exploreModels    []core.DynamicsModel
	exploreModelsErr error
)

// benchExploreModels trains two real wavelet-RBF predictors on synthetic
// traces (no simulation), so BenchmarkExploreSweep measures genuine
// Predict cost per candidate.
func benchExploreModels(b *testing.B) []core.DynamicsModel {
	b.Helper()
	exploreOnce.Do(func() {
		rng := mathx.NewRNG(7)
		designs := space.SampleDesign(48, space.TrainLevels(), space.Baseline(), 4, rng)
		cpi := make([][]float64, len(designs))
		pow := make([][]float64, len(designs))
		for i, cfg := range designs {
			x := cfg.Vector()
			cpiTr := make([]float64, 64)
			powTr := make([]float64, 64)
			for t := range cpiTr {
				phase := math.Sin(float64(t) / 9)
				cpiTr[t] = 0.5 + 2*(1-x[0]) + 0.3*x[5] + 0.2*phase
				powTr[t] = 20 + 60*x[0] + 10*x[4] + 3*phase
			}
			cpi[i] = cpiTr
			pow[i] = powTr
		}
		opts := core.Options{NumCoefficients: 8}
		cpiModel, err := core.Train(designs, cpi, opts)
		if err != nil {
			exploreModelsErr = err
			return
		}
		powModel, err := core.Train(designs, pow, opts)
		if err != nil {
			exploreModelsErr = err
			return
		}
		exploreModels = []core.DynamicsModel{cpiModel, powModel}
	})
	if exploreModelsErr != nil {
		b.Fatal(exploreModelsErr)
	}
	return exploreModels
}

// BenchmarkExploreSweep compares the sequential and pooled evaluation
// paths at 16k designs; the designs/sec metrics expose the multi-core
// speedup the daemon relies on.
func BenchmarkExploreSweep(b *testing.B) {
	models := benchExploreModels(b)
	rng := mathx.NewRNG(3)
	designs := space.Random(16384, space.TrainLevels(), space.Baseline(), rng)
	objectives := []explore.Objective{
		explore.MeanObjective("cpi"),
		explore.WorstCaseObjective("power"),
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=max", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := explore.SweepContext(context.Background(), designs, models,
					objectives, explore.Options{Workers: bc.workers})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Frontier) == 0 {
					b.Fatal("empty frontier")
				}
			}
			b.ReportMetric(float64(len(designs))*float64(b.N)/b.Elapsed().Seconds(), "designs/s")
		})
	}
}

// BenchmarkPredictBatch measures the zero-allocation batch inference path
// in isolation: one trained wavelet-RBF model, 1k designs, reused output
// buffers. This is the per-model cost BenchmarkExploreSweep multiplies by
// models × designs, and the CI perf gate watches it alongside the sweep.
func BenchmarkPredictBatch(b *testing.B) {
	models := benchExploreModels(b)
	p, ok := models[0].(*core.Predictor)
	if !ok {
		b.Fatalf("bench model is %T, want *core.Predictor", models[0])
	}
	rng := mathx.NewRNG(5)
	designs := space.Random(1024, space.TrainLevels(), space.Baseline(), rng)
	var dst [][]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = p.PredictBatch(designs, dst)
		if len(dst) != len(designs) {
			b.Fatal("short batch")
		}
	}
	b.ReportMetric(float64(len(designs))*float64(b.N)/b.Elapsed().Seconds(), "designs/s")
}

// BenchmarkRBFPredict isolates one RBF network evaluation — the innermost
// kernel under everything above (each wavelet coefficient is one such
// network). Gated in CI so a kernel-level regression is caught even when
// coarser benchmarks absorb it in noise.
func BenchmarkRBFPredict(b *testing.B) {
	rng := mathx.NewRNG(9)
	const dims = 9
	xs := make([][]float64, 192)
	ys := make([]float64, len(xs))
	for i := range xs {
		x := make([]float64, dims)
		for d := range x {
			x[d] = rng.Float64()
		}
		xs[i] = x
		ys[i] = math.Sin(3*x[0]) + 0.5*x[1]*x[2] + 0.1*x[8]
	}
	net, err := rbf.Train(xs, ys, rbf.Options{})
	if err != nil {
		b.Fatal(err)
	}
	probe := xs[17]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := net.Predict(probe); math.IsNaN(v) {
			b.Fatal("NaN prediction")
		}
	}
}

// BenchmarkRBFPredictLevels is BenchmarkRBFPredict on the path a
// level-driven sweep takes: a network trained on Table 2 designs with the
// canonical feature levels declared, evaluated at on-level designs, so
// each call is one shared exponential plus one level-table lookup. Each
// op evaluates 1024 designs, keeping a 10-iteration CI run well above
// timer resolution.
func BenchmarkRBFPredictLevels(b *testing.B) {
	rng := mathx.NewRNG(9)
	train := space.SampleDesign(48, space.TrainLevels(), space.Baseline(), 4, rng)
	xs := make([][]float64, len(train))
	ys := make([]float64, len(xs))
	for i, cfg := range train {
		x := cfg.Vector()
		xs[i] = x
		ys[i] = math.Sin(3*x[0]) + 0.5*x[1]*x[2] + 0.1*x[8]
	}
	net, err := rbf.Train(xs, ys, rbf.Options{DimLevels: space.FeatureLevels(false)})
	if err != nil {
		b.Fatal(err)
	}
	designs := space.Random(1024, space.TrainLevels(), space.Baseline(), rng)
	probes := make([][]float64, len(designs))
	for i, cfg := range designs {
		probes[i] = cfg.Vector()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range probes {
			if v := net.Predict(x); math.IsNaN(v) {
				b.Fatal("NaN prediction")
			}
		}
	}
	b.ReportMetric(float64(len(probes))*float64(b.N)/b.Elapsed().Seconds(), "designs/s")
}

// bruteDominates mirrors the O(n²) reference scan so BenchmarkParetoFrontier
// can report the speedup of the sorted algorithms over it.
func bruteDominates(a, b explore.Candidate) bool {
	strictly := false
	for i := range a.Scores {
		if a.Scores[i] > b.Scores[i] {
			return false
		}
		if a.Scores[i] < b.Scores[i] {
			strictly = true
		}
	}
	return strictly
}

func bruteParetoFrontier(cands []explore.Candidate) []explore.Candidate {
	var out []explore.Candidate
	for i, c := range cands {
		dominated := false
		for j, o := range cands {
			if i != j && bruteDominates(o, c) {
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

func randomBenchCandidates(n, dims int) []explore.Candidate {
	rng := mathx.NewRNG(11)
	cands := make([]explore.Candidate, n)
	for i := range cands {
		scores := make([]float64, dims)
		for d := range scores {
			scores[d] = rng.Float64()
		}
		cands[i] = explore.Candidate{Scores: scores}
	}
	return cands
}

func BenchmarkParetoFrontier(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
		dims int
		fn   func([]explore.Candidate) []explore.Candidate
	}{
		{"fast-n=1k-d=2", 1000, 2, explore.ParetoFrontier},
		{"brute-n=1k-d=2", 1000, 2, bruteParetoFrontier},
		{"fast-n=10k-d=2", 10000, 2, explore.ParetoFrontier},
		{"brute-n=10k-d=2", 10000, 2, bruteParetoFrontier},
		{"fast-n=10k-d=3", 10000, 3, explore.ParetoFrontier},
		{"fast-n=100k-d=2", 100000, 2, explore.ParetoFrontier},
	} {
		cands := randomBenchCandidates(bc.n, bc.dims)
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if len(bc.fn(cands)) == 0 {
					b.Fatal("empty frontier")
				}
			}
		})
	}
}

// Component micro-benchmarks: substrate throughput numbers.

func BenchmarkSimulatorThroughput(b *testing.B) {
	tr, err := sim.Run(space.Baseline(), "gcc", sim.Options{Instructions: 65536, Samples: 16})
	if err != nil {
		b.Fatal(err)
	}
	_ = tr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(space.Baseline(), "gcc", sim.Options{Instructions: 65536, Samples: 16}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(65536*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

func BenchmarkWaveletDecompose128(b *testing.B) {
	rng := mathx.NewRNG(1)
	data := make([]float64, 128)
	for i := range data {
		data[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (wavelet.Haar{}).Decompose(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadGeneration(b *testing.B) {
	p, _ := workload.ProfileByName("gcc")
	gen := workload.MustNewGenerator(p)
	var inst workload.Inst
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next(&inst)
	}
}

func BenchmarkExtThermal(b *testing.B) {
	c := benchCampaign(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExtThermal(c, thermal.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		var all []float64
		for _, row := range r.MSE {
			all = append(all, row...)
		}
		b.ReportMetric(mathx.Median(all), "temp-med-MSE%")
	}
}

// BenchmarkExploreSweepFactorial sweeps the whole 245,760-design train
// factorial through two synthetic Haar models under two mean objectives,
// enumerated by the workers as a window in level-index space rather than
// materialised. The collector=frontier cases feed a FrontierCollector;
// these synthetic models put 3,543 points on the frontier, so collection
// dominates those ops (the gcc CPI/Power frontier has ~50). The
// collector=topk cases feed a constrained TopK, which keeps almost
// nothing, and so measure the scoring path itself.
func BenchmarkExploreSweepFactorial(b *testing.B) {
	models := benchExploreModels(b)
	levels := space.TrainLevels()
	w := space.Window{Levels: levels, Base: space.Baseline(), Count: levels.NumDesigns()}
	objectives := []explore.Objective{
		explore.MeanObjective("cpi"),
		explore.MeanObjective("power"),
	}
	for _, bc := range []struct {
		name    string
		workers int
		topk    bool
	}{
		{"workers=1", 1, false}, {"workers=max", 0, false},
		{"collector=topk/workers=1", 1, true}, {"collector=topk/workers=max", 0, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var seen func() int
				var col explore.Collector
				if bc.topk {
					top := explore.NewTopK(10, 0, []explore.Constraint{{Objective: 1, Max: 60}})
					seen, col = top.Seen, top
				} else {
					fc := explore.NewFrontierCollector()
					seen, col = fc.Seen, fc
				}
				if err := explore.SweepWindow(context.Background(), w, models, objectives,
					explore.Options{Workers: bc.workers}, col); err != nil {
					b.Fatal(err)
				}
				if seen() != w.Count {
					b.Fatal("incomplete sweep")
				}
			}
			b.ReportMetric(float64(w.Count)*float64(b.N)/b.Elapsed().Seconds(), "designs/s")
		})
	}
}

// BenchmarkSampleDesign draws the sampled-space shape a `sample` job
// draws: the best of 4 LHS candidates of 128 train-level designs by
// L2-star discrepancy. Each op is one draw; designs/s counts the designs
// it returns.
func BenchmarkSampleDesign(b *testing.B) {
	const n, candidates = 128, 4
	for i := 0; i < b.N; i++ {
		if got := space.SampleDesign(n, space.TrainLevels(), space.Baseline(), candidates, mathx.NewRNG(uint64(i)+1)); len(got) != n {
			b.Fatalf("sample drew %d designs, want %d", len(got), n)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "designs/s")
}
