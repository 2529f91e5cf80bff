// Package core implements the paper's primary contribution: wavelet neural
// networks for workload-dynamics prediction across the microarchitecture
// design space (Section 2.3, Figure 6).
//
// The hybrid scheme has three stages:
//
//  1. Each training trace (a fixed-length sampled time series of CPI, power
//     or AVF) is decomposed by a discrete wavelet transform.
//  2. A small set of important wavelet coefficient positions is selected
//     (magnitude-based by default: the paper shows the magnitude ranking is
//     stable across configurations, Figure 7). One RBF neural network is
//     trained per selected position, mapping the normalised configuration
//     vector to that coefficient's value.
//  3. To predict the dynamics at an unseen configuration, the per-position
//     networks are evaluated, unselected positions are zero-filled, and the
//     inverse wavelet transform reconstructs the time-domain trace.
//
// Baseline models from the related work the paper compares against
// (monolithic "global" networks predicting aggregate behaviour, and linear
// models) live in baseline.go.
package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/mathx"
	"repro/internal/rbf"
	"repro/internal/space"
	"repro/internal/wavelet"
)

// Selection chooses which wavelet coefficients are modelled.
type Selection int

const (
	// SelectMagnitude keeps the k positions with the largest mean
	// magnitude across the training set (the paper's preferred scheme).
	SelectMagnitude Selection = iota
	// SelectOrder keeps the first k positions (coarsest scales first).
	SelectOrder
)

// String names the selection scheme.
func (s Selection) String() string {
	if s == SelectMagnitude {
		return "magnitude"
	}
	return "order"
}

// Options configures predictor training.
type Options struct {
	// Wavelet is the analysing transform. Default wavelet.Haar{}.
	Wavelet wavelet.Transform
	// NumCoefficients is k, the number of modelled wavelet coefficients.
	// Default 16 (the paper's accuracy/complexity sweet spot, Figure 9).
	NumCoefficients int
	// Selection is the coefficient selection scheme. Default magnitude.
	Selection Selection
	// RBF configures the per-coefficient networks.
	RBF rbf.Options
	// UseDVMFeatures switches the input encoding to the 11-feature
	// vector that includes the DVM design parameter (Section 5).
	UseDVMFeatures bool
}

func (o Options) withDefaults() Options {
	if o.Wavelet == nil {
		o.Wavelet = wavelet.Haar{}
	}
	if o.NumCoefficients <= 0 {
		o.NumCoefficients = 16
	}
	if o.RBF.DimLevels == nil {
		// Declare the canonical Table 2 feature levels so the RBF networks
		// adopt the factored kernel and tabulate it over the declared
		// levels: a level-driven sweep then costs each network one shared
		// exponential and one table lookup. Off-level inputs still work
		// (the factors are computed on the fly), so this only chooses the
		// kernel's evaluation strategy; callers may override it with their
		// own declaration.
		o.RBF.DimLevels = space.FeatureLevels(o.UseDVMFeatures)
	}
	return o
}

// Predictor forecasts one benchmark's dynamics in one metric domain across
// the design space.
type Predictor struct {
	opts     Options
	traceLen int
	selected []int
	nets     []*rbf.Network

	// basis holds one reconstruction basis vector per selected coefficient
	// position: basis[i] = Reconstruct(e_selected[i]). Wavelet
	// reconstruction is linear, so a predicted trace is the sum of the
	// per-coefficient predictions scaled onto these precomputed vectors —
	// Predict never runs an inverse transform and never allocates a
	// coefficient buffer. basisLo/basisHi bound each vector's nonzero
	// support (fine-scale wavelets are localised), so accumulation skips
	// the zero tails.
	basis   [][]float64
	basisLo []int
	basisHi []int
	// basisMean[i] is mathx.Mean(basis[i]). The trace mean is linear in
	// the coefficients, so PredictMeanVec scores it as Σ c_i·basisMean[i]
	// without reconstructing the trace. In the paper's Haar form the
	// average coefficient's basis mean is exactly 1 and every detail's is
	// exactly 0, so a mean costs one network.
	basisMean []float64

	// levels is the level declaration every factored network shares
	// (nil when they do not share one). PredictVecInto resolves a design's
	// level indices against it once and hands them to all k networks.
	levels [][]float64
}

// bindBasis precomputes everything inference derives from the transform
// and the selected positions: the reconstruction basis, its supports and
// means, and the networks' shared level declaration. Train and Load both
// end here, so a loaded predictor runs exactly the trained one's paths.
func (p *Predictor) bindBasis() {
	p.basis = waveletBasis(p.opts.Wavelet, p.traceLen, p.selected)
	p.basisLo, p.basisHi = basisSpans(p.basis)
	p.basisMean = basisMeans(p.basis)
	p.bindLevels()
}

// bindLevels records the networks' shared level declaration. A network on
// the fused kernel ignores level indices; if two factored networks were
// bound to different declarations, levels stays nil and each network
// resolves its own.
func (p *Predictor) bindLevels() {
	p.levels = nil
	for _, net := range p.nets {
		l := net.DimLevels()
		if l == nil {
			continue
		}
		if p.levels == nil {
			p.levels = l
		} else if !slices.EqualFunc(p.levels, l, slices.Equal[[]float64]) {
			p.levels = nil
			return
		}
	}
}

// featureVector applies the configured input encoding.
func (o Options) featureVector(cfg space.Config) []float64 {
	if o.UseDVMFeatures {
		return cfg.VectorDVM()
	}
	return cfg.Vector()
}

// featureVectorInto applies the configured input encoding, appending to dst
// (usually the [:0] of stack scratch sized space.MaxFeatures) so the hot
// path encodes features without heap allocation. cfg is by pointer to
// avoid a per-call Config copy at model-query rates.
func (o Options) featureVectorInto(cfg *space.Config, dst []float64) []float64 {
	if o.UseDVMFeatures {
		return cfg.VectorDVMInto(dst)
	}
	return cfg.VectorInto(dst)
}

// numFeatures is the width of the configured input encoding.
func (o Options) numFeatures() int {
	if o.UseDVMFeatures {
		return space.MaxFeatures
	}
	return space.NumParams
}

// waveletBasis precomputes the reconstruction basis vectors for the
// selected coefficient positions: column pos of the inverse transform,
// obtained by reconstructing the unit coefficient vector e_pos.
func waveletBasis(w wavelet.Transform, traceLen int, selected []int) [][]float64 {
	unit := make([]float64, traceLen)
	basis := make([][]float64, len(selected))
	for i, pos := range selected {
		unit[pos] = 1
		b, err := w.Reconstruct(unit)
		if err != nil {
			// Reconstruct only fails on bad lengths, validated at
			// train/load time.
			panic(fmt.Sprintf("core: basis reconstruction failed: %v", err))
		}
		basis[i] = b
		unit[pos] = 0
	}
	return basis
}

// basisMeans returns each basis vector's mean, the weight of its
// coefficient in the predicted trace's mean.
func basisMeans(basis [][]float64) []float64 {
	out := make([]float64, len(basis))
	for i, b := range basis {
		out[i] = mathx.Mean(b)
	}
	return out
}

// basisSpans returns, per basis vector, the [lo, hi) bounds of its
// nonzero support. Skipping the zero tails only ever skips adding exact
// zeros, so trimmed accumulation matches full accumulation bit-for-bit.
func basisSpans(basis [][]float64) (lo, hi []int) {
	lo = make([]int, len(basis))
	hi = make([]int, len(basis))
	for i, b := range basis {
		l, h := 0, len(b)
		for l < h && b[l] == 0 {
			l++
		}
		for h > l && b[h-1] == 0 {
			h--
		}
		lo[i], hi[i] = l, h
	}
	return lo, hi
}

// sizeTrace returns dst resized to n entries, reusing its backing array
// when capacity allows. Contents are unspecified; callers overwrite.
func sizeTrace(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// Train fits a wavelet neural network on the observed traces of the
// training configurations. All traces must share one power-of-two length.
func Train(configs []space.Config, traces [][]float64, opts Options) (*Predictor, error) {
	opts = opts.withDefaults()
	if len(configs) == 0 || len(configs) != len(traces) {
		return nil, fmt.Errorf("core: need matching configs (%d) and traces (%d)", len(configs), len(traces))
	}
	n := len(traces[0])
	if !wavelet.IsPowerOfTwo(n) {
		return nil, fmt.Errorf("core: trace length %d not a power of two", n)
	}
	for i, tr := range traces {
		if len(tr) != n {
			return nil, fmt.Errorf("core: trace %d has length %d, want %d", i, len(tr), n)
		}
	}

	// Stage 1: decompose every training trace.
	coeffs := make([][]float64, len(traces))
	for i, tr := range traces {
		c, err := opts.Wavelet.Decompose(tr)
		if err != nil {
			return nil, err
		}
		coeffs[i] = c
	}

	// Stage 2a: select coefficient positions.
	k := opts.NumCoefficients
	if k > n {
		k = n
	}
	var selected []int
	switch opts.Selection {
	case SelectMagnitude:
		selected = selectByMeanMagnitude(coeffs, k)
	case SelectOrder:
		selected = wavelet.FirstK(n, k)
	default:
		return nil, fmt.Errorf("core: unknown selection scheme %d", opts.Selection)
	}

	// Stage 2b: one RBF network per selected position.
	xs := make([][]float64, len(configs))
	for i, cfg := range configs {
		xs[i] = opts.featureVector(cfg)
	}
	p := &Predictor{opts: opts, traceLen: n, selected: selected}
	ys := make([]float64, len(configs))
	for _, pos := range selected {
		for i := range coeffs {
			ys[i] = coeffs[i][pos]
		}
		net, err := rbf.Train(xs, ys, opts.RBF)
		if err != nil {
			return nil, fmt.Errorf("core: coefficient %d: %w", pos, err)
		}
		p.nets = append(p.nets, net)
	}
	p.bindBasis()
	return p, nil
}

// selectByMeanMagnitude ranks positions by their mean |coefficient| across
// the training set and returns the top k (Figure 7 justifies pooling: the
// ranking is largely configuration-invariant).
func selectByMeanMagnitude(coeffs [][]float64, k int) []int {
	n := len(coeffs[0])
	mean := make([]float64, n)
	for _, c := range coeffs {
		for j, v := range c {
			mean[j] += math.Abs(v)
		}
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if mean[idx[a]] != mean[idx[b]] {
			return mean[idx[a]] > mean[idx[b]]
		}
		return idx[a] < idx[b]
	})
	out := make([]int, k)
	copy(out, idx[:k])
	sort.Ints(out)
	return out
}

// Predict reconstructs the forecast dynamics trace for a configuration
// (stage 3). Reconstruction is linear, so the trace is assembled as k
// scaled additions of the precomputed basis vectors — no inverse transform
// runs at inference time. Predict allocates only the returned trace; use
// PredictInto or PredictBatch on hot paths to reuse caller scratch.
func (p *Predictor) Predict(cfg space.Config) []float64 {
	return p.PredictInto(cfg, make([]float64, p.traceLen))
}

// PredictInto writes the forecast trace into dst (reusing its backing
// array when cap(dst) ≥ TraceLen) and returns the filled slice. With
// adequate capacity it performs zero heap allocations, and its output is
// bit-identical to Predict — both run the same basis-accumulation path.
func (p *Predictor) PredictInto(cfg space.Config, dst []float64) []float64 {
	var fbuf [space.MaxFeatures]float64
	return p.PredictVecInto(p.opts.featureVectorInto(&cfg, fbuf[:0]), dst)
}

// NumFeatures implements VecPredictor.
func (p *Predictor) NumFeatures() int { return p.opts.numFeatures() }

// PredictVecInto writes the forecast for the already-encoded feature
// vector x into dst; see VecPredictor. It resolves x's level indices once
// for all k networks and delegates to PredictVecLevelsInto, so
// PredictInto, PredictVecInto and a sweep's resolved-levels path are
// bit-identical by construction.
func (p *Predictor) PredictVecInto(x []float64, dst []float64) []float64 {
	var lbuf [space.MaxFeatures]int
	return p.PredictVecLevelsInto(x, p.resolveLevels(x, &lbuf), dst)
}

// PredictVecLevelsInto is PredictVecInto given x's level indices lvl
// against DimLevels (empty when DimLevels is nil); see LevelPredictor.
func (p *Predictor) PredictVecLevelsInto(x []float64, lvl []int, dst []float64) []float64 {
	dst = sizeTrace(dst, p.traceLen)
	if len(p.selected) == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	// The first network's span is written rather than accumulated, so only
	// the trace outside that span needs zeroing — usually nothing, since
	// the approximation coefficient's basis spans the whole trace. Storing
	// c·bv instead of adding it onto zero is identical up to the sign of
	// zero, which float comparison cannot observe.
	lo0, hi0 := p.basisLo[0], p.basisHi[0]
	for i := range dst[:lo0] {
		dst[i] = 0
	}
	for i := hi0; i < len(dst); i++ {
		dst[i] = 0
	}
	for i := range p.selected {
		c := p.coefficient(i, x, lvl)
		// Accumulate only over the basis vector's nonzero support —
		// fine-scale wavelets touch a handful of samples, so most passes
		// are short. Skipped entries would only ever add exact zeros.
		lo := p.basisLo[i]
		bvs := p.basis[i][lo:p.basisHi[i]]
		// Equal-length reslice lets the compiler drop the bounds check in
		// the accumulation loops.
		d := dst[lo:][:len(bvs)]
		if i == 0 {
			for j, bv := range bvs {
				d[j] = c * bv
			}
			continue
		}
		for j, bv := range bvs {
			d[j] += c * bv
		}
	}
	return dst
}

// resolveLevels resolves x's level indices once for all k networks into
// buf, returning an empty slice when the networks share no declaration.
func (p *Predictor) resolveLevels(x []float64, buf *[space.MaxFeatures]int) []int {
	if p.levels == nil || len(x) > len(buf) {
		return buf[:0]
	}
	lvl := buf[:len(x)]
	rbf.ResolveLevels(p.levels, x, lvl)
	return lvl
}

// coefficient evaluates network i at x. With resolved level indices it
// runs PredictLevels, which is bit-identical to the network's own Predict.
func (p *Predictor) coefficient(i int, x []float64, lvl []int) float64 {
	if len(lvl) > 0 {
		return p.nets[i].PredictLevels(x, lvl)
	}
	return p.nets[i].Predict(x)
}

// PredictMean returns the mean of the forecast trace for cfg, scored in
// coefficient space; it is PredictMeanVec on cfg's own encoding, so it is
// bit-identical to the score a sweep's mean objective gives cfg.
func (p *Predictor) PredictMean(cfg space.Config) float64 {
	var fbuf [space.MaxFeatures]float64
	return p.PredictMeanVec(p.opts.featureVectorInto(&cfg, fbuf[:0]))
}

// PredictMeanVec returns the mean of the forecast trace for the
// already-encoded feature vector x; see MeanVecPredictor. The mean is
// linear in the coefficients, so it is Σ c_i·basisMean[i] over only the
// networks whose basis mean is nonzero: no trace is reconstructed, and
// under the paper's Haar transform one network (the average coefficient)
// is evaluated instead of k. It agrees with mathx.Mean of PredictVecInto
// to rounding; a model that does not select a coefficient with a nonzero
// basis mean scores 0. It resolves x's level indices and delegates to
// PredictMeanLevels.
func (p *Predictor) PredictMeanVec(x []float64) float64 {
	var lbuf [space.MaxFeatures]int
	return p.PredictMeanLevels(x, p.resolveLevels(x, &lbuf))
}

// PredictMeanLevels is PredictMeanVec given x's level indices lvl against
// DimLevels (empty when DimLevels is nil); see LevelPredictor.
func (p *Predictor) PredictMeanLevels(x []float64, lvl []int) float64 {
	mean := 0.0
	for i, bm := range p.basisMean {
		if bm != 0 {
			mean += p.coefficient(i, x, lvl) * bm
		}
	}
	return mean
}

// DimLevels returns the level declaration every factored network shares
// — the one PredictMeanLevels and PredictVecLevelsInto take level indices
// against — or nil when the networks share none. Callers must not modify
// it.
func (p *Predictor) DimLevels() [][]float64 { return p.levels }

// PredictBatch forecasts every configuration in cfgs, writing trace i into
// dst[i] (rows are grown or reused like PredictInto's dst) and returning
// the filled slice-of-slices. Pass the previous return value back in to
// sweep the design space with zero steady-state allocations.
func (p *Predictor) PredictBatch(cfgs []space.Config, dst [][]float64) [][]float64 {
	if cap(dst) < len(cfgs) {
		grown := make([][]float64, len(cfgs))
		copy(grown, dst[:cap(dst)])
		dst = grown
	}
	dst = dst[:len(cfgs)]
	for i, cfg := range cfgs {
		dst[i] = p.PredictInto(cfg, dst[i])
	}
	return dst
}

// SelectedCoefficients returns the modelled coefficient positions in
// ascending order.
func (p *Predictor) SelectedCoefficients() []int {
	return append([]int(nil), p.selected...)
}

// TraceLen returns the length of predicted traces.
func (p *Predictor) TraceLen() int { return p.traceLen }

// WaveletName names the analysing transform, for manifests and inventories.
func (p *Predictor) WaveletName() string { return p.opts.Wavelet.Name() }

// UsesDVMFeatures reports whether the 11-feature DVM input encoding is in
// effect (Section 5).
func (p *Predictor) UsesDVMFeatures() bool { return p.opts.UseDVMFeatures }

// NumNetworks returns the number of per-coefficient RBF networks.
func (p *Predictor) NumNetworks() int { return len(p.nets) }

// ImportanceByOrder aggregates the regression-tree first-split depths of
// all coefficient networks into one per-parameter significance score
// (Figure 11a). Scores are normalised to max 1.
func (p *Predictor) ImportanceByOrder() []float64 {
	return p.aggregateImportance(func(net *rbf.Network) []float64 {
		return net.Tree().ImportanceByOrder()
	})
}

// ImportanceByFrequency aggregates regression-tree split counts
// (Figure 11b). Scores are normalised to max 1.
func (p *Predictor) ImportanceByFrequency() []float64 {
	return p.aggregateImportance(func(net *rbf.Network) []float64 {
		return net.Tree().ImportanceByFrequency()
	})
}

func (p *Predictor) aggregateImportance(f func(*rbf.Network) []float64) []float64 {
	if len(p.nets) == 0 {
		return nil
	}
	// Predictors restored with Load have no regression trees (persist.go);
	// importance analysis needs a freshly trained model.
	for _, net := range p.nets {
		if net.Tree() == nil {
			return nil
		}
	}
	agg := make([]float64, len(f(p.nets[0])))
	for _, net := range p.nets {
		for j, v := range f(net) {
			agg[j] += v
		}
	}
	max := 0.0
	for _, v := range agg {
		if v > max {
			max = v
		}
	}
	if max > 0 {
		for j := range agg {
			agg[j] /= max
		}
	}
	return agg
}
