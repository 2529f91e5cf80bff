package core

import (
	"fmt"

	"repro/internal/mathx"
	"repro/internal/rbf"
	"repro/internal/space"
)

// This file implements the comparison models the paper positions itself
// against (Sections 1 and 7): monolithic "global" models that predict only
// aggregated workload behaviour, and linear regression models. Both are
// given the same interface as the wavelet neural network — predict a full
// dynamics trace — so their inability to capture time-varying behaviour is
// measurable with the same MSE metric.

// DynamicsModel is the common interface of all trace predictors.
type DynamicsModel interface {
	// Predict returns the forecast dynamics trace for a configuration.
	Predict(cfg space.Config) []float64
}

// IntoPredictor is the allocation-free refinement of DynamicsModel: a
// model that can write its forecast into caller-provided scratch.
// PredictInto must return output bit-identical to Predict. Sweep hot paths
// type-assert for this interface and reuse one trace buffer per model per
// worker; every model in this package implements it.
type IntoPredictor interface {
	DynamicsModel
	// PredictInto writes the forecast trace into dst (reusing its backing
	// array when capacity allows) and returns the filled slice.
	PredictInto(cfg space.Config, dst []float64) []float64
}

// VecPredictor is the feature-vector-level refinement of IntoPredictor:
// the model declares how wide an input encoding it consumes and predicts
// from an already-encoded vector. Sweep engines evaluating several models
// against the same design encode the configuration once and share the
// vector — the plain encoding is a prefix of the DVM encoding, so one
// VectorDVMInto pass serves models of either flavour via x[:NumFeatures()].
// PredictVecInto on the model's own encoding of cfg must be bit-identical
// to PredictInto(cfg, dst); every model in this package implements it.
type VecPredictor interface {
	IntoPredictor
	// NumFeatures is the width of the encoding the model consumes
	// (space.NumParams, or space.MaxFeatures with DVM features).
	NumFeatures() int
	// PredictVecInto writes the forecast for feature vector x (length
	// NumFeatures()) into dst, reusing its backing array when capacity
	// allows, and returns the filled slice.
	PredictVecInto(x []float64, dst []float64) []float64
}

// MeanVecPredictor is the linear-objective refinement of VecPredictor:
// the model scores the mean of its forecast trace straight from the
// encoded feature vector, without producing the trace. PredictMeanVec(x)
// must agree with mathx.Mean(PredictVecInto(x, nil)) to rounding (the two
// sum in different orders, so they may differ in the last bits). Sweeps
// scoring a mean objective use it when the model offers it.
type MeanVecPredictor interface {
	VecPredictor
	// PredictMeanVec returns the forecast trace's mean at feature vector
	// x (length NumFeatures()).
	PredictMeanVec(x []float64) float64
}

// LevelPredictor is the resolved-levels refinement of MeanVecPredictor:
// a model whose networks share one level declaration (DimLevels) scores a
// design from its encoding x plus x's level indices lvl against that
// declaration, exactly as rbf.ResolveLevels writes them. A sweep resolves
// once per design for every model sharing the declaration — or, on a
// full-factorial window, precomputes the indices per parameter level — so
// no network resolves its own. PredictMeanLevels(x, lvl) and
// PredictVecLevelsInto(x, lvl, dst) are bit-identical to PredictMeanVec(x)
// and PredictVecInto(x, dst), which resolve and delegate to them.
type LevelPredictor interface {
	MeanVecPredictor
	// DimLevels is the declaration lvl resolves against; nil when the
	// model has none, and then callers use the Vec entry points.
	DimLevels() [][]float64
	// PredictMeanLevels is PredictMeanVec with x's level indices given.
	PredictMeanLevels(x []float64, lvl []int) float64
	// PredictVecLevelsInto is PredictVecInto with x's level indices given.
	PredictVecLevelsInto(x []float64, lvl []int, dst []float64) []float64
}

var (
	_ LevelPredictor = (*Predictor)(nil)
	_ VecPredictor   = (*GlobalANN)(nil)
	_ VecPredictor   = (*LinearWavelet)(nil)
)

// GlobalANN is the monolithic neural-network baseline of prior work
// (Ipek et al., Joseph et al.): a single RBF network trained to predict the
// *aggregate* metric. Its trace prediction is necessarily flat — it has no
// notion of time — which is exactly the limitation the paper addresses.
type GlobalANN struct {
	opts     Options
	net      *rbf.Network
	traceLen int
}

// TrainGlobalANN fits the aggregate-behaviour baseline: the response is
// the mean of each training trace.
func TrainGlobalANN(configs []space.Config, traces [][]float64, opts Options) (*GlobalANN, error) {
	opts = opts.withDefaults()
	if len(configs) == 0 || len(configs) != len(traces) {
		return nil, fmt.Errorf("core: need matching configs (%d) and traces (%d)", len(configs), len(traces))
	}
	xs := make([][]float64, len(configs))
	ys := make([]float64, len(configs))
	for i := range configs {
		xs[i] = opts.featureVector(configs[i])
		ys[i] = mathx.Mean(traces[i])
	}
	net, err := rbf.Train(xs, ys, opts.RBF)
	if err != nil {
		return nil, err
	}
	return &GlobalANN{opts: opts, net: net, traceLen: len(traces[0])}, nil
}

// Predict returns a flat trace at the predicted aggregate value.
func (g *GlobalANN) Predict(cfg space.Config) []float64 {
	return g.PredictInto(cfg, make([]float64, g.traceLen))
}

// PredictInto writes the flat trace into dst; see IntoPredictor.
func (g *GlobalANN) PredictInto(cfg space.Config, dst []float64) []float64 {
	var fbuf [space.MaxFeatures]float64
	return g.PredictVecInto(g.opts.featureVectorInto(&cfg, fbuf[:0]), dst)
}

// NumFeatures implements VecPredictor.
func (g *GlobalANN) NumFeatures() int { return g.opts.numFeatures() }

// PredictVecInto writes the flat trace for an already-encoded feature
// vector into dst; see VecPredictor.
func (g *GlobalANN) PredictVecInto(x []float64, dst []float64) []float64 {
	dst = sizeTrace(dst, g.traceLen)
	v := g.net.Predict(x)
	for i := range dst {
		dst[i] = v
	}
	return dst
}

// PredictAggregate returns the predicted aggregate metric.
func (g *GlobalANN) PredictAggregate(cfg space.Config) float64 {
	var fbuf [space.MaxFeatures]float64
	return g.net.Predict(g.opts.featureVectorInto(&cfg, fbuf[:0]))
}

// LinearWavelet is the linear-regression baseline applied inside the
// paper's own wavelet framework: the same coefficient selection, but each
// coefficient is a linear function of the configuration features. It
// isolates the value of non-linear (RBF) modelling from the value of the
// wavelet representation.
type LinearWavelet struct {
	opts     Options
	traceLen int
	selected []int
	weights  [][]float64 // per selected coefficient: [bias, w1..wd]
	basis    [][]float64 // reconstruction basis per selected position
}

// TrainLinearWavelet fits the linear per-coefficient baseline.
func TrainLinearWavelet(configs []space.Config, traces [][]float64, opts Options) (*LinearWavelet, error) {
	opts = opts.withDefaults()
	if len(configs) == 0 || len(configs) != len(traces) {
		return nil, fmt.Errorf("core: need matching configs (%d) and traces (%d)", len(configs), len(traces))
	}
	n := len(traces[0])
	coeffs := make([][]float64, len(traces))
	for i, tr := range traces {
		if len(tr) != n {
			return nil, fmt.Errorf("core: trace %d has length %d, want %d", i, len(tr), n)
		}
		c, err := opts.Wavelet.Decompose(tr)
		if err != nil {
			return nil, err
		}
		coeffs[i] = c
	}
	k := opts.NumCoefficients
	if k > n {
		k = n
	}
	var selected []int
	if opts.Selection == SelectMagnitude {
		selected = selectByMeanMagnitude(coeffs, k)
	} else {
		selected = make([]int, k)
		for i := range selected {
			selected[i] = i
		}
	}

	d := len(opts.featureVector(configs[0]))
	design := mathx.NewMatrix(len(configs), d+1)
	for i, cfg := range configs {
		row := design.Row(i)
		row[0] = 1
		copy(row[1:], opts.featureVector(cfg))
	}
	lw := &LinearWavelet{opts: opts, traceLen: n, selected: selected}
	ys := make([]float64, len(configs))
	for _, pos := range selected {
		for i := range coeffs {
			ys[i] = coeffs[i][pos]
		}
		w, err := mathx.RidgeSolve(design, ys, 1e-6)
		if err != nil {
			return nil, fmt.Errorf("core: linear fit for coefficient %d: %w", pos, err)
		}
		lw.weights = append(lw.weights, w)
	}
	lw.basis = waveletBasis(opts.Wavelet, n, selected)
	return lw, nil
}

// Predict reconstructs the trace from linearly predicted coefficients.
func (l *LinearWavelet) Predict(cfg space.Config) []float64 {
	return l.PredictInto(cfg, make([]float64, l.traceLen))
}

// PredictInto writes the forecast trace into dst; see IntoPredictor. Like
// Predictor, reconstruction is k scaled additions of precomputed basis
// vectors.
func (l *LinearWavelet) PredictInto(cfg space.Config, dst []float64) []float64 {
	var fbuf [space.MaxFeatures]float64
	return l.PredictVecInto(l.opts.featureVectorInto(&cfg, fbuf[:0]), dst)
}

// NumFeatures implements VecPredictor.
func (l *LinearWavelet) NumFeatures() int { return l.opts.numFeatures() }

// PredictVecInto reconstructs the trace for an already-encoded feature
// vector; see VecPredictor.
func (l *LinearWavelet) PredictVecInto(x []float64, dst []float64) []float64 {
	dst = sizeTrace(dst, l.traceLen)
	for i := range dst {
		dst[i] = 0
	}
	for i := range l.selected {
		w := l.weights[i]
		v := w[0]
		for j, xv := range x {
			v += w[j+1] * xv
		}
		for j, bv := range l.basis[i] {
			dst[j] += v * bv
		}
	}
	return dst
}
