package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/space"
	"repro/internal/wavelet"
)

// trainVariant fits a small predictor for one (wavelet, DVM-mode) cell of
// the equivalence matrix.
func trainVariant(t *testing.T, w wavelet.Transform, dvm bool) (*Predictor, []space.Config) {
	t.Helper()
	train, test := sampleConfigs(100, 25, 21)
	if dvm {
		for i := range train {
			train[i].DVM = i%2 == 0
			train[i].DVMThreshold = 0.1 + 0.05*float64(i%8)
		}
		for i := range test {
			test[i].DVM = i%2 == 1
			test[i].DVMThreshold = 0.1 + 0.07*float64(i%7)
		}
	}
	p, err := Train(train, tracesFor(train, 64), Options{
		Wavelet:         w,
		NumCoefficients: 8,
		UseDVMFeatures:  dvm,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, test
}

// TestPredictIntoMatchesPredict proves the three inference entry points are
// bit-identical across wavelet families and both feature encodings — the
// contract that lets hot paths switch to the scratch-reusing forms without
// any behavioural drift.
func TestPredictIntoMatchesPredict(t *testing.T) {
	for _, w := range []wavelet.Transform{
		wavelet.Haar{}, wavelet.HaarOrthonormal{}, wavelet.Daubechies4{},
	} {
		for _, dvm := range []bool{false, true} {
			name := w.Name() + "/dvm=false"
			if dvm {
				name = w.Name() + "/dvm=true"
			}
			t.Run(name, func(t *testing.T) {
				p, test := trainVariant(t, w, dvm)
				scratch := make([]float64, 0, p.TraceLen())
				batch := p.PredictBatch(test, nil)
				for i, cfg := range test {
					want := p.Predict(cfg)
					scratch = p.PredictInto(cfg, scratch[:0])
					for j := range want {
						if scratch[j] != want[j] {
							t.Fatalf("cfg %d sample %d: PredictInto %v != Predict %v", i, j, scratch[j], want[j])
						}
						if batch[i][j] != want[j] {
							t.Fatalf("cfg %d sample %d: PredictBatch %v != Predict %v", i, j, batch[i][j], want[j])
						}
					}
				}
			})
		}
	}
}

// TestBasisPathMatchesFullReconstruct checks the linearity exploit against
// the definitionally correct path: evaluate every network, scatter into a
// coefficient vector, run the full inverse transform. The basis
// accumulation must agree to floating-point round-off.
func TestBasisPathMatchesFullReconstruct(t *testing.T) {
	for _, w := range []wavelet.Transform{
		wavelet.Haar{}, wavelet.HaarOrthonormal{}, wavelet.Daubechies4{},
	} {
		t.Run(w.Name(), func(t *testing.T) {
			p, test := trainVariant(t, w, false)
			for _, cfg := range test {
				x := cfg.Vector()
				coeffs := make([]float64, p.traceLen)
				for i, pos := range p.selected {
					coeffs[pos] = p.nets[i].Predict(x)
				}
				want, err := w.Reconstruct(coeffs)
				if err != nil {
					t.Fatal(err)
				}
				got := p.Predict(cfg)
				for j := range want {
					if math.Abs(got[j]-want[j]) > 1e-9*(1+math.Abs(want[j])) {
						t.Fatalf("sample %d: basis path %v, full reconstruct %v", j, got[j], want[j])
					}
				}
			}
		})
	}
}

// TestLoadedPredictorUsesBasisPath proves a persisted-and-restored
// predictor forecasts bit-identically through all three entry points.
func TestLoadedPredictorUsesBasisPath(t *testing.T) {
	p, test := trainVariant(t, wavelet.Daubechies4{}, true)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	p2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]float64, 0, p2.TraceLen())
	for _, cfg := range test {
		want := p.Predict(cfg)
		scratch = p2.PredictInto(cfg, scratch[:0])
		for j := range want {
			if scratch[j] != want[j] {
				t.Fatalf("restored PredictInto %v != original Predict %v", scratch[j], want[j])
			}
		}
	}
}

// TestPredictIntoZeroAllocs is the regression gate for the zero-allocation
// contract on the predictor's scratch-reusing entry points.
func TestPredictIntoZeroAllocs(t *testing.T) {
	train, test := sampleConfigs(100, 4, 22)
	p, err := Train(train, tracesFor(train, 64), Options{NumCoefficients: 8})
	if err != nil {
		t.Fatal(err)
	}

	dst := make([]float64, 64)
	cfg := test[0]
	if allocs := testing.AllocsPerRun(100, func() {
		dst = p.PredictInto(cfg, dst)
	}); allocs != 0 {
		t.Errorf("Predictor.PredictInto allocates %v per call, want 0", allocs)
	}

	x := test[0].Vector()
	lvl := resolved(p, x)
	if allocs := testing.AllocsPerRun(100, func() {
		dst = p.PredictVecLevelsInto(x, lvl, dst)
	}); allocs != 0 {
		t.Errorf("Predictor.PredictVecLevelsInto allocates %v per call, want 0", allocs)
	}
	var mean float64
	if allocs := testing.AllocsPerRun(100, func() {
		mean = p.PredictMeanLevels(x, lvl)
	}); allocs != 0 {
		t.Errorf("Predictor.PredictMeanLevels allocates %v per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		mean = p.PredictMean(test[0])
	}); allocs != 0 {
		t.Errorf("Predictor.PredictMean allocates %v per call, want 0", allocs)
	}
	_ = mean

	batch := p.PredictBatch(test, nil)
	if allocs := testing.AllocsPerRun(100, func() {
		batch = p.PredictBatch(test, batch)
	}); allocs != 0 {
		t.Errorf("PredictBatch allocates %v per call after warm-up, want 0", allocs)
	}
}

// resolved returns x's level indices the way a sweep hands them to p:
// resolved against its DimLevels.
func resolved(p *Predictor, x []float64) []int {
	var buf [space.MaxFeatures]int
	return p.resolveLevels(x, &buf)
}

// predictVec forecasts the encoded design x through p's level entry
// point, its level indices resolved as a sweep resolves them.
func predictVec(p *Predictor, x []float64, dst []float64) []float64 {
	return p.PredictVecLevelsInto(x, resolved(p, x), dst)
}

// predictMeanVec scores the encoded design x's mean through p's level
// entry point, its level indices resolved as a sweep resolves them.
func predictMeanVec(p *Predictor, x []float64) float64 {
	return p.PredictMeanLevels(x, resolved(p, x))
}

// TestSharedLevelResolution proves that resolving a design's level indices
// once per design and handing them to every network forecasts bit-for-bit
// like each network resolving its own — for trained and loaded
// predictors, both feature encodings, and on- and off-level inputs. Every
// network's coefficient under the shared resolution is its own Predict,
// so the traces accumulated from them are too.
func TestSharedLevelResolution(t *testing.T) {
	for _, dvm := range []bool{false, true} {
		p, test := trainVariant(t, wavelet.Haar{}, dvm)
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []*Predictor{p, loaded} {
			for i, cfg := range test {
				x := q.opts.featureVector(cfg)
				off := append([]float64(nil), x...)
				off[i%len(off)] += 0.0137
				for _, x := range [][]float64{x, off} {
					lvl := resolved(q, x)
					for k, net := range q.nets {
						if got, want := net.PredictLevels(x, lvl), net.Predict(x); got != want {
							t.Fatalf("dvm=%v design %d network %d: shared resolution %v, per-network %v", dvm, i, k, got, want)
						}
					}
				}
			}
		}
	}
}

// A saved model whose networks declare different levels (hand-edited, or
// written by another tool) has no one declaration to resolve a design
// against, so Load refuses it; Train never writes one.
func TestLoadRefusesMismatchedLevels(t *testing.T) {
	p, _ := trainVariant(t, wavelet.Haar{}, false)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(mismatchLevels(t, buf.Bytes()))); err == nil {
		t.Fatal("Load accepted networks that declare different levels")
	}
}

// TestPredictMeanVecMatchesTraceMean holds coefficient-space mean scoring
// to the trace it summarises: over the whole test factorial, for every
// wavelet family, PredictMeanLevels agrees with mathx.Mean of
// PredictVecLevelsInto to within 1e-15 relative, and PredictMean is
// PredictMeanLevels on the design's own encoding and levels. A restored
// model scores bit-identically.
func TestPredictMeanVecMatchesTraceMean(t *testing.T) {
	designs := space.TestLevels().FullFactorial(space.Baseline())
	for _, w := range []wavelet.Transform{
		wavelet.Haar{}, wavelet.HaarOrthonormal{}, wavelet.Daubechies4{},
	} {
		t.Run(w.Name(), func(t *testing.T) {
			p, _ := trainVariant(t, w, false)
			var buf bytes.Buffer
			if err := p.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			var trace []float64
			worst := 0.0
			for i := range designs {
				x := designs[i].Vector()
				got := predictMeanVec(p, x)
				trace = predictVec(p, x, trace)
				want := mathx.Mean(trace)
				rel := math.Abs(got-want) / math.Abs(want)
				worst = math.Max(worst, rel)
				if rel > 1e-15 {
					t.Fatalf("design %d: PredictMeanLevels %v, trace mean %v (relative error %.3g)", i, got, want, rel)
				}
				if m := p.PredictMean(designs[i]); m != got {
					t.Fatalf("design %d: PredictMean %v != PredictMeanLevels %v", i, m, got)
				}
				if m := predictMeanVec(loaded, x); m != got {
					t.Fatalf("design %d: loaded PredictMeanLevels %v != trained %v", i, m, got)
				}
			}
			t.Logf("max relative error %.3g over %d designs", worst, len(designs))
		})
	}
}

// In the paper's Haar form the average coefficient's basis vector is all
// ones and every detail's sums to exactly zero, so a mean costs exactly
// one network — and a model without the average coefficient scores 0.
func TestHaarMeanUsesOneNetwork(t *testing.T) {
	p, test := trainVariant(t, wavelet.Haar{}, false)
	if p.selected[0] != 0 {
		t.Fatalf("selected %v, want the average coefficient 0 first", p.selected)
	}
	if p.basisMean[0] != 1 {
		t.Errorf("average coefficient's basis mean = %v, want exactly 1", p.basisMean[0])
	}
	for i, bm := range p.basisMean[1:] {
		if bm != 0 {
			t.Errorf("detail coefficient %d's basis mean = %v, want exactly 0", p.selected[i+1], bm)
		}
	}
	for _, cfg := range test {
		x := cfg.Vector()
		if got, want := predictMeanVec(p, x), p.nets[0].Predict(x); got != want {
			t.Fatalf("Haar mean %v, average-coefficient network %v", got, want)
		}
	}

	details := &Predictor{opts: p.opts, traceLen: p.traceLen, selected: p.selected[1:], nets: p.nets[1:]}
	details.bindBasis()
	for _, cfg := range test {
		if got := details.PredictMean(cfg); got != 0 {
			t.Fatalf("model without the average coefficient scores mean %v, want 0", got)
		}
	}
}

// TestMeanTermsTabulateOnlyMeanNetworks holds MeanTerms to
// PredictMeanLevels' definition: the networks with a nonzero basis mean,
// in network order, weighted by that mean. Only those networks get a
// shared-factor table (a trace-scored network never reads one; under
// Haar the one term's tables fit), for a trained and a loaded predictor
// alike, and folding the terms by hand reproduces PredictMeanLevels bit
// for bit.
func TestMeanTermsTabulateOnlyMeanNetworks(t *testing.T) {
	for _, w := range []wavelet.Transform{wavelet.Haar{}, wavelet.Daubechies4{}} {
		t.Run(w.Name(), func(t *testing.T) {
			p, test := trainVariant(t, w, false)
			var buf bytes.Buffer
			if err := p.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range []*Predictor{p, loaded} {
				terms := q.MeanTerms()
				if len(terms) == 0 {
					t.Fatal("MeanTerms is empty")
				}
				next := 0
				for i, net := range q.nets {
					tabled, _ := net.TableOffsets(0)
					if q.basisMean[i] == 0 {
						if tabled != nil {
							t.Errorf("network %d has a zero basis mean but a shared-factor table", i)
						}
						continue
					}
					if next == len(terms) || terms[next].Net != net || terms[next].Weight != q.basisMean[i] {
						t.Fatalf("term %d is not network %d with weight %v", next, i, q.basisMean[i])
					}
					if _, haar := w.(wavelet.Haar); haar && tabled == nil {
						t.Errorf("Haar mean network %d has no table offsets", i)
					}
					next++
				}
				if next != len(terms) {
					t.Fatalf("%d terms, %d networks with a nonzero basis mean", len(terms), next)
				}
				for _, cfg := range test {
					x := cfg.Vector()
					lvl := resolved(q, x)
					mean := 0.0
					for _, term := range terms {
						mean += float64(term.Net.PredictLevels(x, lvl) * term.Weight)
					}
					if got := q.PredictMeanLevels(x, lvl); got != mean {
						t.Fatalf("PredictMeanLevels %v, folded terms %v", got, mean)
					}
				}
			}
		})
	}
}
