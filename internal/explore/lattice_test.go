package explore

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/rbf"
	"repro/internal/space"
)

// recorder is a test-only Collector that keeps every design's scores, so
// two sweeps can be compared score by score. Chunks are disjoint, so
// concurrent workers write disjoint entries.
type recorder struct {
	m      int
	scores []float64
}

func newRecorder(n, m int) *recorder { return &recorder{m: m, scores: make([]float64, n*m)} }

func (r *recorder) Collect(index int, c Candidate) { copy(r.scores[index*r.m:(index+1)*r.m], c.Scores) }

func (r *recorder) collectChunk(c *chunk) {
	copy(r.scores[c.start*r.m:(c.start+c.n)*r.m], c.scores)
}

// latticeCase is one model of TestLatticeFallbacksMatchListSweep with the
// route a window sweep must give its mean objective.
type latticeCase struct {
	name    string
	model   core.DynamicsModel
	lattice bool
}

// latticeCases builds a model that takes the lattice route and one per
// fallback: a mean network whose shared-level product exceeds the table
// cap, an own declaration the windows' levels fall off, DVM features,
// and a model with no average coefficient (zero terms: the lattice route
// scores it 0, as PredictMeanLevels does).
func latticeCases(t *testing.T) []latticeCase {
	t.Helper()
	base := trainedModels(t)
	fit := func(trace func(x []float64, s int) float64, fix bool, levels [][]float64) *core.Predictor {
		t.Helper()
		train, traces := syntheticSet(trace)
		if fix {
			// Only the first three parameters vary, so the networks are
			// shared in the other six.
			tl := space.TrainLevels()
			for i := range train {
				vals := train[i].SweptValues()
				for q := 3; q < space.NumParams; q++ {
					vals[q] = tl[q][1]
				}
				train[i] = train[i].WithSweptValues(vals)
			}
		}
		p, err := core.Train(train, traces, core.Options{NumCoefficients: 8, RBF: rbf.Options{DimLevels: levels}})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Two unreachable levels per dimension push six shared dimensions'
	// product past the cap (e.g. 6·6·7·6·6·6) while three varying ones
	// still fit.
	padded := space.FeatureLevels(false)
	for q := range padded {
		padded[q] = append(padded[q], 2, 3)
	}
	capped := fit(func(x []float64, s int) float64 { return 1 + 2*x[0] + x[1]*x[2] }, true, padded)
	// Dropping every parameter's first level (Fetch 2 among them, which
	// both windows sweep) moves both windows off the declaration.
	dropped := space.FeatureLevels(false)
	for q := range dropped {
		dropped[q] = dropped[q][1:]
	}
	offDecl := fit(func(x []float64, s int) float64 { return 1 + 2*x[0] + 0.5*x[4] }, false, dropped)
	// A trace whose samples alternate in sign has a zero average
	// coefficient, so magnitude selection never picks it.
	noAvg := fit(func(x []float64, s int) float64 { return (1 + 2*x[0]) * float64(1-2*(s%2)) }, false, nil)

	for _, c := range []struct {
		name string
		p    *core.Predictor
		want bool
	}{{"capped", capped, false}, {"no-average", noAvg, true}} {
		terms := c.p.MeanTerms()
		for _, mt := range terms {
			if s, _ := mt.Net.TableOffsets(0); s != nil {
				t.Fatalf("%s: a mean network has both tables", c.name)
			}
		}
		if (len(terms) == 0) != c.want {
			t.Fatalf("%s: %d mean terms", c.name, len(terms))
		}
	}
	return []latticeCase{
		{"lattice", base[0], true},
		{"capped", capped, false},
		{"off-declaration", offDecl, false},
		{"dvm", base[1], false},
		{"no-average", noAvg, true},
	}
}

// TestLatticeFallbacksMatchListSweep records every mean score of the full
// train factorial (245,760 designs) and of the full test factorial
// through a window sweep and through a list sweep of the same designs,
// and requires them to agree bit for bit. The window sweep scores the
// first model and the model without an average coefficient on the lattice
// route; the capped, off-declaration and DVM models keep the level route,
// which the list sweep takes for all of them.
func TestLatticeFallbacksMatchListSweep(t *testing.T) {
	cases := latticeCases(t)
	models := make([]core.DynamicsModel, len(cases))
	objectives := make([]Objective, len(cases))
	for i, c := range cases {
		models[i], objectives[i] = c.model, MeanObjective(c.name)
	}
	ctx := context.Background()
	opts := Options{Workers: runtime.GOMAXPROCS(0)}
	for _, levels := range []space.Levels{space.TrainLevels(), space.TestLevels()} {
		w := space.Window{Levels: levels, Base: space.Baseline(), Count: levels.NumDesigns()}

		p := newPlan(models, objectives)
		p.bindLattice(&w, p.levelTables(&w))
		for i, c := range cases {
			if got := p.models[i].kind == evalMeanLattice; got != c.lattice {
				t.Fatalf("%d designs: %s on the lattice route = %v, want %v", w.Count, c.name, got, c.lattice)
			}
		}

		list, win := newRecorder(w.Count, len(models)), newRecorder(w.Count, len(models))
		if err := SweepStream(ctx, w.Designs(), models, objectives, opts, list); err != nil {
			t.Fatal(err)
		}
		if err := SweepWindow(ctx, w, models, objectives, opts, win); err != nil {
			t.Fatal(err)
		}
		for i, want := range list.scores {
			if got := win.scores[i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%d designs: design %d %s: window %v, list %v", w.Count, i/len(models), cases[i%len(models)].name, got, want)
			}
			if cases[i%len(models)].name == "no-average" && want != 0 {
				t.Fatalf("design %d: a model without an average coefficient scores %v, want 0", i/len(models), want)
			}
		}
	}
}
