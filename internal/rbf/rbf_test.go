package rbf

import (
	"encoding/json"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
	"repro/internal/regtree"
	"repro/internal/space"
)

// makeSmooth samples a smooth 2-D function on [0,1]².
func makeSmooth(rng *mathx.RNG, n int) ([][]float64, []float64) {
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		x0, x1 := rng.Float64(), rng.Float64()
		xs[i] = []float64{x0, x1}
		ys[i] = math.Sin(3*x0) + x1*x1
	}
	return xs, ys
}

func TestTrainFitsSmoothFunction(t *testing.T) {
	rng := mathx.NewRNG(1)
	xs, ys := makeSmooth(rng, 200)
	net, err := Train(xs, ys, Options{Tree: regtree.Options{MinLeafSize: 5}})
	if err != nil {
		t.Fatal(err)
	}
	// Held-out error.
	testX, testY := makeSmooth(rng, 100)
	var sse, ref float64
	mean := mathx.Mean(testY)
	for i := range testX {
		d := net.Predict(testX[i]) - testY[i]
		sse += d * d
		r := testY[i] - mean
		ref += r * r
	}
	if sse > 0.05*ref {
		t.Errorf("RBF test SSE %v exceeds 5%% of variance %v", sse, ref)
	}
}

func TestTrainBeatsTreeBaseline(t *testing.T) {
	rng := mathx.NewRNG(2)
	xs, ys := makeSmooth(rng, 200)
	opts := Options{Tree: regtree.Options{MinLeafSize: 5}}
	net, err := Train(xs, ys, opts)
	if err != nil {
		t.Fatal(err)
	}
	testX, testY := makeSmooth(rng, 150)
	var sseNet, sseTree float64
	for i := range testX {
		dn := net.Predict(testX[i]) - testY[i]
		dt := net.Tree().Predict(testX[i]) - testY[i]
		sseNet += dn * dn
		sseTree += dt * dt
	}
	if sseNet >= sseTree {
		t.Errorf("RBF (%v) should beat piecewise-constant tree (%v) on smooth target", sseNet, sseTree)
	}
}

func TestTrainConstantTarget(t *testing.T) {
	xs := make([][]float64, 30)
	ys := make([]float64, 30)
	rng := mathx.NewRNG(3)
	for i := range xs {
		xs[i] = []float64{rng.Float64()}
		ys[i] = 4.2
	}
	net, err := Train(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		got := net.Predict([]float64{rng.Float64()})
		if math.Abs(got-4.2) > 0.05 {
			t.Errorf("Predict = %v, want ≈4.2", got)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, Options{}); err == nil {
		t.Error("empty input should fail")
	}
	wide := [][]float64{make([]float64, maxDims+1), make([]float64, maxDims+1)}
	wide[1][0] = 1
	if _, err := Train(wide, []float64{0, 1}, Options{}); err == nil {
		t.Errorf("%d input dimensions should fail", maxDims+1)
	}
}

func TestMaxCentersCap(t *testing.T) {
	rng := mathx.NewRNG(5)
	xs, ys := makeSmooth(rng, 300)
	net, err := Train(xs, ys, Options{
		Tree:       regtree.Options{MinLeafSize: 2, MaxDepth: 15},
		MaxCenters: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if net.NumCenters() > 10 {
		t.Errorf("NumCenters = %d, want <= 10", net.NumCenters())
	}
}

func TestLambdaFromGrid(t *testing.T) {
	rng := mathx.NewRNG(6)
	xs, ys := makeSmooth(rng, 100)
	grid := []float64{1e-4, 1e-2, 1}
	net, err := Train(xs, ys, Options{Lambdas: grid})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, l := range grid {
		if net.Lambda() == l {
			found = true
		}
	}
	if !found {
		t.Errorf("Lambda %v not in grid %v", net.Lambda(), grid)
	}
	if net.GCV() < 0 {
		t.Errorf("GCV = %v, want >= 0", net.GCV())
	}
}

func TestDeterministicTraining(t *testing.T) {
	rng1 := mathx.NewRNG(7)
	xs1, ys1 := makeSmooth(rng1, 120)
	rng2 := mathx.NewRNG(7)
	xs2, ys2 := makeSmooth(rng2, 120)
	n1, err := Train(xs1, ys1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n2, err := Train(xs2, ys2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.3, 0.7}
	if n1.Predict(probe) != n2.Predict(probe) {
		t.Error("identical data must produce identical networks")
	}
}

func TestGaussianShape(t *testing.T) {
	net := &Network{
		centers: [][]float64{{0.5, 0.5}},
		radii:   [][]float64{{0.2, 0.2}},
	}
	net.finalize(nil)
	basis := make([]float64, 1)
	at := func(x []float64) float64 {
		net.evalBasisInto(x, basis)
		return basis[0]
	}
	peak := at([]float64{0.5, 0.5})
	if peak != 1 {
		t.Errorf("gaussian at center = %v, want 1", peak)
	}
	near := at([]float64{0.55, 0.5})
	far := at([]float64{0.9, 0.5})
	if !(peak > near && near > far && far > 0) {
		t.Errorf("gaussian must decay monotonically: %v > %v > %v > 0", peak, near, far)
	}
}

// TestSharedDimFactorization checks the kernel's shared/varying split
// against its definition: with one dimension identical across centres and
// one varying, activations must equal the kernel evaluated over all
// dimensions, and finalize must classify the dimensions correctly.
func TestSharedDimFactorization(t *testing.T) {
	net := &Network{
		centers: [][]float64{{0.5, 0.2}, {0.5, 0.8}, {0.5, 0.4}},
		radii:   [][]float64{{0.3, 0.1}, {0.3, 0.25}, {0.3, 0.15}},
	}
	net.finalize(nil)
	if len(net.sharedIdx) != 1 || net.sharedIdx[0] != 0 {
		t.Fatalf("sharedIdx = %v, want [0]", net.sharedIdx)
	}
	if len(net.varyIdx) != 1 || net.varyIdx[0] != 1 {
		t.Fatalf("varyIdx = %v, want [1]", net.varyIdx)
	}
	x := []float64{0.31, 0.62}
	basis := make([]float64, 3)
	net.evalBasisInto(x, basis)
	for c := range net.centers {
		var sum float64
		for j := range x {
			d := (x[j] - net.centers[c][j]) / net.radii[c][j]
			sum += d * d
		}
		want := math.Exp(-sum)
		if rel := math.Abs(basis[c]-want) / want; rel > 1e-9 {
			t.Errorf("center %d: activation %v, want %v (rel err %v)", c, basis[c], want, rel)
		}
	}
}

func TestPredictZeroAllocs(t *testing.T) {
	rng := mathx.NewRNG(10)
	xs, ys := makeSmooth(rng, 150)
	net, err := Train(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.3, 0.7}
	var sink float64
	if allocs := testing.AllocsPerRun(100, func() {
		sink = net.Predict(probe)
	}); allocs != 0 {
		t.Errorf("Predict allocates %v per call, want 0", allocs)
	}

	// On-level probes take the level-table path; off-level ones the
	// on-the-fly fallback. Neither may allocate.
	levels := gridLevels(4, 5)
	lxs, lys := makeLevelData(rng, levels, 200)
	lnet := trainLevels(t, lxs, lys, levels)
	lvl := make([]int, len(levels))
	for _, x := range [][]float64{lxs[3], offLevel(lxs[5], lnet.varyIdx[0])} {
		if allocs := testing.AllocsPerRun(100, func() {
			sink = lnet.Predict(x)
		}); allocs != 0 {
			t.Errorf("level-table Predict(%v) allocates %v per call, want 0", x, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			ResolveLevels(levels, x, lvl)
			sink = lnet.PredictLevels(x, lvl)
		}); allocs != 0 {
			t.Errorf("ResolveLevels+PredictLevels(%v) allocates %v per call, want 0", x, allocs)
		}
	}
	_ = sink
}

func TestPersistRoundTripBitIdentical(t *testing.T) {
	rng := mathx.NewRNG(11)
	xs, ys := makeSmooth(rng, 150)
	net, err := Train(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	levels := gridLevels(4, 5)
	lxs, lys := makeLevelData(rng, levels, 200)
	lnet := trainLevels(t, lxs, lys, levels)
	continuous, _ := makeSmooth(rng, 30)
	onLevel, _ := makeLevelData(rng, levels, 30)
	var offLevelProbes [][]float64
	for i, x := range onLevel {
		offLevelProbes = append(offLevelProbes, offLevel(x, lnet.varyIdx[i%len(lnet.varyIdx)]))
	}
	for _, tc := range []struct {
		name   string
		net    *Network
		probes [][]float64
	}{
		{"undeclared/continuous", net, continuous},
		{"levels/on-level", lnet, onLevel},
		{"levels/off-level", lnet, offLevelProbes},
	} {
		blob, err := tc.net.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var restored Network
		if err := restored.UnmarshalJSON(blob); err != nil {
			t.Fatal(err)
		}
		if (restored.levelTab == nil) != (tc.net.levelTab == nil) {
			t.Fatalf("%s: level table rebuilt %v, original %v", tc.name, restored.levelTab != nil, tc.net.levelTab != nil)
		}
		for i, x := range tc.probes {
			if got, want := restored.Predict(x), tc.net.Predict(x); got != want {
				t.Errorf("%s probe %d: restored Predict = %v, original = %v (must be bit-identical)", tc.name, i, got, want)
			}
		}
	}
}

// TestUnmarshalRefusesWideInputs: the kernel's scratch holds maxDims
// input dimensions, so a file with wider centres is refused, not loaded.
func TestUnmarshalRefusesWideInputs(t *testing.T) {
	for _, dims := range []int{maxDims, maxDims + 1} {
		ones := make([]float64, dims)
		for j := range ones {
			ones[j] = 1
		}
		blob, err := json.Marshal(networkFile{Centers: [][]float64{ones}, Radii: [][]float64{ones}, Weights: []float64{1}})
		if err != nil {
			t.Fatal(err)
		}
		var n Network
		if err := n.UnmarshalJSON(blob); (err != nil) != (dims > maxDims) {
			t.Errorf("%d-wide centres: UnmarshalJSON error %v", dims, err)
		}
	}
}

// gridLevels declares dims dimensions of n evenly spaced levels on [0,1].
func gridLevels(dims, n int) [][]float64 {
	levels := make([][]float64, dims)
	for j := range levels {
		for i := 0; i < n; i++ {
			levels[j] = append(levels[j], float64(i)/float64(n-1))
		}
	}
	return levels
}

// makeLevelData samples n on-level inputs whose response depends on the
// first three dimensions, so the tree splits on (and the basis varies in)
// several of them.
func makeLevelData(rng *mathx.RNG, levels [][]float64, n int) ([][]float64, []float64) {
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := make([]float64, len(levels))
		for j, vs := range levels {
			x[j] = vs[rng.Intn(len(vs))]
		}
		xs[i] = x
		ys[i] = math.Sin(3*x[0]) + x[1]*x[2] + 0.2*x[2]
	}
	return xs, ys
}

func trainLevels(t *testing.T, xs [][]float64, ys []float64, levels [][]float64) *Network {
	t.Helper()
	net, err := Train(xs, ys, Options{Tree: regtree.Options{MinLeafSize: 5}, DimLevels: levels})
	if err != nil {
		t.Fatal(err)
	}
	if net.levelTab == nil {
		t.Fatal("network with declared levels has no level table")
	}
	if len(net.varyIdx) < 2 {
		t.Fatalf("varying dims %v: test data must make the basis vary in ≥2 dimensions", net.varyIdx)
	}
	return net
}

// offLevel copies x with dimension j moved off every declared level.
func offLevel(x []float64, j int) []float64 {
	y := append([]float64(nil), x...)
	y[j] += 0.0137
	return y
}

// onTheFly evaluates the kernel with every factor computed by
// dimFactor — no factor column, no level table.
func onTheFly(n *Network, x []float64) float64 {
	var cols [maxDims][]float64
	out := n.sharedFactor(x) * n.varyingSum(x, &cols)
	if n.hasBias {
		out += n.weights[len(n.centers)]
	}
	return out
}

// closedForm is the network's defining formula evaluated with math.Exp.
func closedForm(n *Network, x []float64) float64 {
	var out float64
	for c := range n.centers {
		var sum float64
		for j := range x {
			d := (x[j] - n.centers[c][j]) / n.radii[c][j]
			sum += d * d
		}
		out += n.weights[c] * math.Exp(-sum)
	}
	if n.hasBias {
		out += n.weights[len(n.centers)]
	}
	return out
}

// closedFormTol is the agreement bound with closedForm: 1e-9 of the
// weights' total magnitude (ExpFast is within 1e-10 relative per factor).
func closedFormTol(n *Network) float64 {
	var s float64
	for _, w := range n.weights {
		s += math.Abs(w)
	}
	return 1e-9 * s
}

// forEachLevelCombo calls fn with base overwritten by every combination of
// the varying dimensions' declared levels (the last varying dimension
// fastest, matching the level table's row-major order).
func forEachLevelCombo(n *Network, base []float64, fn func(i int, x []float64)) {
	x := append([]float64(nil), base...)
	var digit [maxDims]int
	for i := 0; ; i++ {
		for k, j := range n.varyIdx {
			x[j] = n.varyTabVal[k][digit[k]]
		}
		fn(i, x)
		k := len(n.varyIdx) - 1
		for ; k >= 0; k-- {
			if digit[k]++; digit[k] < len(n.varyTabVal[k]) {
				break
			}
			digit[k] = 0
		}
		if k < 0 {
			return
		}
	}
}

// TestLevelTableBitIdenticalTable2 trains a network on Table 2 designs
// with the canonical train ∪ test feature levels declared, then checks
// every level combination of its varying dimensions: the tabulated value,
// Predict and PredictLevels must equal the on-the-fly kernel bit for bit,
// also with one dimension moved off-level (which misses the table).
func TestLevelTableBitIdenticalTable2(t *testing.T) {
	rng := mathx.NewRNG(12)
	designs := space.SampleDesign(60, space.TrainLevels(), space.Baseline(), 4, rng)
	levels := space.FeatureLevels(false)
	xs := make([][]float64, len(designs))
	ys := make([]float64, len(designs))
	for i, d := range designs {
		x := d.Vector()
		xs[i] = x
		ys[i] = 2*(1-x[0]) + 0.6*x[3]*x[5] + 0.3*math.Sin(4*x[6])
	}
	net := trainLevels(t, xs, ys, levels)
	want := 1
	for _, k := range net.varyIdx {
		want *= len(levels[k])
	}
	if len(net.levelTab) != want {
		t.Fatalf("level table has %d entries, want the product %d", len(net.levelTab), want)
	}
	// The design matrix row H(x)·w is the kernel training fit; Predict
	// groups the same products differently, within ~1e-12 relative.
	act := make([]float64, net.NumCenters())
	for i, x := range xs {
		net.evalBasisInto(x, act)
		hw := net.weights[len(act)]
		for c, a := range act {
			hw += net.weights[c] * a
		}
		if got := net.Predict(x); math.Abs(got-hw) > closedFormTol(net)*1e-3 {
			t.Fatalf("training row %d: Predict %v, H·w %v", i, got, hw)
		}
	}
	lvl := make([]int, len(levels))
	tol := closedFormTol(net)
	for _, base := range [][]float64{space.Baseline().Vector(), xs[7]} {
		forEachLevelCombo(net, base, func(i int, x []float64) {
			ref := onTheFly(net, x)
			var cols [maxDims][]float64
			if g := net.varyingSum(x, &cols); net.levelTab[i] != g {
				t.Fatalf("combo %d: table entry %v, on-the-fly varying sum %v", i, net.levelTab[i], g)
			}
			if got := net.Predict(x); got != ref {
				t.Fatalf("combo %d %v: Predict %v, on-the-fly %v (must be bit-identical)", i, x, got, ref)
			}
			ResolveLevels(levels, x, lvl)
			if got := net.PredictLevels(x, lvl); got != ref {
				t.Fatalf("combo %d: PredictLevels %v, on-the-fly %v", i, got, ref)
			}
			if cf := closedForm(net, x); math.Abs(ref-cf) > tol {
				t.Fatalf("combo %d: kernel %v, closed form %v (tolerance %v)", i, ref, cf, tol)
			}
			// One dimension off-level: a table miss through the factor
			// columns of the others plus one on-the-fly factor.
			off := offLevel(x, net.varyIdx[i%len(net.varyIdx)])
			ResolveLevels(levels, off, lvl)
			offRef := onTheFly(net, off)
			if got := net.PredictLevels(off, lvl); got != offRef {
				t.Fatalf("combo %d off-level: PredictLevels %v, on-the-fly %v", i, got, offRef)
			}
			if got := net.Predict(off); got != offRef {
				t.Fatalf("combo %d off-level: Predict %v, on-the-fly %v", i, got, offRef)
			}
		})
	}
}

// tableIndices sums x's TableOffsets over every dimension: the two table
// indices PredictTables takes.
func tableIndices(n *Network, lvl []int) (si, gi int) {
	for j, l := range lvl {
		so, vo := n.TableOffsets(j)
		si += so[l]
		gi += vo[l]
	}
	return si, gi
}

// TestSharedTableBitIdenticalTable2 tabulates the shared factor of a
// network trained on Table 2 designs with the canonical feature levels
// declared. At every sampled on-level design, PredictTables at the summed
// TableOffsets, PredictLevels and Predict (which must resolve the shared
// dimensions itself before reading the table) equal the on-the-fly
// kernel bit for bit; an off-level shared or varying dimension misses a
// table and still does.
func TestSharedTableBitIdenticalTable2(t *testing.T) {
	rng := mathx.NewRNG(15)
	designs := space.SampleDesign(60, space.TrainLevels(), space.Baseline(), 4, rng)
	levels := space.FeatureLevels(false)
	xs := make([][]float64, len(designs))
	ys := make([]float64, len(designs))
	for i, d := range designs {
		x := d.Vector()
		xs[i] = x
		ys[i] = 2*(1-x[0]) + 0.6*x[3]*x[5] + 0.3*math.Sin(4*x[6])
	}
	net := trainLevels(t, xs, ys, levels)
	if s, _ := net.TableOffsets(0); s != nil {
		t.Fatal("table offsets exist before TabulateShared")
	}
	net.TabulateShared()
	want := 1
	for _, j := range net.sharedIdx {
		want *= len(levels[j])
	}
	if len(net.sharedIdx) == 0 || len(net.sharedTab) != want {
		t.Fatalf("shared dims %v: shared table has %d entries, want the product %d", net.sharedIdx, len(net.sharedTab), want)
	}
	lvl := make([]int, len(levels))
	for i, d := range space.Random(4000, space.TestLevels(), space.Baseline(), rng) {
		x := d.Vector()
		if i%2 == 1 {
			x = designs[i%len(designs)].Vector()
		}
		ref := onTheFly(net, x)
		ResolveLevels(levels, x, lvl)
		si, gi := tableIndices(net, lvl)
		if got := net.PredictTables(si, gi); got != ref {
			t.Fatalf("design %d: PredictTables %v, on-the-fly %v (must be bit-identical)", i, got, ref)
		}
		if got := net.PredictLevels(x, lvl); got != ref {
			t.Fatalf("design %d: PredictLevels %v, on-the-fly %v", i, got, ref)
		}
		if got := net.Predict(x); got != ref {
			t.Fatalf("design %d: Predict %v, on-the-fly %v", i, got, ref)
		}
		for _, dims := range [][]int{net.sharedIdx, net.varyIdx} {
			off := offLevel(x, dims[i%len(dims)])
			ResolveLevels(levels, off, lvl)
			offRef := onTheFly(net, off)
			if got := net.PredictLevels(off, lvl); got != offRef {
				t.Fatalf("design %d off-level: PredictLevels %v, on-the-fly %v", i, got, offRef)
			}
			if got := net.Predict(off); got != offRef {
				t.Fatalf("design %d off-level: Predict %v, on-the-fly %v", i, got, offRef)
			}
		}
	}
}

// TestSharedTableCapFallback declares eleven dimensions of four levels
// but trains on data that varies in only the first three, so at least
// eight dimensions are shared and their product (4⁸) exceeds
// maxLevelTable: TabulateShared must leave no table and no offsets, and
// the network keeps predicting bit-identically through the shared
// exponential, also at inputs that vary in every dimension.
func TestSharedTableCapFallback(t *testing.T) {
	rng := mathx.NewRNG(16)
	levels := gridLevels(11, 4)
	xs, ys := makeLevelData(rng, levels, 300)
	for _, x := range xs {
		for j := 3; j < len(x); j++ {
			x[j] = levels[j][1]
		}
	}
	net := trainLevels(t, xs, ys, levels)
	net.TabulateShared()
	if net.sharedTab != nil || len(net.sharedIdx) < 8 {
		t.Fatalf("%d shared dims of 4 levels: shared table built=%v; want more than maxLevelTable entries and no table", len(net.sharedIdx), net.sharedTab != nil)
	}
	if s, v := net.TableOffsets(0); s != nil || v != nil || net.BoundDim() != 0 {
		t.Fatal("table offsets or bound tables without a shared table")
	}
	probes, _ := makeLevelData(rng, levels, 100)
	for i := range probes[:50] {
		probes = append(probes, offLevel(probes[i], i%len(levels)))
	}
	lvl := make([]int, len(levels))
	for i, x := range probes {
		ref := onTheFly(net, x)
		ResolveLevels(levels, x, lvl)
		if got := net.PredictLevels(x, lvl); got != ref {
			t.Fatalf("probe %d: PredictLevels %v, on-the-fly %v", i, got, ref)
		}
		if got := net.Predict(x); got != ref {
			t.Fatalf("probe %d: Predict %v, on-the-fly %v", i, got, ref)
		}
	}
}

// TestPredictMatchesClosedForm checks every kernel path against the
// defining formula Σ w·exp(−‖(x−μ)/θ‖²) + b.
func TestPredictMatchesClosedForm(t *testing.T) {
	rng := mathx.NewRNG(13)
	xs, ys := makeSmooth(rng, 150)
	undeclared, err := Train(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	continuous, _ := makeSmooth(rng, 50)
	levels := gridLevels(4, 5)
	lxs, lys := makeLevelData(rng, levels, 200)
	declared := trainLevels(t, lxs, lys, levels)
	onLevel, _ := makeLevelData(rng, levels, 50)
	offLevelProbes := make([][]float64, len(onLevel))
	for i, x := range onLevel {
		offLevelProbes[i] = offLevel(x, i%len(x))
	}
	for _, tc := range []struct {
		name   string
		net    *Network
		probes [][]float64
	}{
		{"undeclared", undeclared, continuous},
		{"levels/on-level", declared, onLevel},
		{"levels/off-level", declared, offLevelProbes},
	} {
		tol := closedFormTol(tc.net)
		for i, x := range tc.probes {
			if got, want := tc.net.Predict(x), closedForm(tc.net, x); math.Abs(got-want) > tol {
				t.Errorf("%s probe %d: Predict %v, closed form %v (tolerance %v)", tc.name, i, got, want, tol)
			}
		}
	}
}

// TestLevelTableCapFallback declares a superset of the training levels
// whose varying-dimension product exceeds maxLevelTable. The network must
// skip the table yet predict bit-identically to one trained on the same
// data with the small declaration, and so must one trained with no
// declaration at all: all three fit through the same factor values, so
// even their weights agree.
func TestLevelTableCapFallback(t *testing.T) {
	rng := mathx.NewRNG(14)
	small := gridLevels(4, 5)
	xs, ys := makeLevelData(rng, small, 200)
	tabled := trainLevels(t, xs, ys, small)
	big := gridLevels(4, 201) // contains every level of small exactly
	capped, err := Train(xs, ys, Options{Tree: regtree.Options{MinLeafSize: 5}, DimLevels: big})
	if err != nil {
		t.Fatal(err)
	}
	if capped.levelTab != nil {
		t.Fatalf("201 levels in %d varying dims: level table built; want none", len(capped.varyIdx))
	}
	undeclared, err := Train(xs, ys, Options{Tree: regtree.Options{MinLeafSize: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if undeclared.DimLevels() != nil || undeclared.levelTab != nil {
		t.Fatal("a network trained without a declaration has one, or a level table")
	}
	probes, _ := makeLevelData(rng, small, 100)
	for i := range probes[:50] {
		probes = append(probes, offLevel(probes[i], i%len(small)))
	}
	lvl := make([]int, len(big))
	for i, x := range probes {
		want := tabled.Predict(x)
		if got := capped.Predict(x); got != want {
			t.Fatalf("probe %d %v: capped Predict %v, tabled %v (must be bit-identical)", i, x, got, want)
		}
		ResolveLevels(big, x, lvl)
		if got := capped.PredictLevels(x, lvl); got != want {
			t.Fatalf("probe %d: capped PredictLevels %v, tabled %v", i, got, want)
		}
		if got := undeclared.Predict(x); got != want {
			t.Fatalf("probe %d: undeclared Predict %v, tabled %v", i, got, want)
		}
		ResolveLevels(nil, x, lvl)
		if got := undeclared.PredictLevels(x, lvl); got != want {
			t.Fatalf("probe %d: undeclared PredictLevels %v, tabled %v", i, got, want)
		}
	}
}

func TestNoBiasOption(t *testing.T) {
	rng := mathx.NewRNG(8)
	xs, ys := makeSmooth(rng, 80)
	net, err := Train(xs, ys, Options{NoBias: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(net.weights) != net.NumCenters() {
		t.Errorf("weights %d != centers %d with NoBias", len(net.weights), net.NumCenters())
	}
}

// Property: training on y = a + b·x0 with ample data yields predictions
// within the observed response range (no wild extrapolation inside the
// training box).
func TestPredictionBoundedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		a := rng.Float64()*4 - 2
		b := rng.Float64()*4 - 2
		n := 80
		xs := make([][]float64, n)
		ys := make([]float64, n)
		for i := 0; i < n; i++ {
			xs[i] = []float64{rng.Float64()}
			ys[i] = a + b*xs[i][0]
		}
		net, err := Train(xs, ys, Options{})
		if err != nil {
			return false
		}
		lo, hi := mathx.Min(ys), mathx.Max(ys)
		span := hi - lo + 1e-9
		for trial := 0; trial < 20; trial++ {
			p := net.Predict([]float64{rng.Float64()})
			if p < lo-0.5*span || p > hi+0.5*span {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestBoundTablesHoldEveryDesign walks every design of the Table 2
// declaration (245,760) through PredictTables and requires each value to
// lie within BoundTables of its subtree: the designs sharing its digits
// before BoundDim, 4·4·4 of them. The bound tables are sized by the
// fixed digits only. A declaration with fewer than minBoundDesigns
// designs, and a network without a shared table, get no bound tables.
func TestBoundTablesHoldEveryDesign(t *testing.T) {
	rng := mathx.NewRNG(15)
	designs := space.SampleDesign(60, space.TrainLevels(), space.Baseline(), 4, rng)
	levels := space.FeatureLevels(false)
	xs := make([][]float64, len(designs))
	ys := make([]float64, len(designs))
	for i, d := range designs {
		x := d.Vector()
		xs[i] = x
		ys[i] = math.Cos(5*x[0]+2*x[3]) - 0.3*math.Sin(4*x[7]) + 0.2*x[8]*x[5]
	}
	net := trainLevels(t, xs, ys, levels)
	if net.BoundDim() != 0 {
		t.Fatal("bound tables exist before TabulateShared")
	}
	net.TabulateShared()
	d := net.BoundDim()
	if d != 6 {
		t.Fatalf("BoundDim = %d, want 6 (the last three dimensions span 4·4·4 designs)", d)
	}
	prefix := 1
	for _, ls := range levels[:d] {
		prefix *= len(ls)
	}
	if len(net.sBound) > prefix || len(net.gBound) > prefix || len(net.sBound)*len(net.gBound) < 2 {
		t.Fatalf("bound tables of %d and %d entries; want at most the %d fixed-digit combinations", len(net.sBound), len(net.gBound), prefix)
	}
	var digit [space.NumParams]int
	var lo, hi float64
	subtrees, tight := 0, 0
	var signs [2]bool // a negative and a positive level-table entry
	for i := 0; ; i++ {
		si, gi, psi, pgi := 0, 0, 0, 0
		for j, l := range digit {
			so, vo := net.TableOffsets(j)
			si, gi = si+so[l], gi+vo[l]
			if j < d {
				psi, pgi = psi+so[l], pgi+vo[l]
			}
		}
		if slices.Equal(digit[d:], make([]int, space.NumParams-d)) {
			lo, hi = net.BoundTables(psi, pgi)
			subtrees++
		}
		signs[0], signs[1] = signs[0] || net.levelTab[gi] < 0, signs[1] || net.levelTab[gi] > 0
		v := net.PredictTables(si, gi)
		if v < lo || v > hi {
			t.Fatalf("design %d (levels %v): PredictTables %v outside its subtree's bounds [%v, %v]", i, digit, v, lo, hi)
		}
		if v == lo {
			tight++
		}
		j := space.NumParams - 1
		for ; j >= 0; j-- {
			if digit[j]++; digit[j] < len(levels[j]) {
				break
			}
			digit[j] = 0
		}
		if j < 0 {
			break
		}
	}
	if subtrees != prefix || tight == 0 || !signs[0] || !signs[1] {
		t.Fatalf("%d subtrees (want %d), %d designs at their subtree's low bound (want some), level-table signs (−, +) seen %v (want both)", subtrees, prefix, tight, signs)
	}

	grid := gridLevels(3, 3)
	sx, sy := makeLevelData(rng, grid, 100)
	small := trainLevels(t, sx, sy, grid)
	small.TabulateShared()
	if s, _ := small.TableOffsets(0); s == nil || small.BoundDim() != 0 {
		t.Fatalf("a 27-design declaration: offsets %v, BoundDim %d; want offsets and no bound tables", s != nil, small.BoundDim())
	}
}
