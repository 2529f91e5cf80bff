// Package rbf implements Gaussian radial basis function networks whose
// centres and radii are harvested from a CART regression tree, following
// Orr et al., "Combining Regression Trees and Radial Basis Function
// Networks" (2000) — the training method named by the paper (Section 2.2).
//
// Each network has the parametric form
//
//	f(x) = Σᵢ wᵢ · exp(−‖(x − μᵢ) / θᵢ‖²)  (+ optional bias)
//
// where μᵢ is the centre vector and θᵢ the per-dimension radius vector of
// the i-th basis function, both derived from a tree node's hyperrectangle.
// Output weights are fit by ridge regression with the penalty chosen by
// generalised cross-validation (GCV). Every network evaluates one kernel
// body, split by dimension as Options.DimLevels describes.
package rbf

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/mathx"
	"repro/internal/regtree"
)

// Options controls network construction.
type Options struct {
	// Tree configures the regression tree used for centre selection.
	Tree regtree.Options
	// RadiusScales lists candidate multipliers on each node's
	// hyperrectangle extent; the best-GCV scale wins (Orr's model
	// selection couples basis width with the ridge penalty). Wider bases
	// suppress spurious sensitivity to parameters the tree never split
	// on. Defaults to {1, 2, 4}.
	RadiusScales []float64
	// MinRadius floors each radius component to keep bases well conditioned
	// when a node collapses to zero extent in some dimension. Defaults to
	// 0.05 (inputs are expected to be normalised to [0,1]).
	MinRadius float64
	// Lambdas is the ridge-penalty grid searched by GCV. Defaults to a
	// logarithmic grid from 1e-8 to 10.
	Lambdas []float64
	// MaxCenters caps the number of basis functions; tree nodes are taken
	// shallowest-first (coarse structure before fine). Defaults to 80.
	MaxCenters int
	// NoBias omits the constant bias term when true.
	NoBias bool
	// DimLevels lists per input dimension the values inference will
	// overwhelmingly see (e.g. normalised design-space levels); an empty
	// list, or a dimension past the end, marks a continuous dimension,
	// and a nil declaration makes every dimension continuous. Every
	// network evaluates the kernel as f(x) = s(x) · g(x_V) + b: s is one
	// exponential of the shared dimensions' squared distance, and
	// g = Σ_c w_c · P_c, where P_c multiplies the varying dimensions'
	// factors exp(−((xⱼ−μⱼ)/θⱼ)²) in ascending dimension order. Factors
	// of every listed value are precomputed, and when every varying
	// dimension lists its levels and their product is at most
	// maxLevelTable, g itself is tabulated, so an on-level input costs
	// one exponential and one table lookup. Network.TabulateShared
	// tabulates s the same way over the shared dimensions' levels; an
	// on-level input of such a network costs two table lookups and one
	// multiply. Off-level values fall back to computing the identical
	// factors on the fly, bit-identically. The training design matrix
	// holds the activations s · P_c, so H·w and Predict's s · Σ w_c·P_c
	// differ only by ~1e-12 relative rounding. The factor columns and
	// both tables are derived, never persisted.
	DimLevels [][]float64
}

func (o Options) withDefaults() Options {
	if len(o.RadiusScales) == 0 {
		o.RadiusScales = []float64{1, 2, 4}
	}
	if o.MinRadius <= 0 {
		o.MinRadius = 0.05
	}
	if len(o.Lambdas) == 0 {
		o.Lambdas = []float64{1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}
	}
	if o.MaxCenters <= 0 {
		o.MaxCenters = 80
	}
	return o
}

// Network is a trained RBF network.
type Network struct {
	centers [][]float64
	radii   [][]float64
	weights []float64 // basis weights; bias (if any) is the last entry
	hasBias bool

	// Inference-time tables derived from centers/radii by finalize.
	//
	// Dimensions the regression tree never split on are *shared*: every
	// node's hyperrectangle spans the full data range there, so all basis
	// functions carry an identical (centre, radius) pair in that dimension
	// and its squared-distance term can be computed once per input instead
	// of once per (input, centre). Bench traces typically depend on two or
	// three of the nine swept parameters, so most dimensions factor out.
	// The remaining *varying* dimensions are flattened row-major (stride
	// len(varyIdx)) with 1/radius reciprocals precomputed, so factors are
	// computed with no division and no per-centre pointer chase.
	dim          int
	sharedIdx    []int     // input indices with identical (centre, radius) everywhere
	sharedCenter []float64 // centre components for sharedIdx
	sharedInvRad []float64 // 1/radius components for sharedIdx
	varyIdx      []int     // input indices that differ across centres
	flatCenters  []float64 // varying centre components, row-major per centre
	flatInvRad   []float64 // varying 1/radius components, row-major per centre

	// Level tables (Options.DimLevels). The network is
	// f(x) = s(x) · g(x_V) + b, where s = exp(−sharedSum) and
	// g = Σ_c w_c · P_c with P_c the product of the varying dimensions'
	// factors. varyTabFac caches the m-length factor columns of the
	// declared level values; levelTab caches g itself over every
	// combination of varying-dimension levels, and sharedTab (built only
	// by TabulateShared) caches s over every combination of
	// shared-dimension levels. None of them is persisted.
	dimLevels    [][]float64 // bound declaration (nil: all continuous), persisted with the model
	varyTabVal   [][]float64 // per varying dim: declared values
	varyTabFac   [][]float64 // per varying dim: columns, flattened [vi*m+c]
	levelTab     []float64   // g per level combination; nil when not built
	levelStride  []int       // per varying dim: mixed-radix stride into levelTab
	sharedTab    []float64   // s per shared-level combination; nil when not built
	sharedStride []int       // per shared dim: mixed-radix stride into sharedTab
	// sharedOff[j][l] and varyOff[j][l] are level l of input dimension
	// j's offsets into sharedTab and levelTab (TableOffsets); nil unless
	// both tables exist.
	sharedOff [][]int
	varyOff   [][]int
	// Bound tables (TabulateShared, with both tables): dimensions from
	// boundDim on are a subtree's free digits (boundDim is 0 when there
	// are no bound tables). The free digits of a subtree whose fixed
	// digits' offsets sum to si reach the sBlock shared-table entries from
	// si on, and sBound[si/sBlock] holds their least and greatest; gBlock
	// and gBound do the same for the level table.
	boundDim       int
	sBlock, gBlock int
	sBound, gBound []span

	lambda      float64
	gcv         float64
	radiusScale float64
	tree        *regtree.Tree
}

// finalize derives the inference tables from the basis and binds the
// level declaration levels, precomputing each varying dimension's factors
// at its declared values (none for a continuous dimension) and dropping
// every table derived from an earlier binding. It must run before the
// training design matrix is built and before the first Predict — after
// training builds the basis and after UnmarshalJSON restores it. The
// input dimension must not exceed maxDims.
func (n *Network) finalize(levels [][]float64) {
	n.dim = 0
	if len(n.centers) > 0 {
		n.dim = len(n.centers[0])
	}
	n.sharedIdx, n.sharedCenter, n.sharedInvRad = nil, nil, nil
	n.varyIdx = nil
	for j := 0; j < n.dim; j++ {
		c0, r0 := n.centers[0][j], n.radii[0][j]
		shared := true
		for i := 1; i < len(n.centers); i++ {
			if n.centers[i][j] != c0 || n.radii[i][j] != r0 {
				shared = false
				break
			}
		}
		if shared {
			n.sharedIdx = append(n.sharedIdx, j)
			n.sharedCenter = append(n.sharedCenter, c0)
			n.sharedInvRad = append(n.sharedInvRad, 1/r0)
		} else {
			n.varyIdx = append(n.varyIdx, j)
		}
	}
	m, stride := len(n.centers), len(n.varyIdx)
	n.flatCenters = make([]float64, 0, m*stride)
	n.flatInvRad = make([]float64, 0, m*stride)
	for i, center := range n.centers {
		for _, j := range n.varyIdx {
			n.flatCenters = append(n.flatCenters, center[j])
			n.flatInvRad = append(n.flatInvRad, 1/n.radii[i][j])
		}
	}

	n.dimLevels = levels
	n.levelTab, n.levelStride = nil, nil
	n.sharedTab, n.sharedStride = nil, nil
	n.sharedOff, n.varyOff = nil, nil
	n.boundDim, n.sBound, n.gBound = 0, nil, nil
	n.varyTabVal = make([][]float64, stride)
	n.varyTabFac = make([][]float64, stride)
	for k, j := range n.varyIdx {
		vs := levelsAt(levels, j)
		n.varyTabVal[k] = vs
		fac := make([]float64, len(vs)*m)
		for vi, v := range vs {
			for c := 0; c < m; c++ {
				fac[vi*m+c] = dimFactor(v, n.flatCenters[c*stride+k], n.flatInvRad[c*stride+k])
			}
		}
		n.varyTabFac[k] = fac
	}
}

// maxDims bounds the input dimension, and with it the kernel's per-call
// stack scratch of level indices and factor columns; Train and
// UnmarshalJSON refuse wider inputs.
const maxDims = 16

// maxLevelTable caps the entries of a network's level table (8 bytes
// each). Every Table 2 network needs at most a few thousand; a declaration
// whose varying-dimension level product exceeds the cap keeps evaluating
// the varying sum on the fly.
const maxLevelTable = 1 << 14

// dimFactor is the single definition of one dimension's kernel factor —
// table construction and on-the-fly fallback both call it, so hits and
// misses are bit-identical.
func dimFactor(x, center, invRad float64) float64 {
	d := (x - center) * invRad
	return mathx.ExpFast(-(d * d))
}

// levelsAt returns dimension j's declared levels (nil past the end of the
// declaration: a continuous dimension).
func levelsAt(levels [][]float64, j int) []float64 {
	if j < len(levels) {
		return levels[j]
	}
	return nil
}

// buildLevelTable tabulates the varying sum g over the mixed-radix product
// of the varying dimensions' declared levels, row-major (the last varying
// dimension is the least significant digit, so a full-factorial sweep,
// whose last parameter varies fastest, walks the table nearly in order).
// It must run once the weights exist. Each entry is computed by
// varyingSum — the function off-level inputs fall back to — so table hits
// are bit-identical to misses. A continuous varying dimension, or a
// product above maxLevelTable, leaves no table.
func (n *Network) buildLevelTable() {
	n.levelTab, n.levelStride = nil, nil
	stride, size := mixedRadix(n.dimLevels, n.varyIdx)
	if stride == nil {
		return
	}
	m := len(n.centers)
	tab := make([]float64, size)
	var digit [maxDims]int
	var cols [maxDims][]float64
	for i := range tab {
		for k, l := range digit[:len(n.varyIdx)] {
			cols[k] = n.varyTabFac[k][l*m : (l+1)*m]
		}
		// Every column is resolved, so varyingSum never reads x.
		tab[i] = n.varyingSum(nil, &cols)
		tick(n.dimLevels, n.varyIdx, &digit)
	}
	n.levelTab, n.levelStride = tab, stride
}

// mixedRadix lays out a table over the product of the declared levels of
// dimensions dims, row-major (the last listed dimension is the least
// significant digit). It returns each dimension's stride and the table
// size, or a nil stride when some dimension is continuous or the product
// exceeds maxLevelTable.
func mixedRadix(levels [][]float64, dims []int) ([]int, int) {
	stride := make([]int, len(dims))
	size := 1
	for k := len(dims) - 1; k >= 0; k-- {
		nl := len(levelsAt(levels, dims[k]))
		if nl == 0 || size*nl > maxLevelTable {
			return nil, 0
		}
		stride[k] = size
		size *= nl
	}
	return stride, size
}

// tick advances digit, the level indices of dimensions dims, to the next
// entry of mixedRadix's layout.
func tick(levels [][]float64, dims []int, digit *[maxDims]int) {
	for k := len(dims) - 1; k >= 0; k-- {
		if digit[k]++; digit[k] < len(levelsAt(levels, dims[k])) {
			return
		}
		digit[k] = 0
	}
}

// TabulateShared tabulates the shared factor s = exp(−sharedSum) over
// the mixed-radix product of the shared dimensions' declared levels,
// laid out like the level table. Each entry is computed by sharedFactor
// — the function an input with an off-level shared dimension falls back
// to — so table hits are bit-identical to misses. A network with a
// continuous shared dimension (every one, without a declaration), or
// whose product exceeds maxLevelTable, gets no table. When the level
// table exists too, TableOffsets and PredictTables become available, and
// so do BoundDim and BoundTables when the declaration spans at least
// minBoundDesigns designs. It modifies the network, so it must run before
// the network is shared between goroutines.
func (n *Network) TabulateShared() {
	n.sharedTab, n.sharedStride = nil, nil
	n.sharedOff, n.varyOff = nil, nil
	n.boundDim, n.sBound, n.gBound = 0, nil, nil
	stride, size := mixedRadix(n.dimLevels, n.sharedIdx)
	if stride == nil {
		return
	}
	tab := make([]float64, size)
	x := make([]float64, n.dim)
	var digit [maxDims]int
	for i := range tab {
		for k, j := range n.sharedIdx {
			x[j] = n.dimLevels[j][digit[k]]
		}
		tab[i] = n.sharedFactor(x)
		tick(n.dimLevels, n.sharedIdx, &digit)
	}
	n.sharedTab, n.sharedStride = tab, stride
	if n.levelTab == nil {
		return
	}
	// Every dimension is shared or varying, and each kind's table exists,
	// so every dimension declares its levels.
	n.sharedOff = make([][]int, n.dim)
	n.varyOff = make([][]int, n.dim)
	for j := range n.sharedOff {
		nl := len(n.dimLevels[j])
		n.sharedOff[j], n.varyOff[j] = make([]int, nl), make([]int, nl)
	}
	for k, j := range n.sharedIdx {
		for l := range n.sharedOff[j] {
			n.sharedOff[j][l] = l * stride[k]
		}
	}
	for k, j := range n.varyIdx {
		for l := range n.varyOff[j] {
			n.varyOff[j][l] = l * n.levelStride[k]
		}
	}
	n.buildBounds()
}

// minBoundDesigns is the least number of declared designs a bound
// table's subtree spans: the free digits are the shortest suffix of
// dimensions whose declared level product reaches it (4·4·4 on the
// Table 2 train levels).
const minBoundDesigns = 64

// span is the least and greatest of a block of table entries.
type span struct{ lo, hi float64 }

// buildBounds reduces both tables over the free digits of a subtree:
// the shortest suffix of dimensions with at least minBoundDesigns
// declared designs. A declaration with fewer designs in all gets no
// bound tables, since its one subtree would have no fixed digit. The
// tables are sized by the fixed dimensions' levels only.
func (n *Network) buildBounds() {
	d, designs := n.dim, 1
	for d > 0 && designs < minBoundDesigns {
		d--
		designs *= len(n.dimLevels[d])
	}
	if designs < minBoundDesigns || d == 0 {
		return
	}
	n.boundDim = d
	n.sBlock, n.sBound = blockBounds(n.sharedTab, n.sharedIdx, n.sharedStride, d)
	n.gBlock, n.gBound = blockBounds(n.levelTab, n.varyIdx, n.levelStride, d)
}

// blockBounds splits tab, laid out by mixedRadix over dimensions dims
// (ascending) with strides stride, into blocks of the entries that
// dimensions from d on reach with the earlier ones fixed, and returns
// the block size and each block's least and greatest entry. The builtin
// min and max carry a NaN entry into its block's bounds.
func blockBounds(tab []float64, dims, stride []int, d int) (int, []span) {
	block := len(tab)
	if k := sort.SearchInts(dims, d); k > 0 {
		block = stride[k-1]
	}
	out := make([]span, len(tab)/block)
	for i := range out {
		b := tab[i*block : (i+1)*block]
		lo, hi := b[0], b[0]
		for _, v := range b[1:] {
			lo, hi = min(lo, v), max(hi, v)
		}
		out[i] = span{lo, hi}
	}
	return block, out
}

// TableOffsets returns, per declared level l of input dimension j, that
// level's offset into the shared-factor table (shared[l]) and into the
// level table (vary[l]); a dimension offsets only one of the two, the
// other's entries are 0. A design whose every dimension is on-level sits
// at the sums over j of its levels' offsets, which PredictTables
// evaluates. Both are nil unless TabulateShared built the shared table
// and the level table exists. Callers must not modify them.
func (n *Network) TableOffsets(j int) (shared, vary []int) {
	if n.sharedOff == nil {
		return nil, nil
	}
	return n.sharedOff[j], n.varyOff[j]
}

// PredictTables evaluates the network at the design whose TableOffsets
// sum to si in the shared-factor table and gi in the level table. It is
// PredictLevels' on-level arithmetic, so the two are bit-identical; the
// product is converted explicitly so that no architecture fuses it with
// the bias into one rounding.
func (n *Network) PredictTables(si, gi int) float64 {
	out := float64(n.sharedTab[si] * n.levelTab[gi])
	if n.hasBias {
		out += n.weights[len(n.centers)]
	}
	return out
}

// BoundDim returns the first dimension of the subtrees BoundTables
// bounds: dimensions BoundDim() onwards are a subtree's free digits. It
// is 0 when the network has no bound tables (no TableOffsets, or fewer
// than minBoundDesigns declared designs).
func (n *Network) BoundDim() int { return n.boundDim }

// BoundTables bounds PredictTables over a subtree: the designs whose
// dimensions before BoundDim sit at levels whose TableOffsets sum to si
// and gi, and whose later dimensions take any declared level. Every such
// design's PredictTables value v satisfies lo ≤ v ≤ hi exactly: s and g
// range over their tables' blocks, the product s·g is bilinear, so its
// extremes over the box are at the four corners, and rounding
// (float64(s*g), then the bias, as PredictTables does) is monotone. The
// products are converted explicitly, like PredictTables', so that no
// architecture fuses one with the bias and rounds a bound past the value
// it bounds. A NaN anywhere in the blocks makes both bounds NaN.
func (n *Network) BoundTables(si, gi int) (lo, hi float64) {
	s, g := n.sBound[si/n.sBlock], n.gBound[gi/n.gBlock]
	a, b := float64(s.lo*g.lo), float64(s.lo*g.hi)
	c, d := float64(s.hi*g.lo), float64(s.hi*g.hi)
	lo, hi = min(a, b, c, d), max(a, b, c, d)
	if n.hasBias {
		bias := n.weights[len(n.centers)]
		lo += bias
		hi += bias
	}
	return lo, hi
}

// ResolveLevels writes into lvl[j], for every j < len(lvl), the index of
// x[j] in the declared levels[j] (first exact match), or -1 when x[j] is
// off-level or the dimension is continuous. A caller evaluating several
// networks that share one declaration resolves once and passes lvl to
// each network's PredictLevels.
func ResolveLevels(levels [][]float64, x []float64, lvl []int) {
	for j := range lvl {
		lvl[j] = indexOf(levelsAt(levels, j), x[j])
	}
}

func indexOf(vs []float64, v float64) int {
	for i, w := range vs {
		if w == v {
			return i
		}
	}
	return -1
}

// sharedFactor computes the shared dimensions' common factor
// exp(−sharedSum): one exponential for all of them, since the
// result is identical for every centre anyway.
func (n *Network) sharedFactor(x []float64) float64 {
	return mathx.ExpFast(-n.sharedSum(x))
}

// levelCols picks, per varying dimension, the precomputed factor column of
// level lvl[j] (nil when the value is off-level and must be computed on
// the fly).
func (n *Network) levelCols(lvl []int, cols *[maxDims][]float64) {
	m := len(n.centers)
	for k, j := range n.varyIdx {
		cols[k] = nil
		if l := lvl[j]; l >= 0 {
			cols[k] = n.varyTabFac[k][l*m : (l+1)*m]
		}
	}
}

// varyingBlock fills prod[0:cn] with init times the varying-dimension
// factors of centres [c0, c0+cn), multiplied on in ascending dimension
// order — the same order whether a dimension hits its column or falls
// back to dimFactor, so hits and misses are bit-identical. With init 1
// this is P_c.
func (n *Network) varyingBlock(init float64, x []float64, cols *[maxDims][]float64, c0, cn int, prod *[blockSize]float64) {
	for i := 0; i < cn; i++ {
		prod[i] = init
	}
	stride := len(n.varyIdx)
	for k, j := range n.varyIdx {
		if col := cols[k]; col != nil {
			cb := col[c0 : c0+cn]
			for i := 0; i < cn; i++ {
				prod[i] *= cb[i]
			}
			continue
		}
		xv := x[j]
		for i := 0; i < cn; i++ {
			c := c0 + i
			prod[i] *= dimFactor(xv, n.flatCenters[c*stride+k], n.flatInvRad[c*stride+k])
		}
	}
}

// varyingSum is the single definition of the kernel's varying part
// g(x_V) = Σ_c w_c · P_c, summed in centre order. Level-table
// construction and every table miss call it.
func (n *Network) varyingSum(x []float64, cols *[maxDims][]float64) float64 {
	var prod [blockSize]float64
	var g float64
	m := len(n.centers)
	for c0 := 0; c0 < m; c0 += blockSize {
		cn := min(m-c0, blockSize)
		n.varyingBlock(1, x, cols, c0, cn, &prod)
		for i := 0; i < cn; i++ {
			g += n.weights[c0+i] * prod[i]
		}
	}
	return g
}

// evalBasisInto writes every basis activation s · P_c into
// dst[0:NumCenters]. Training builds the design matrix through this
// function, multiplying s in first and then each varying factor, which
// keeps the design matrix — and so the fitted weights — independent of
// how inference groups the kernel. Declared level values hit the
// precomputed columns; anything else falls back to dimFactor,
// bit-identically.
func (n *Network) evalBasisInto(x []float64, dst []float64) {
	s := n.sharedFactor(x)
	var lvl [maxDims]int
	n.resolveVarying(x, &lvl)
	var cols [maxDims][]float64
	n.levelCols(lvl[:], &cols)
	var prod [blockSize]float64
	m := len(n.centers)
	for c0 := 0; c0 < m; c0 += blockSize {
		cn := min(m-c0, blockSize)
		n.varyingBlock(s, x, &cols, c0, cn, &prod)
		copy(dst[c0:c0+cn], prod[:cn])
	}
}

// resolveVarying is ResolveLevels against the network's own declaration,
// restricted to the varying dimensions (the only ones the factor columns
// index).
func (n *Network) resolveVarying(x []float64, lvl *[maxDims]int) {
	for k, j := range n.varyIdx {
		lvl[j] = indexOf(n.varyTabVal[k], x[j])
	}
}

// Train fits an RBF network to xs (n samples × d features, d at most 16)
// and ys.
func Train(xs [][]float64, ys []float64, opts Options) (*Network, error) {
	opts = opts.withDefaults()
	if len(xs) > 0 && len(xs[0]) > maxDims {
		return nil, fmt.Errorf("rbf: %d input dimensions, at most %d supported", len(xs[0]), maxDims)
	}
	tree, err := regtree.Fit(xs, ys, opts.Tree)
	if err != nil {
		return nil, fmt.Errorf("rbf: %w", err)
	}
	return trainWithTree(tree, xs, ys, opts)
}

func trainWithTree(tree *regtree.Tree, xs [][]float64, ys []float64, opts Options) (*Network, error) {
	nodes := append([]*regtree.Node(nil), tree.Nodes()...)
	// Shallowest nodes first: they carry the coarse structure. Stable sort
	// keeps creation order within a depth.
	sort.SliceStable(nodes, func(a, b int) bool { return nodes[a].Depth < nodes[b].Depth })
	if len(nodes) > opts.MaxCenters {
		nodes = nodes[:opts.MaxCenters]
	}

	var best *Network
	bestGCV := math.Inf(1)
	for _, scale := range opts.RadiusScales {
		net, err := fitAtScale(tree, nodes, xs, ys, scale, opts)
		if err != nil {
			continue
		}
		if net.gcv < bestGCV {
			best, bestGCV = net, net.gcv
		}
	}
	if best == nil {
		return nil, fmt.Errorf("rbf: no (radius scale, ridge penalty) pair produced a well-posed fit (n=%d, centers≤%d)", len(xs), len(nodes))
	}
	best.buildLevelTable()
	return best, nil
}

// fitAtScale builds the basis at one radius scale and ridge-fits weights,
// selecting the penalty by GCV.
func fitAtScale(tree *regtree.Tree, nodes []*regtree.Node, xs [][]float64, ys []float64, scale float64, opts Options) (*Network, error) {
	net := &Network{hasBias: !opts.NoBias, tree: tree, radiusScale: scale}
	for _, node := range nodes {
		center := node.Center()
		radius := node.Extent()
		for j := range radius {
			radius[j] *= scale
			if radius[j] < opts.MinRadius {
				radius[j] = opts.MinRadius
			}
		}
		net.centers = append(net.centers, center)
		net.radii = append(net.radii, radius)
	}
	// Finalize (binding the declared level factors) before building H so
	// training evaluates each activation s · P_c through the same factor
	// columns Predict uses. Predict groups the kernel as s · Σ w_c·P_c, so
	// H·w and Predict agree to ~1e-12 relative rounding.
	net.finalize(opts.DimLevels)

	n := len(xs)
	m := len(net.centers)
	cols := m
	if net.hasBias {
		cols++
	}
	h := mathx.NewMatrix(n, cols)
	for i, x := range xs {
		row := h.Row(i)
		net.evalBasisInto(x, row[:m])
		if net.hasBias {
			row[m] = 1
		}
	}

	gram := mathx.GramMatrix(h)
	rhs := mathx.MulTransVec(h, ys)

	bestGCV := math.Inf(1)
	var bestW []float64
	var bestLambda float64
	for _, lambda := range opts.Lambdas {
		sys := gram.Clone()
		for i := 0; i < cols; i++ {
			sys.Set(i, i, sys.At(i, i)+lambda)
		}
		fac, err := mathx.NewCholesky(sys)
		if err != nil {
			continue // too ill-conditioned at this λ; larger λ will succeed
		}
		w := fac.Solve(rhs)
		pred := h.MulVec(w)
		sse := 0.0
		for i := range ys {
			d := ys[i] - pred[i]
			sse += d * d
		}
		// tr(S) = m_eff − λ·tr((HᵀH+λI)⁻¹)
		trS := float64(cols) - lambda*fac.TraceInverse()
		dof := float64(n) - trS
		if dof < 1 {
			continue
		}
		gcv := float64(n) * sse / (dof * dof)
		if gcv < bestGCV {
			bestGCV, bestW, bestLambda = gcv, w, lambda
		}
	}
	if bestW == nil {
		return nil, fmt.Errorf("rbf: scale %v produced no well-posed fit", scale)
	}
	net.weights = bestW
	net.lambda = bestLambda
	net.gcv = bestGCV
	return net, nil
}

// blockSize is how many centres' varying products are built side by side:
// large enough that the independent mathx.ExpFast chains of on-the-fly
// factors pipeline, small enough that the product buffer lives in
// registers/stack.
const blockSize = 16

// sharedSum computes the squared-distance contribution of the shared
// dimensions — identical for every centre, so it seeds each centre's sum.
func (n *Network) sharedSum(x []float64) float64 {
	var s float64
	for k, j := range n.sharedIdx {
		d := (x[j] - n.sharedCenter[k]) * n.sharedInvRad[k]
		s += d * d
	}
	return s
}

// Predict evaluates the network at x. It allocates nothing, so concurrent
// sweep workers can call it on shared networks at full speed. It resolves
// x's level indices in every dimension the network has a table for and
// evaluates through PredictLevels, so the two are bit-identical.
func (n *Network) Predict(x []float64) float64 {
	var lvl [maxDims]int
	n.resolveVarying(x, &lvl)
	if n.sharedTab != nil {
		// PredictLevels reads the shared dimensions' indices only when
		// the shared table exists; they must be resolved, not zero.
		for _, j := range n.sharedIdx {
			lvl[j] = indexOf(n.dimLevels[j], x[j])
		}
	}
	return n.PredictLevels(x, lvl[:])
}

// PredictLevels evaluates the network at x given lvl, x's per-dimension
// level indices as ResolveLevels writes them against this network's
// declaration (DimLevels). When every dimension is on-level and both
// tables exist, the kernel costs two table lookups and one
// multiply; a missing shared table (or an off-level shared dimension)
// costs the shared exponential instead, and a missing level table (or
// an off-level varying dimension) computes the varying sum from the
// factor columns, falling back to on-the-fly factors for off-level
// values. lvl must cover every input dimension; without a declaration
// every index is -1.
func (n *Network) PredictLevels(x []float64, lvl []int) float64 {
	g, ok := lookup(n.levelTab, n.varyIdx, n.levelStride, lvl)
	if !ok {
		var cols [maxDims][]float64
		n.levelCols(lvl, &cols)
		g = n.varyingSum(x, &cols)
	}
	s, ok := lookup(n.sharedTab, n.sharedIdx, n.sharedStride, lvl)
	if !ok {
		s = n.sharedFactor(x)
	}
	// The explicit conversion keeps every architecture from fusing the
	// product with the bias: PredictTables rounds the same way.
	out := float64(s * g)
	if n.hasBias {
		out += n.weights[len(n.centers)]
	}
	return out
}

// lookup returns the entry of tab, laid out over dimensions dims with
// strides stride, at level indices lvl, or false when there is no table
// or some of those dimensions is off-level.
func lookup(tab []float64, dims, stride, lvl []int) (float64, bool) {
	if tab == nil {
		return 0, false
	}
	idx := 0
	for k, j := range dims {
		l := lvl[j]
		if l < 0 {
			return 0, false
		}
		idx += l * stride[k]
	}
	return tab[idx], true
}

// DimLevels returns the level declaration the network is bound to (nil
// when it was trained without one: every dimension continuous). Callers
// must not modify it.
func (n *Network) DimLevels() [][]float64 { return n.dimLevels }

// NumInputs returns the input dimension the network was trained on.
func (n *Network) NumInputs() int { return n.dim }

// NumCenters returns the number of basis functions (excluding the bias).
func (n *Network) NumCenters() int { return len(n.centers) }

// Lambda returns the GCV-selected ridge penalty.
func (n *Network) Lambda() float64 { return n.lambda }

// GCV returns the generalised cross-validation score of the selected fit.
func (n *Network) GCV() float64 { return n.gcv }

// RadiusScale returns the GCV-selected basis width multiplier.
func (n *Network) RadiusScale() float64 { return n.radiusScale }

// Tree returns the regression tree that seeded the centres; its split
// statistics drive the Figure 11 parameter-significance analysis.
func (n *Network) Tree() *regtree.Tree { return n.tree }
