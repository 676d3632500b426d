// Package tree implements a CART regression tree: the paper's Decision
// Tree (DT) model, and the base learner for the Random Forest, Gradient
// Boosting, and AdaBoost ensembles.
//
// Two split engines are available, selected by Params.Splitter:
//
//   - SplitterExact sorts the samples per candidate feature and evaluates
//     every threshold between adjacent distinct values, choosing the split
//     that maximizes variance reduction (equivalently, minimizes the
//     weighted child sum-of-squared-error). It is the reference engine.
//   - SplitterHist quantile-bins every feature into ≤ 256 codes once (see
//     BinnedMatrix) and finds splits by scanning per-bin statistics, the
//     LightGBM/XGBoost-hist approach: O(bins) per feature per node instead
//     of O(n log n), with the parent-minus-sibling subtraction trick,
//     in-place sample partitioning, and slab-allocated nodes. Ensembles
//     share one BinnedMatrix across all member trees via FitBinned.
//   - SplitterAuto (the default) picks the histogram engine for large
//     training sets and the exact engine otherwise.
//
// Sample weights are supported by both engines so the same tree drives
// AdaBoost. Fitted trees predict from ordinary float thresholds regardless
// of the engine that grew them.
package tree

import (
	"fmt"
	"math"
	"sort"

	"parcost/internal/ml"
	"parcost/internal/rng"
)

// Splitter selects the split-finding engine.
type Splitter int

const (
	// SplitterAuto uses the histogram engine when the training set has at
	// least HistAutoMinSamples rows, the exact engine otherwise.
	SplitterAuto Splitter = iota
	// SplitterExact evaluates every threshold between adjacent distinct
	// values (reference engine; exact feature importances).
	SplitterExact
	// SplitterHist finds splits over quantile-binned features (fast engine).
	SplitterHist
)

// HistAutoMinSamples is the training-set size at which SplitterAuto switches
// a standalone tree fit to the histogram engine. Below it the exact engine
// is cheap and keeps the DT model's interpolation property on small data.
// Ensembles amortize binning across hundreds of trees and switch much
// earlier (see the ensemble package).
const HistAutoMinSamples = 512

// Params configures tree growth.
type Params struct {
	MaxDepth        int      // maximum depth (0 = unlimited)
	MinSamplesSplit int      // minimum samples required to split a node
	MinSamplesLeaf  int      // minimum samples in each resulting leaf
	MaxFeatures     int      // features considered per split (0 = all)
	MinImpurityDec  float64  // minimum variance reduction to accept a split
	Splitter        Splitter // split engine (default SplitterAuto)
	MaxBins         int      // histogram bins per feature (0 = DefaultMaxBins)
}

// DefaultParams returns unrestricted growth with leaf size 1.
func DefaultParams() Params {
	return Params{MaxDepth: 0, MinSamplesSplit: 2, MinSamplesLeaf: 1}
}

// node is a tree node: either an internal split or a leaf value.
type node struct {
	leaf      bool
	value     float64 // leaf prediction
	feature   int     // split feature
	threshold float64 // split threshold (go left if x[feature] <= threshold)
	left      *node
	right     *node
	samples   int
}

// Tree is a fitted regression tree.
type Tree struct {
	Params Params
	root   *node
	dim    int
	rng    *rng.Source // for MaxFeatures subsampling
	nodes  int
	depth  int
	gains  []float64 // accumulated variance-reduction per feature

	// trainPred caches, for a histogram fit with cacheTrain set, the leaf
	// value assigned to each BinnedMatrix row that participated in training
	// (see CacheTrainPredictions / TrainPredictions).
	cacheTrain bool
	trainPred  []float64

	// histPool, when set via ShareHistPool, recycles histogram buffers
	// across fits (ensembles share one pool over all member trees).
	histPool *HistPool

	// nodeSlab, when set via ShareNodeArena, recycles node slab storage
	// across fits of short-lived trees (staged cross-validation).
	nodeSlab *NodeArena
}

// NodeArena is reusable node slab storage for callers that fit many
// short-lived trees, such as staged cross-validation: each fit overwrites
// the previous fit's nodes in place instead of allocating fresh slabs.
// Sharing an arena therefore INVALIDATES every earlier tree fitted through
// it the moment a new fit starts — only loops that fully consume a tree
// before growing the next may use one. Not safe for concurrent use.
type NodeArena struct {
	a nodeArena
}

// NewNodeArena returns an empty reusable node arena.
func NewNodeArena() *NodeArena { return &NodeArena{} }

// ShareNodeArena makes subsequent histogram fits carve their nodes from the
// given arena. See NodeArena for the aliasing contract.
func (t *Tree) ShareNodeArena(na *NodeArena) { t.nodeSlab = na }

// ShareHistPool makes subsequent histogram fits draw their scratch buffers
// from the given pool instead of allocating fresh ones. Ensembles that grow
// many trees over one BinnedMatrix pass each member the same pool, reducing
// per-tree allocation to the node slabs. The pool must not be shared across
// goroutines.
func (t *Tree) ShareHistPool(p *HistPool) { t.histPool = p }

// New returns an unfitted tree with the given parameters. The rng is used
// only when MaxFeatures < dim (random split-feature subsampling); pass a
// deterministic source for reproducibility.
func New(p Params, r *rng.Source) *Tree {
	if p.MinSamplesSplit < 2 {
		p.MinSamplesSplit = 2
	}
	if p.MinSamplesLeaf < 1 {
		p.MinSamplesLeaf = 1
	}
	return &Tree{Params: p, rng: r}
}

// Name returns the model identifier.
func (t *Tree) Name() string { return "decisiontree" }

// Fit grows the tree with uniform sample weights.
func (t *Tree) Fit(x [][]float64, y []float64) error {
	if t.resolveSplitter(len(x)) == SplitterHist {
		if _, err := ml.CheckXY(x, y); err != nil {
			return err
		}
		bm := NewBinnedMatrix(x, t.Params.MaxBins)
		rows := make([]int, len(x))
		for i := range rows {
			rows[i] = i
		}
		return t.FitBinned(bm, y, rows)
	}
	w := make([]float64, len(y))
	for i := range w {
		w[i] = 1
	}
	return t.FitWeighted(x, y, w)
}

// FitWeighted grows the tree with explicit sample weights (used by AdaBoost).
func (t *Tree) FitWeighted(x [][]float64, y, w []float64) error {
	d, err := ml.CheckXY(x, y)
	if err != nil {
		return err
	}
	if len(w) != len(y) {
		return fmt.Errorf("tree: %d weights but %d samples", len(w), len(y))
	}
	if t.resolveSplitter(len(x)) == SplitterHist {
		bm := NewBinnedMatrix(x, t.Params.MaxBins)
		rows := make([]int, len(x))
		for i := range rows {
			rows[i] = i
		}
		return t.FitBinnedWeighted(bm, y, w, rows)
	}
	t.dim = d
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	t.nodes = 0
	t.depth = 0
	t.gains = make([]float64, d)
	t.trainPred = nil
	t.root = t.build(x, y, w, idx, 0)
	return nil
}

// resolveSplitter maps SplitterAuto to a concrete engine for n samples.
func (t *Tree) resolveSplitter(n int) Splitter {
	if t.Params.Splitter == SplitterAuto {
		if n >= HistAutoMinSamples {
			return SplitterHist
		}
		return SplitterExact
	}
	return t.Params.Splitter
}

// FitBinned grows the tree with the histogram engine over the given rows of
// a pre-binned matrix, with uniform sample weights. rows may repeat indices
// (bootstrap resampling) and is reordered in place during partitioning.
// Ensembles build one BinnedMatrix per fit and share it across all trees.
func (t *Tree) FitBinned(bm *BinnedMatrix, y []float64, rows []int) error {
	return t.FitBinnedWeighted(bm, y, nil, rows)
}

// FitBinnedWeighted is FitBinned with explicit per-row sample weights
// (indexed by BinnedMatrix row id; nil means uniform).
func (t *Tree) FitBinnedWeighted(bm *BinnedMatrix, y, w []float64, rows []int) error {
	if bm == nil || bm.Rows() == 0 {
		return fmt.Errorf("tree: empty binned matrix")
	}
	if len(y) != bm.Rows() {
		return fmt.Errorf("tree: %d targets but %d binned rows", len(y), bm.Rows())
	}
	if w != nil && len(w) != bm.Rows() {
		return fmt.Errorf("tree: %d weights but %d binned rows", len(w), bm.Rows())
	}
	if len(rows) == 0 {
		return fmt.Errorf("tree: no training rows")
	}
	t.dim = bm.Dim()
	t.nodes = 0
	t.depth = 0
	t.gains = make([]float64, t.dim)
	if !t.cacheTrain {
		t.trainPred = nil
	} else if len(t.trainPred) != bm.Rows() {
		t.trainPred = make([]float64, bm.Rows())
	}
	pool := t.histPool
	if pool == nil {
		pool = NewHistPool()
	}
	hb := &histBuilder{
		t: t, bm: bm, y: y, w: w,
		stride: histStride,
		pool:   pool,
		useSub: t.Params.MaxFeatures <= 0 || t.Params.MaxFeatures >= t.dim,
	}
	if t.nodeSlab != nil {
		hb.arena = &t.nodeSlab.a
	} else {
		hb.arena = new(nodeArena)
	}
	hb.arena.reset(len(rows), t.Params.MaxDepth)
	sums := hb.rowSums(rows)
	var hist *histBuf
	if hb.useSub {
		hb.feats = make([]int, t.dim)
		for i := range hb.feats {
			hb.feats[i] = i
		}
		if !hb.stops(rows, 0) {
			hist = hb.getHist()
			hb.accumulate(hist, hb.feats, rows)
		}
	}
	t.root = hb.build(rows, hist, sums, 0)
	return nil
}

// CacheTrainPredictions arranges for subsequent FitBinned* calls to record
// each training row's leaf value as the tree is grown, retrievable via
// TrainPredictions. Off by default: only callers that consume the cache
// (gradient boosting's per-round training-set update) should pay the
// n-sized allocation and per-leaf stores.
func (t *Tree) CacheTrainPredictions(on bool) {
	t.cacheTrain = on
	if !on {
		t.trainPred = nil
	}
}

// CacheTrainPredictionsInto is CacheTrainPredictions(true) with a
// caller-owned buffer, which must have one entry per BinnedMatrix row.
// Boosting loops hand every round the same buffer so the per-round cache
// allocation disappears; the fit overwrites entries for its training rows.
func (t *Tree) CacheTrainPredictionsInto(buf []float64) {
	t.cacheTrain = true
	t.trainPred = buf
}

// TrainPredictions returns the cached per-row leaf assignments from the most
// recent histogram fit: entry i is the fitted tree's prediction for row i of
// the BinnedMatrix, recorded as the tree was grown (no traversal pass).
// Entries for rows excluded from the fit are stale. Returns nil unless
// CacheTrainPredictions(true) was set before fitting.
func (t *Tree) TrainPredictions() []float64 { return t.trainPred }

// DropTrainCache releases the cached training predictions. Ensembles call it
// once a tree's training-set predictions have been consumed so retained
// member trees don't pin an n-sized slice each.
func (t *Tree) DropTrainCache() { t.trainPred = nil }

// build recursively constructs a subtree over the given sample indices.
func (t *Tree) build(x [][]float64, y, w []float64, idx []int, depth int) *node {
	if depth > t.depth {
		t.depth = depth
	}
	t.nodes++
	n := &node{samples: len(idx)}
	n.value = weightedMean(y, w, idx)

	// Stopping conditions.
	if len(idx) < t.Params.MinSamplesSplit ||
		(t.Params.MaxDepth > 0 && depth >= t.Params.MaxDepth) ||
		constantTarget(y, idx) {
		n.leaf = true
		return n
	}

	feat, thr, gain, ok := t.bestSplit(x, y, w, idx)
	if !ok || gain < t.Params.MinImpurityDec {
		n.leaf = true
		return n
	}

	// Partition idx in place around the threshold; the recursion owns idx,
	// so reordering it is free and avoids append-grown child slices.
	lo, hi := 0, len(idx)
	for lo < hi {
		if x[idx[lo]][feat] <= thr {
			lo++
		} else {
			hi--
			idx[lo], idx[hi] = idx[hi], idx[lo]
		}
	}
	leftIdx, rightIdx := idx[:lo], idx[lo:]
	if len(leftIdx) < t.Params.MinSamplesLeaf || len(rightIdx) < t.Params.MinSamplesLeaf {
		n.leaf = true
		return n
	}
	n.feature = feat
	n.threshold = thr
	// Accumulate the total variance reduction attributable to this feature
	// (the standard impurity-based feature-importance measure).
	t.gains[feat] += gain
	n.left = t.build(x, y, w, leftIdx, depth+1)
	n.right = t.build(x, y, w, rightIdx, depth+1)
	return n
}

// FeatureImportances returns the normalized impurity-based importance of
// each feature: the fraction of total variance reduction attributable to
// splits on that feature. The returned slice sums to 1 (or is all zeros for
// a stump with no splits).
func (t *Tree) FeatureImportances() []float64 {
	if t.gains == nil {
		panic("tree: FeatureImportances before Fit")
	}
	out := make([]float64, len(t.gains))
	var total float64
	for _, g := range t.gains {
		total += g
	}
	if total == 0 {
		return out
	}
	for i, g := range t.gains {
		out[i] = g / total
	}
	return out
}

// featureSubset returns the feature indices to consider at a split.
func (t *Tree) featureSubset() []int {
	if t.Params.MaxFeatures <= 0 || t.Params.MaxFeatures >= t.dim {
		all := make([]int, t.dim)
		for i := range all {
			all[i] = i
		}
		return all
	}
	if t.rng == nil {
		t.rng = rng.New(0)
	}
	return t.rng.Sample(t.dim, t.Params.MaxFeatures)
}

// bestSplit finds the variance-reducing split over the candidate features.
// It returns the feature, threshold, weighted SSE reduction, and whether any
// valid split was found.
func (t *Tree) bestSplit(x [][]float64, y, w []float64, idx []int) (int, float64, float64, bool) {
	parentSSE, parentW := weightedSSE(y, w, idx)
	if parentW == 0 {
		return 0, 0, 0, false
	}
	bestGain := 0.0
	bestFeat := -1
	bestThr := 0.0

	order := make([]int, len(idx))
	for _, feat := range t.featureSubset() {
		copy(order, idx)
		f := feat
		sort.Slice(order, func(a, b int) bool { return x[order[a]][f] < x[order[b]][f] })

		// Prefix sums of w, w*y, w*y² for O(n) threshold scan.
		var leftW, leftWY, leftWY2 float64
		totW, totWY, totWY2 := parentW, 0.0, 0.0
		for _, i := range idx {
			totWY += w[i] * y[i]
			totWY2 += w[i] * y[i] * y[i]
		}
		for s := 0; s < len(order)-1; s++ {
			i := order[s]
			leftW += w[i]
			leftWY += w[i] * y[i]
			leftWY2 += w[i] * y[i] * y[i]
			// Only split between distinct feature values.
			if x[order[s]][f] == x[order[s+1]][f] {
				continue
			}
			rightW := totW - leftW
			if leftW <= 0 || rightW <= 0 {
				continue
			}
			leftSSE := leftWY2 - leftWY*leftWY/leftW
			rightWY := totWY - leftWY
			rightWY2 := totWY2 - leftWY2
			rightSSE := rightWY2 - rightWY*rightWY/rightW
			gain := parentSSE - (leftSSE + rightSSE)
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThr = (x[order[s]][f] + x[order[s+1]][f]) / 2
			}
		}
	}
	if bestFeat < 0 {
		return 0, 0, 0, false
	}
	return bestFeat, bestThr, bestGain, true
}

// Predict returns one prediction per input row.
func (t *Tree) Predict(x [][]float64) []float64 {
	out := make([]float64, len(x))
	t.PredictInto(x, out)
	return out
}

// PredictInto writes one prediction per row of x into dst (len(dst) must be
// len(x)). Ensemble loops that predict tree-by-tree pass one scratch buffer
// so per-tree prediction costs no allocation.
func (t *Tree) PredictInto(x [][]float64, dst []float64) {
	if t.root == nil {
		panic("tree: Predict before Fit")
	}
	for i, row := range x {
		dst[i] = t.predictRow(row)
	}
}

func (t *Tree) predictRow(row []float64) float64 {
	n := t.root
	for !n.leaf {
		if row[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// NodeCount returns the number of nodes in the fitted tree.
func (t *Tree) NodeCount() int { return t.nodes }

// Depth returns the depth of the fitted tree.
func (t *Tree) Depth() int { return t.depth }

// weightedMean returns Σ wᵢyᵢ / Σ wᵢ over the given indices.
func weightedMean(y, w []float64, idx []int) float64 {
	var sw, swy float64
	for _, i := range idx {
		sw += w[i]
		swy += w[i] * y[i]
	}
	if sw == 0 {
		return 0
	}
	return swy / sw
}

// weightedSSE returns the weighted sum of squared deviations from the
// weighted mean, and the total weight.
func weightedSSE(y, w []float64, idx []int) (sse, totW float64) {
	var swy, swy2 float64
	for _, i := range idx {
		totW += w[i]
		swy += w[i] * y[i]
		swy2 += w[i] * y[i] * y[i]
	}
	if totW == 0 {
		return 0, 0
	}
	return swy2 - swy*swy/totW, totW
}

// constantTarget reports whether all targets at idx are equal.
func constantTarget(y []float64, idx []int) bool {
	if len(idx) == 0 {
		return true
	}
	first := y[idx[0]]
	for _, i := range idx[1:] {
		if math.Abs(y[i]-first) > 1e-15 {
			return false
		}
	}
	return true
}

var _ ml.Regressor = (*Tree)(nil)
