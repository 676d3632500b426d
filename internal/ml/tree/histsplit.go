package tree

// Histogram-based tree growth (LightGBM/XGBoost-hist style). Instead of
// sorting samples per feature per node, each node accumulates per-bin
// statistics (count, Σw, Σwy, Σwy²) over pre-binned feature codes and scans
// the ≤ 256 bin boundaries for the best variance-reducing split. Three
// further techniques keep the hot path allocation-free:
//
//   - the parent-minus-sibling subtraction trick: after a split only the
//     smaller child accumulates its histogram from samples; the larger child
//     reuses the parent's buffer with the sibling subtracted in place;
//   - in-place sample-index partitioning over one shared rows slice, instead
//     of append-grown left/right index slices per node;
//   - slab allocation of nodes and a free-list pool of histogram buffers;
//   - occupied-bin lists: every histogram tracks which bins it actually
//     touched, so deep nodes with a handful of samples scan, subtract, and
//     clear O(samples) bins instead of O(256) — empty bins can never win a
//     split (the scan conditions reject one-sided candidates and strict
//     gain comparison keeps the first bin of an equal-gain run), so the
//     sparse scan picks the identical split the dense scan would.

import (
	"math"
	"slices"
)

// histBin holds one bin's accumulated statistics.
type histBin struct {
	n   float64 // sample count (bootstrap duplicates count once each)
	w   float64 // Σ w
	wy  float64 // Σ w·y
	wy2 float64 // Σ w·y²
}

// histSums is a node's total statistics (the zeroth histogram moment).
type histSums struct {
	n   int
	w   float64
	wy  float64
	wy2 float64
}

func (s histSums) sse() float64 {
	if s.w <= 0 {
		return 0
	}
	return s.wy2 - s.wy*s.wy/s.w
}

// nodeArena slab-allocates nodes so a typical tree fit costs one node
// allocation. Full slabs stay reachable through node pointers. The first
// chunk is sized from the tree's node-count bound (set by reset), so deep
// trees don't leave a third of every slab as garbage-collector ballast.
// Reused arenas (see NodeArena) rewind their current slab instead, so the
// next fit overwrites the previous fit's nodes allocation-free.
type nodeArena struct {
	chunk []node
	next  int // capacity of the next chunk
}

const arenaMaxChunk = 4096

// reset prepares the arena for a fresh fit of a tree grown over n samples
// to maxDepth: an already-allocated slab rewinds in place (invalidating the
// previous fit's nodes), and the next chunk capacity is capped at the tree's
// node-count bound — a binary tree has ≤ 2·leaves−1 nodes, leaves bounded
// by samples and by 2^depth.
func (a *nodeArena) reset(n, maxDepth int) {
	a.chunk = a.chunk[:0]
	bound := 2*n - 1
	if maxDepth > 0 && maxDepth < 31 {
		if d := 1<<(maxDepth+1) - 1; d < bound {
			bound = d
		}
	}
	if bound < 1 {
		bound = 1
	}
	if bound > arenaMaxChunk {
		bound = arenaMaxChunk
	}
	if bound > cap(a.chunk) {
		a.next = bound
	} else {
		a.next = cap(a.chunk)
	}
}

func (a *nodeArena) alloc() *node {
	if len(a.chunk) == cap(a.chunk) {
		if a.next < 1 {
			a.next = 64
		}
		a.chunk = make([]node, 0, a.next)
		a.next *= 2 // bound was wrong only for uncapped trees; grow geometrically
		if a.next > arenaMaxChunk {
			a.next = arenaMaxChunk
		}
	}
	a.chunk = append(a.chunk, node{})
	return &a.chunk[len(a.chunk)-1]
}

// histBuf is one pooled histogram buffer plus, per feature, the list of bin
// codes it has touched. Pooled buffers hold an all-zero invariant: putHist
// clears exactly the touched bins, so getHist never pays an O(bins) clear
// and sparse nodes never pay for bins they don't use.
type histBuf struct {
	bins []histBin
	occ  [][]uint8 // [feature] touched bin codes, deduplicated, unsorted
}

// HistPool recycles histogram buffers. A tree fit creates one implicitly,
// but ensembles that grow hundreds of trees over one BinnedMatrix should
// share a pool across their member fits (via Tree.ShareHistPool) so the
// per-tree buffer allocations disappear. Pooled buffers hold an all-zero
// invariant maintained by putHist, which is what makes cross-tree reuse
// free.
//
// Ownership contract: a HistPool is owned by exactly one goroutine at a
// time — bufs is an unsynchronized free list, and the buffers it hands out
// carry the all-zero invariant that only single-owner get/put discipline
// preserves. Tree growth honors this by construction: the build recursion
// runs on one goroutine. Concurrent fitters (the RF worker pool) must NOT
// share one pool; each worker goroutine owns its own.
type HistPool struct {
	bufs      []*histBuf
	d, stride int // shape stamp; buffers from a different shape are dropped
}

// NewHistPool returns an empty histogram-buffer pool.
func NewHistPool() *HistPool { return &HistPool{} }

// histStride is the fixed per-feature histogram extent. Codes are uint8, so
// a constant 256 makes hist[f*histStride : ...+histStride] provably cover
// any code — the accumulate gather loop runs without bounds checks — at the
// cost of at most 256−NumBins(f) pooled-but-unused entries per feature.
const histStride = 256

// histBuilder grows one tree over a BinnedMatrix on a single goroutine.
type histBuilder struct {
	t      *Tree
	bm     *BinnedMatrix
	y, w   []float64 // indexed by BinnedMatrix row id; w nil = uniform
	stride int       // histogram entries per feature (histStride)
	pool   *HistPool
	arena  *nodeArena
	useSub bool  // all features at every node → subtraction trick applies
	feats  []int // feature universe when useSub
}

// getHist returns an all-zero histogram buffer from the pool.
func (hb *histBuilder) getHist() *histBuf {
	p := hb.pool
	if p.d != hb.bm.d || p.stride != hb.stride {
		// Shape change (new binned matrix): drop stale buffers.
		p.bufs = p.bufs[:0]
		p.d, p.stride = hb.bm.d, hb.stride
	}
	if k := len(p.bufs); k > 0 {
		h := p.bufs[k-1]
		p.bufs = p.bufs[:k-1]
		return h
	}
	h := &histBuf{
		bins: make([]histBin, hb.bm.d*hb.stride),
		occ:  make([][]uint8, hb.bm.d),
	}
	for f := range h.occ {
		h.occ[f] = make([]uint8, 0, hb.bm.NumBins(f))
	}
	return h
}

// putHist restores the all-zero invariant — clearing only the touched bins —
// and returns the buffer to the pool.
func (hb *histBuilder) putHist(h *histBuf) {
	for f, of := range h.occ {
		if len(of) == 0 {
			continue
		}
		base := h.bins[f*hb.stride:]
		for _, c := range of {
			base[c] = histBin{}
		}
		h.occ[f] = of[:0]
	}
	hb.pool.bufs = append(hb.pool.bufs, h)
}

// accumulate adds the given rows into hist for each listed feature,
// recording each bin's first touch in the occupancy list. hist must be
// freshly acquired (all-zero), which every call site guarantees. The
// column-major code layout makes the inner loop a sequential gather.
func (hb *histBuilder) accumulate(hist *histBuf, feats, rows []int) {
	for _, f := range feats {
		codes := hb.bm.codes[f]
		base := f * histStride
		h := hist.bins[base : base+histStride : base+histStride]
		occ := hist.occ[f]
		if hb.w == nil {
			for _, r := range rows {
				yv := hb.y[r]
				c := codes[r]
				b := &h[c]
				if b.n == 0 {
					occ = append(occ, c)
				}
				b.n++
				b.w++
				b.wy += yv
				b.wy2 += yv * yv
			}
		} else {
			for _, r := range rows {
				yv, wv := hb.y[r], hb.w[r]
				c := codes[r]
				b := &h[c]
				if b.n == 0 {
					occ = append(occ, c)
				}
				b.n++
				b.w += wv
				b.wy += wv * yv
				b.wy2 += wv * yv * yv
			}
		}
		hist.occ[f] = occ
	}
}

// subtract computes larger-child statistics in place: hist -= sib. Only the
// sibling's occupied bins can change, so the loop skips the rest; hist keeps
// its own (parent) occupancy, a superset of the result's support that also
// covers the ~1e-16 float residues subtraction leaves in emptied bins.
func (hb *histBuilder) subtract(hist, sib *histBuf, feats []int) {
	for _, f := range feats {
		h := hist.bins[f*hb.stride:]
		s := sib.bins[f*hb.stride:]
		for _, c := range sib.occ[f] {
			e := s[c]
			b := &h[c]
			b.n -= e.n
			b.w -= e.w
			b.wy -= e.wy
			b.wy2 -= e.wy2
		}
	}
}

// rowSums accumulates total node statistics directly from samples.
func (hb *histBuilder) rowSums(rows []int) histSums {
	s := histSums{n: len(rows)}
	if hb.w == nil {
		for _, r := range rows {
			yv := hb.y[r]
			s.w++
			s.wy += yv
			s.wy2 += yv * yv
		}
	} else {
		for _, r := range rows {
			yv, wv := hb.y[r], hb.w[r]
			s.w += wv
			s.wy += wv * yv
			s.wy2 += wv * yv * yv
		}
	}
	return s
}

// bestSplit scans bin boundaries of the candidate features for the largest
// weighted-SSE reduction. Like the exact splitter, it ignores MinSamplesLeaf
// here — build leafs the node afterwards if the winning split violates it —
// so both engines implement the same pre-pruning semantics.
//
// Features whose occupancy is sparse relative to their bin count scan only
// the occupied bins in ascending code order. This selects the identical
// split as the dense scan: empty bins leave the running prefix unchanged, so
// their gain equals the previous occupied bin's gain and the strict '>'
// comparison never prefers them; empty bins before the first or after the
// last occupied bin fail the one-sided-count guards.
func (hb *histBuilder) bestSplit(hist *histBuf, feats []int, sums histSums) (feat, bin int, gain float64, ok bool) {
	bestGain := 0.0
	bestFeat, bestBin := -1, -1
	for _, f := range feats {
		if b, g := hb.scanFeature(hist, f, sums); g > bestGain {
			bestGain, bestFeat, bestBin = g, f, b
		}
	}
	if bestFeat < 0 {
		return 0, 0, 0, false
	}
	return bestFeat, bestBin, bestGain, true
}

// scanFeature walks one feature's bin boundaries and returns its best
// boundary and gain (gain 0 when no valid candidate beats it). It reads
// only f's histogram region and mutates only f's occupancy list (the sparse
// path's in-place sort).
func (hb *histBuilder) scanFeature(hist *histBuf, f int, sums histSums) (bin int, gain float64) {
	parentSSE := sums.sse()
	bestGain := 0.0
	bestBin := -1
	nb := hb.bm.NumBins(f)
	if nb < 2 {
		return bestBin, bestGain
	}
	h := hist.bins[f*hb.stride : f*hb.stride+nb]
	var lc, lw, lwy, lwy2 float64
	if occ := hist.occ[f]; len(occ)*2 < nb {
		// Sparse path: keep the list sorted in place (it stays sorted for
		// any later scan of this buffer) and walk only touched bins.
		slices.Sort(occ)
		for _, c := range occ {
			b := int(c)
			if b >= nb-1 {
				break // the last bin is not a split boundary
			}
			e := h[b]
			lc += e.n
			lw += e.w
			lwy += e.wy
			lwy2 += e.wy2
			if lc <= 0 || float64(sums.n)-lc <= 0 {
				continue
			}
			rw := sums.w - lw
			if lw <= 0 || rw <= 0 {
				continue
			}
			leftSSE := lwy2 - lwy*lwy/lw
			rwy := sums.wy - lwy
			rwy2 := sums.wy2 - lwy2
			rightSSE := rwy2 - rwy*rwy/rw
			g := parentSSE - (leftSSE + rightSSE)
			if g > bestGain {
				bestGain, bestBin = g, b
			}
		}
		return bestBin, bestGain
	}
	for b := 0; b < nb-1; b++ {
		e := h[b]
		lc += e.n
		lw += e.w
		lwy += e.wy
		lwy2 += e.wy2
		// Counts are exact integers even after subtraction, unlike the
		// float moments, whose ~1e-16 residues in empty bins could
		// otherwise fake a candidate with samples on both sides.
		if lc <= 0 || float64(sums.n)-lc <= 0 {
			continue
		}
		rw := sums.w - lw
		if lw <= 0 || rw <= 0 {
			continue
		}
		leftSSE := lwy2 - lwy*lwy/lw
		rwy := sums.wy - lwy
		rwy2 := sums.wy2 - lwy2
		rightSSE := rwy2 - rwy*rwy/rw
		g := parentSSE - (leftSSE + rightSSE)
		if g > bestGain {
			bestGain, bestBin = g, b
		}
	}
	return bestBin, bestGain
}

// nodeThreshold converts a winning bin boundary into the exact engine's
// float-threshold convention: the midpoint between the node's highest
// populated bin at or below the boundary and its lowest populated bin above
// it, using the per-bin observed value ranges. The raw quantile cut sits just
// above the left value, so held-out samples falling inside the node's value
// gap would otherwise route differently than under the exact engine.
func (hb *histBuilder) nodeThreshold(hist *histBuf, feat, bin int) float64 {
	h := hist.bins[feat*hb.stride:]
	bl, br := -1, -1
	for b := bin; b >= 0; b-- {
		if h[b].n > 0 {
			bl = b
			break
		}
	}
	for b, nb := bin+1, hb.bm.NumBins(feat); b < nb; b++ {
		if h[b].n > 0 {
			br = b
			break
		}
	}
	if bl < 0 || br < 0 { // unreachable for a valid split; keep the raw cut
		return hb.bm.Cut(feat, bin)
	}
	return midpoint(hb.bm.binMax[feat][bl], hb.bm.binMin[feat][br])
}

// leftSums sums the histogram prefix bins 0..bin of feat — the statistics of
// the left child, with the right child following by subtraction from sums.
func (hb *histBuilder) leftSums(hist *histBuf, feat, bin int) histSums {
	var s histSums
	h := hist.bins[feat*hb.stride:]
	for b := 0; b <= bin; b++ {
		s.n += int(h[b].n)
		s.w += h[b].w
		s.wy += h[b].wy
		s.wy2 += h[b].wy2
	}
	return s
}

// partitionRows reorders rows in place so samples with code ≤ bin on feat
// come first, returning the boundary index.
func partitionRows(rows []int, codes []uint8, bin uint8) int {
	i, j := 0, len(rows)
	for i < j {
		if codes[rows[i]] <= bin {
			i++
		} else {
			j--
			rows[i], rows[j] = rows[j], rows[i]
		}
	}
	return i
}

// build grows a subtree over rows. In useSub mode hist holds this node's
// already-accumulated histogram (owned by the caller); otherwise hist is nil
// and the node accumulates one for its sampled features on demand.
func (hb *histBuilder) build(rows []int, hist *histBuf, sums histSums, depth int) *node {
	t := hb.t
	if depth > t.depth {
		t.depth = depth
	}
	t.nodes++
	n := hb.arena.alloc()
	n.leaf = true
	n.samples = len(rows)
	if sums.w > 0 {
		n.value = sums.wy / sums.w
	}

	// Stopping conditions — identical to the exact engine's, so both produce
	// the same pre-pruning behavior.
	if hb.stops(rows, depth) {
		hb.recordLeaf(rows, n.value)
		return n
	}

	feats := hb.feats
	ownHist := hist == nil
	if ownHist {
		feats = t.featureSubset()
		hist = hb.getHist()
		hb.accumulate(hist, feats, rows)
	}
	feat, bin, gain, ok := hb.bestSplit(hist, feats, sums)
	if !ok || gain < t.Params.MinImpurityDec {
		// Whether owned or inherited from the parent, the buffer's journey
		// ends here; return it so the pool stays complete across trees.
		hb.putHist(hist)
		hb.recordLeaf(rows, n.value)
		return n
	}

	lSums := hb.leftSums(hist, feat, bin)
	rSums := histSums{n: sums.n - lSums.n, w: sums.w - lSums.w, wy: sums.wy - lSums.wy, wy2: sums.wy2 - lSums.wy2}
	mid := partitionRows(rows, hb.bm.codes[feat], uint8(bin))
	left, right := rows[:mid], rows[mid:]
	if len(left) < t.Params.MinSamplesLeaf || len(right) < t.Params.MinSamplesLeaf {
		// Same pre-pruning as the exact engine: a winning split that starves
		// a child turns the node into a leaf.
		hb.putHist(hist)
		hb.recordLeaf(rows, n.value)
		return n
	}

	n.leaf = false
	n.feature = feat
	n.threshold = hb.nodeThreshold(hist, feat, bin)
	t.gains[feat] += gain

	if !hb.useSub || ownHist {
		// Feature subsets differ per node (or this histogram only covers this
		// node's subset), so children rebuild their own histograms.
		if ownHist {
			hb.putHist(hist)
		}
		n.left = hb.build(left, nil, lSums, depth+1)
		n.right = hb.build(right, nil, rSums, depth+1)
		return n
	}

	// Subtraction trick: only the smaller child accumulates from samples; the
	// parent buffer, minus the sibling, becomes the larger child's histogram.
	// A child that will stop immediately (e.g. the whole level at the depth
	// cap) gets no histogram at all — build leafs before reading it.
	small, large := left, right
	smallSums, largeSums := lSums, rSums
	if len(left) > len(right) {
		small, large = right, left
		smallSums, largeSums = rSums, lSums
	}
	var smallHist, largeHist, sib *histBuf
	if !hb.stops(large, depth+1) {
		sib = hb.getHist()
		hb.accumulate(sib, feats, small)
		hb.subtract(hist, sib, feats)
		largeHist = hist
		if !hb.stops(small, depth+1) {
			smallHist = sib
		}
	} else {
		if !hb.stops(small, depth+1) {
			sib = hb.getHist()
			hb.accumulate(sib, feats, small)
			smallHist = sib
		}
		// Neither child inherits the parent buffer; back to the pool.
		hb.putHist(hist)
	}
	smallNode := hb.build(small, smallHist, smallSums, depth+1)
	if sib != nil && smallHist == nil {
		// sib served only the subtraction; no child subtree owns it.
		hb.putHist(sib)
	}
	largeNode := hb.build(large, largeHist, largeSums, depth+1)
	if len(left) <= len(right) {
		n.left, n.right = smallNode, largeNode
	} else {
		n.left, n.right = largeNode, smallNode
	}
	return n
}

// stops reports whether a node over the given rows at the given depth
// becomes a leaf without attempting a split. The conditions match the exact
// engine's exactly (including its constant-target scan, which short-circuits
// at the first differing target on noisy data).
func (hb *histBuilder) stops(rows []int, depth int) bool {
	t := hb.t
	if len(rows) < t.Params.MinSamplesSplit ||
		(t.Params.MaxDepth > 0 && depth >= t.Params.MaxDepth) {
		return true
	}
	first := hb.y[rows[0]]
	for _, r := range rows[1:] {
		if math.Abs(hb.y[r]-first) > 1e-15 {
			return false
		}
	}
	return true
}

// recordLeaf caches the leaf value for every training row that landed here,
// giving ensembles the just-fit tree's training predictions for free (no
// root-to-leaf traversal pass). No-op unless the cache was requested.
func (hb *histBuilder) recordLeaf(rows []int, value float64) {
	tp := hb.t.trainPred
	if tp == nil {
		return
	}
	for _, r := range rows {
		tp[r] = value
	}
}
