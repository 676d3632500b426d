package tree

import (
	"runtime"
	"sync"
)

// Modeled on internal/ml/tree: the histogram tree engine is NOT a blessed
// partitioning package. Any worker width it uses must come from the audited
// mat.Workers choke point (modeled here as an injected width), so the
// package itself contains no GOMAXPROCS read and passes with zero
// diagnostics — tree-style sizing needs no new allowlist entry. A direct
// runtime read in the same package trips the analyzer, pinning that the
// engine cannot quietly grow one.

// newParallel models a worker-width policy: the width arrives as a
// parameter, ultimately from mat.Workers() at the call site. Silent.
func newParallel(workers int) int {
	if workers < 1 {
		workers = 1
	}
	return workers
}

// runChunks models a chunk dispatcher: partitioning depends only on the
// injected width and n, never on the machine. Silent.
func runChunks(workers, n int, fn func(lo, hi int)) {
	w := newParallel(workers)
	if w > n {
		w = n
	}
	if w < 2 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	for g := 1; g < w; g++ {
		lo, hi := g*n/w, (g+1)*n/w
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	fn(0, n/w)
	wg.Wait()
}

// autoWidth is the forbidden shortcut a future edit might reach for instead
// of threading mat.Workers() through: flagged, because internal/ml/tree is
// not on the audited-partitioner allowlist.
func autoWidth() int {
	return runtime.GOMAXPROCS(0) // want `runtime.GOMAXPROCS outside the audited partitioning packages`
}
