package modelsel

// The candidate-evaluation engine behind all three search drivers. Work is
// deterministic by construction: fold splits are drawn up front into the
// cvPlan, candidate points are materialized before any evaluation starts,
// results land at each candidate's original trace index, and errors are
// reported lowest-index-first (the same first-error-wins discipline as the
// random-forest fit pool) — so the parallel engine returns bit-identical
// traces to a serial run under the same seed.

import (
	"runtime"
	"sync"

	"parcost/internal/ml"
	"parcost/internal/ml/kernel"
)

// Option adjusts how a search evaluates its candidates.
type Option func(*engineOpts)

type engineOpts struct {
	workers    int
	serial     bool
	scalarGram bool
	noStaging  bool
	noSpectral bool
}

// WithSerial evaluates candidates one at a time on the calling goroutine —
// the reference mode the determinism tests compare the pool against.
func WithSerial() Option { return func(o *engineOpts) { o.serial = true } }

// WithWorkers bounds the evaluation pool at n workers (default GOMAXPROCS).
func WithWorkers(n int) Option { return func(o *engineOpts) { o.workers = n } }

// WithScalarGram forces kernel models onto pairwise Kernel.Eval gram
// construction instead of the shared distance plane's derived grams — the
// reference path, mirroring tree.SplitterExact, used by parity tests and
// the kernel-suite ablation benchmark.
func WithScalarGram() Option { return func(o *engineOpts) { o.scalarGram = true } }

// WithoutStaging disables staged-prefix grouping of ensemble-size axes, so
// every candidate fits its ensemble from scratch — the reference path the
// staging parity test compares against.
func WithoutStaging() Option { return func(o *engineOpts) { o.noStaging = true } }

// WithoutSpectral disables shift-axis grouping, so every kernel candidate
// factorizes its own (K + shift·I) with the Cholesky reference path — the
// mode the spectral parity tests compare against. WithScalarGram implies it
// (the spectral path is built on derived grams).
func WithoutSpectral() Option { return func(o *engineOpts) { o.noSpectral = true } }

func applyOpts(opts []Option) engineOpts {
	var o engineOpts
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// workItem is one unit of pool work: a single candidate, a staged group of
// candidates that differ only in their ensemble-size axis and are scored
// from one fit per fold at the largest size, or a spectral shift group of
// kernel candidates that differ only in their diagonal-shift axis and solve
// against one shared eigensystem per fold.
type workItem struct {
	single    int     // trace index (stages == nil && shiftIdx == nil)
	stages    []int   // ascending unique prefix sizes (staged groups)
	idx       [][]int // [stage] trace indices scored at that stage
	maxParams Params  // group params with the staged axis at the last stage
	shiftIdx  []int   // trace indices of a spectral shift group, in trace order
}

// stagedAxis returns the name of the space's prefix-shareable ensemble-size
// axis, or "" if none is marked.
func (s Space) stagedAxis() string {
	for _, ax := range s {
		if ax.Staged {
			return ax.Name
		}
	}
	return ""
}

// shiftAxis returns the name of the space's diagonal-shift axis, or "" if
// none is marked.
func (s Space) shiftAxis() string {
	for _, ax := range s {
		if ax.Shift {
			return ax.Name
		}
	}
	return ""
}

// spectralMinShifts is the smallest shift group routed through the spectral
// path. One eigendecomposition costs ≈4 Choleskys of the same gram (measured
// against the scalar factorization this engine otherwise runs per
// candidate), so groups below the break-even share nothing and stay on the
// reference path.
const spectralMinShifts = 4

// spectralEigBudget bounds the eigensystem bytes one search may pin on its
// distance plane: every shift group retains one eigensystem per fold for the
// life of the search. Admission is all-or-nothing and decided here, in
// single-threaded code before the worker pool starts — an in-flight budget
// check inside the parallel workers would make the spectral-vs-Cholesky
// routing (and so the last bits of the traces) depend on goroutine schedule.
const spectralEigBudget = 64 << 20

// admitSpectral keeps the shift groups if the search's eigensystems fit the
// budget, and otherwise deterministically explodes every group back into
// per-candidate reference items.
func admitSpectral(items []workItem, pl *cvPlan) []workItem {
	groups := 0
	for _, it := range items {
		if it.shiftIdx != nil {
			groups++
		}
	}
	if groups == 0 {
		return items
	}
	perGroup := 0
	for _, f := range pl.folds {
		perGroup += kernel.EigSystemBytes(len(f.Train))
	}
	if groups*perGroup <= spectralEigBudget {
		return items
	}
	out := make([]workItem, 0, len(items))
	for _, it := range items {
		if it.shiftIdx == nil {
			out = append(out, it)
			continue
		}
		for _, ti := range it.shiftIdx {
			out = append(out, workItem{single: ti})
		}
	}
	return out
}

// buildShiftItems groups candidates that differ only on the shift axis (same
// kernel point, same everything else). Groups big enough to amortize the
// factorization become spectral items; the rest stay single candidates.
// Item order follows each item's first appearance in points.
func buildShiftItems(points []Params, axis string) []workItem {
	var items []workItem
	groups := make(map[string]int) // base-params key → items index
	for i, p := range points {
		base := p.Clone()
		delete(base, axis)
		key := base.String()
		gi, ok := groups[key]
		if !ok {
			gi = len(items)
			groups[key] = gi
			items = append(items, workItem{single: -1})
		}
		items[gi].shiftIdx = append(items[gi].shiftIdx, i)
	}
	// Groups too small to pay for an eigendecomposition explode back into
	// ordinary per-candidate items, keeping first-appearance order.
	out := make([]workItem, 0, len(items))
	for _, it := range items {
		if len(it.shiftIdx) >= spectralMinShifts {
			out = append(out, it)
			continue
		}
		for _, ti := range it.shiftIdx {
			out = append(out, workItem{single: ti})
		}
	}
	return out
}

// buildWorkItems groups the candidate points for evaluation. Staged groups
// form when the space marks a staged axis and the factory's models implement
// ml.StagedFitter; spectral shift groups form when it marks a shift axis and
// the models implement kernel.SpectralPlaneModel (and neither reference mode
// disables them). Otherwise every point is its own item. Item order follows
// each item's first appearance in points, so error priority and scheduling
// are deterministic.
func buildWorkItems(points []Params, space Space, factory Factory, o engineOpts) []workItem {
	axis := space.stagedAxis()
	staged := axis != "" && !o.noStaging && len(points) > 1
	if staged {
		// Probe a throwaway model: constructors are cheap and any real
		// factory error will surface identically during evaluation.
		if m, err := factory(points[0]); err != nil {
			staged = false
		} else if _, ok := m.(ml.StagedFitter); !ok {
			staged = false
		}
	}
	if !staged {
		if sa := space.shiftAxis(); sa != "" && !o.noSpectral && !o.scalarGram && len(points) > 1 {
			if m, err := factory(points[0]); err == nil {
				if _, ok := m.(kernel.SpectralPlaneModel); ok {
					return buildShiftItems(points, sa)
				}
			}
		}
		items := make([]workItem, len(points))
		for i := range points {
			items[i] = workItem{single: i, stages: nil}
		}
		return items
	}

	var items []workItem
	groups := make(map[string]int) // base-params key → items index
	for i, p := range points {
		base := p.Clone()
		delete(base, axis)
		key := base.String()
		gi, ok := groups[key]
		if !ok {
			gi = len(items)
			groups[key] = gi
			items = append(items, workItem{single: -1, maxParams: base})
		}
		stage := int(p[axis] + 0.5) // the same rounding model factories apply
		it := &items[gi]
		pos := -1
		for si, s := range it.stages {
			if s == stage {
				pos = si
				break
			}
		}
		if pos < 0 {
			// Insert keeping stages ascending.
			pos = len(it.stages)
			for si, s := range it.stages {
				if stage < s {
					pos = si
					break
				}
			}
			it.stages = append(it.stages, 0)
			copy(it.stages[pos+1:], it.stages[pos:])
			it.stages[pos] = stage
			it.idx = append(it.idx, nil)
			copy(it.idx[pos+1:], it.idx[pos:])
			it.idx[pos] = nil
		}
		it.idx[pos] = append(it.idx[pos], i)
	}
	// Degenerate groups (a single stage) gain nothing from staging; run them
	// as plain candidates so the ordinary path — and its error messages —
	// stay in charge.
	for gi := range items {
		it := &items[gi]
		if len(it.stages) == 1 && len(it.idx[0]) == 1 {
			*it = workItem{single: it.idx[0][0]}
			continue
		}
		it.maxParams[axis] = float64(it.stages[len(it.stages)-1])
	}
	return items
}

// evalPoints runs the candidate set against the plan on a bounded worker
// pool and assembles the trace in candidate order.
func evalPoints(strategy string, factory Factory, points []Params, space Space, pl *cvPlan, o engineOpts) (SearchResult, error) {
	trace := make([]CVResult, len(points))
	items := admitSpectral(buildWorkItems(points, space, factory, o), pl)
	eval := func(it workItem) error {
		if it.shiftIdx != nil {
			// Spectral shift group: candidates share one eigensystem per
			// (kernel point, fold), memoized on the plan's distance plane.
			for _, ti := range it.shiftIdx {
				sc, err := pl.evalOneSpectral(factory, points[ti])
				if err != nil {
					return err
				}
				trace[ti] = toResult(points[ti], sc)
			}
			return nil
		}
		if it.stages == nil {
			p := points[it.single]
			sc, err := pl.evalOne(factory, p)
			if err != nil {
				return err
			}
			trace[it.single] = toResult(p, sc)
			return nil
		}
		scores, err := pl.evalStaged(factory, it.maxParams, it.stages)
		if err != nil {
			return err
		}
		for si, idxs := range it.idx {
			for _, ti := range idxs {
				trace[ti] = toResult(points[ti], scores[si])
			}
		}
		return nil
	}
	if err := runPool(items, o, eval); err != nil {
		return SearchResult{}, err
	}
	return SearchResult{Strategy: strategy, Best: best(trace), Trace: trace, NumEval: len(trace)}, nil
}

// runPool executes the items on a bounded worker pool. Errors follow the
// RF-pool discipline: every item still runs, and the error of the
// lowest-indexed failing item wins, so the reported failure does not depend
// on goroutine scheduling. Serial mode runs in order and stops at the first
// error — the same error the pool would report.
func runPool(items []workItem, o engineOpts, eval func(workItem) error) error {
	workers := o.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	if o.serial || workers <= 1 {
		for i := range items {
			if err := eval(items[i]); err != nil {
				return err
			}
		}
		return nil
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	errIdx := -1
	var firstErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := eval(items[i]); err != nil {
					mu.Lock()
					if errIdx < 0 || i < errIdx {
						errIdx, firstErr = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := range items {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return firstErr
}
