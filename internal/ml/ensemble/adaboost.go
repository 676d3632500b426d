package ensemble

import (
	"fmt"
	"math"

	"parcost/internal/ml"
	"parcost/internal/ml/tree"
	"parcost/internal/rng"
)

// AdaBoost is the AdaBoost.R2 regression ensemble (Drucker 1997): a sequence
// of weighted regression trees where samples that the current ensemble
// predicts poorly are upweighted for the next learner, and each learner's
// vote is weighted by its confidence. The paper lists it as model "AB".
type AdaBoost struct {
	NumTrees int
	Params   tree.Params
	Seed     uint64
	Loss     LossKind // loss used to form per-sample errors

	trees  []*tree.Tree
	betas  []float64 // per-learner vote weights (log(1/beta))
	fitted bool
}

// LossKind selects AdaBoost.R2's error transform.
type LossKind int

const (
	// LinearLoss uses e = |y−ŷ| / max|y−ŷ|.
	LinearLoss LossKind = iota
	// SquareLoss uses the square of the linear loss.
	SquareLoss
	// ExponentialLoss uses 1 − exp(−linear loss).
	ExponentialLoss
)

// NewAdaBoost returns an AdaBoost.R2 regressor. Base learners are shallow
// trees by default (stumps generalize the boosting story); pass params to
// override.
func NewAdaBoost(numTrees int, params tree.Params, seed uint64) *AdaBoost {
	if numTrees < 1 {
		numTrees = 1
	}
	return &AdaBoost{NumTrees: numTrees, Params: params, Seed: seed, Loss: LinearLoss}
}

// Name returns the model identifier.
func (a *AdaBoost) Name() string { return "adaboost" }

// Fit runs the AdaBoost.R2 reweighting loop.
func (a *AdaBoost) Fit(x [][]float64, y []float64) error {
	if _, err := ml.CheckXY(x, y); err != nil {
		return err
	}
	N := len(x)
	weights := make([]float64, N)
	for i := range weights {
		weights[i] = 1.0 / float64(N)
	}
	a.trees = nil
	a.betas = nil
	r := rng.New(a.Seed)

	params := a.Params
	params.Splitter = resolveSplitter(params, N)
	var bm *tree.BinnedMatrix
	var pool *tree.HistPool
	if params.Splitter == tree.SplitterHist {
		// Bin the training matrix once; every boosting round fits and
		// evaluates against it, drawing scratch from one shared pool (the
		// sequential rounds keep HistPool's single-owner contract).
		bm = tree.NewBinnedMatrix(x, params.MaxBins)
		pool = tree.NewHistPool()
	}
	predBuf := make([]float64, N)

	for m := 0; m < a.NumTrees; m++ {
		// Sample a training set according to the current weights (the
		// resampling form of AdaBoost.R2), then fit a tree.
		idx := weightedSample(weights, N, r)
		tr := tree.New(params, r.Split())
		if bm != nil {
			tr.ShareHistPool(pool)
			if err := tr.FitBinned(bm, y, idx); err != nil {
				return fmt.Errorf("ensemble: adaboost tree %d: %w", m, err)
			}
		} else {
			sx, sy := ml.Subset(x, y, idx)
			if err := tr.Fit(sx, sy); err != nil {
				return fmt.Errorf("ensemble: adaboost tree %d: %w", m, err)
			}
		}
		// Rows outside the resample must route exactly as Predict will
		// route them later, so the vote weights describe the model that
		// actually serves predictions.
		pred := predBuf
		tr.PredictInto(x, pred)

		// Per-sample loss, normalized by the max absolute error.
		maxErr := 0.0
		absErr := make([]float64, N)
		for i := range pred {
			absErr[i] = math.Abs(pred[i] - y[i])
			if absErr[i] > maxErr {
				maxErr = absErr[i]
			}
		}
		loss := make([]float64, N)
		if maxErr == 0 {
			// Perfect learner: give it full weight and stop.
			a.trees = append(a.trees, tr)
			a.betas = append(a.betas, math.Log(1/1e-10))
			break
		}
		for i := range loss {
			e := absErr[i] / maxErr
			switch a.Loss {
			case SquareLoss:
				e = e * e
			case ExponentialLoss:
				e = 1 - math.Exp(-e)
			}
			loss[i] = e
		}
		// Weighted average loss.
		var avgLoss float64
		for i := range loss {
			avgLoss += weights[i] * loss[i]
		}
		if avgLoss >= 0.5 {
			// Learner no better than random; stop (keep it only if first).
			if len(a.trees) == 0 {
				a.trees = append(a.trees, tr)
				a.betas = append(a.betas, 0) // zero vote weight; predicts mean fallback
			}
			break
		}
		beta := avgLoss / (1 - avgLoss) // confidence: smaller beta = stronger
		// Update weights: wᵢ ← wᵢ · β^(1−lossᵢ).
		var norm float64
		for i := range weights {
			weights[i] *= math.Pow(beta, 1-loss[i])
			norm += weights[i]
		}
		for i := range weights {
			weights[i] /= norm
		}
		a.trees = append(a.trees, tr)
		a.betas = append(a.betas, math.Log(1/beta))
	}
	if len(a.trees) == 0 {
		return fmt.Errorf("ensemble: adaboost produced no learners")
	}
	a.fitted = true
	return nil
}

// Predict returns the weighted-median combination of the learners'
// predictions, as specified by AdaBoost.R2.
func (a *AdaBoost) Predict(x [][]float64) []float64 {
	if !a.fitted {
		panic("ensemble: AdaBoost.Predict before Fit")
	}
	// Precompute each learner's prediction column.
	cols := make([][]float64, len(a.trees))
	for m, tr := range a.trees {
		cols[m] = tr.Predict(x)
	}
	out := make([]float64, len(x))
	for i := range out {
		preds := make([]float64, len(a.trees))
		for m := range a.trees {
			preds[m] = cols[m][i]
		}
		out[i] = weightedMedian(preds, a.betas)
	}
	return out
}

// NumLearners returns how many learners survived fitting.
func (a *AdaBoost) NumLearners() int { return len(a.trees) }

// weightedSample draws N indices with replacement proportional to weights,
// using inverse-CDF sampling.
func weightedSample(weights []float64, N int, r *rng.Source) []int {
	cdf := make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		acc += w
		cdf[i] = acc
	}
	out := make([]int, N)
	for i := 0; i < N; i++ {
		u := r.Float64() * acc
		// Binary search.
		lo, hi := 0, len(cdf)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[i] = lo
	}
	return out
}

// weightedMedian returns the value at which the cumulative vote weight first
// reaches half the total, the AdaBoost.R2 combiner.
func weightedMedian(values, weights []float64) float64 {
	type pair struct {
		v, w float64
	}
	ps := make([]pair, len(values))
	var total float64
	for i := range values {
		ps[i] = pair{values[i], weights[i]}
		total += weights[i]
	}
	// Sort by value.
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j-1].v > ps[j].v; j-- {
			ps[j-1], ps[j] = ps[j], ps[j-1]
		}
	}
	half := total / 2
	var acc float64
	for _, p := range ps {
		acc += p.w
		if acc >= half {
			return p.v
		}
	}
	return ps[len(ps)-1].v
}

var _ ml.Regressor = (*AdaBoost)(nil)
