package modelsel

import (
	"fmt"
	"sync"

	"parcost/internal/ml"
	"parcost/internal/ml/kernel"
	"parcost/internal/rng"
	"parcost/internal/stats"
)

// cvPlan is the dataset-level shared state of one hyper-parameter search:
// the K-fold splits, drawn once up front so every candidate is scored on the
// same partitions (scikit-learn's GridSearchCV semantics), and the lazily
// built kernel distance plane that every kernel-model evaluation shares.
// Building the plane once per search is what lets sweeps over length/alpha/
// noise/C stop recomputing pairwise distances entirely: each candidate ×
// fold derives its gram from the cached distances with one elementwise map.
//
// A plan is safe for concurrent use by the search worker pool: the folds
// and data are read-only after construction and the plane is built under a
// sync.Once.
type cvPlan struct {
	x     [][]float64
	y     []float64
	folds []stats.Fold

	scalarGram bool // force pairwise Kernel.Eval grams (reference path)
	planeOnce  sync.Once
	plane      *kernel.DistancePlane
}

// newCVPlan draws the fold splits from r. Candidates evaluated against the
// plan consume no randomness of their own, which is what makes parallel
// evaluation order-independent.
func newCVPlan(x [][]float64, y []float64, k int, r *rng.Source, scalarGram bool) *cvPlan {
	return &cvPlan{x: x, y: y, folds: stats.KFold(len(x), k, r), scalarGram: scalarGram}
}

// distancePlane returns the shared kernel plane, building it on first use so
// searches over non-kernel models never pay for it.
func (pl *cvPlan) distancePlane() *kernel.DistancePlane {
	pl.planeOnce.Do(func() {
		p := kernel.NewDistancePlane(pl.x)
		if pl.scalarGram {
			p.SetMode(kernel.GramScalar)
		}
		pl.plane = p
	})
	return pl.plane
}

// evalOne cross-validates a single candidate over the plan's folds and
// returns the mean metrics. Kernel models route through the shared distance
// plane; everything else takes the ordinary Fit/Predict path.
func (pl *cvPlan) evalOne(factory Factory, params Params) (stats.Scores, error) {
	return pl.evalOneMode(factory, params, false)
}

// evalOneSpectral is evalOne with the kernel fit routed through the plane's
// shared eigensystem (kernel.SpectralPlaneModel); the engine calls it for
// shift-axis candidate groups.
func (pl *cvPlan) evalOneSpectral(factory Factory, params Params) (stats.Scores, error) {
	return pl.evalOneMode(factory, params, true)
}

func (pl *cvPlan) evalOneMode(factory Factory, params Params, spectral bool) (stats.Scores, error) {
	var sum stats.Scores
	for _, f := range pl.folds {
		model, err := factory(params)
		if err != nil {
			return stats.Scores{}, err
		}
		_, teY := ml.Subset(pl.x, pl.y, f.Test)
		var pred []float64
		if pm, ok := model.(kernel.PlaneModel); ok {
			p := pl.distancePlane()
			_, trY := ml.Subset(pl.x, pl.y, f.Train)
			var err error
			if sm, ok := pm.(kernel.SpectralPlaneModel); ok && spectral {
				err = sm.FitPlaneSpectral(p, f.Train, trY)
			} else {
				err = pm.FitPlane(p, f.Train, trY)
			}
			if err != nil {
				return stats.Scores{}, err
			}
			pred = pm.PredictPlane(p, f.Test)
		} else {
			trX, trY := ml.Subset(pl.x, pl.y, f.Train)
			teX, _ := ml.Subset(pl.x, pl.y, f.Test)
			if err := model.Fit(trX, trY); err != nil {
				return stats.Scores{}, err
			}
			pred = model.Predict(teX)
		}
		sc := stats.Evaluate(teY, pred)
		sum.R2 += sc.R2
		sum.MAE += sc.MAE
		sum.MAPE += sc.MAPE
	}
	return pl.meanScores(sum), nil
}

// evalStaged cross-validates a group of candidates that differ only in
// their ensemble-size axis: one fit per fold at the largest size, with the
// smaller candidates' scores read off the prefix ensemble (ml.StagedFitter).
// Returns one mean-score entry per stage, aligned with stages.
func (pl *cvPlan) evalStaged(factory Factory, maxParams Params, stages []int) ([]stats.Scores, error) {
	sums := make([]stats.Scores, len(stages))
	for _, f := range pl.folds {
		model, err := factory(maxParams)
		if err != nil {
			return nil, err
		}
		sf, ok := model.(ml.StagedFitter)
		if !ok {
			return nil, fmt.Errorf("modelsel: staged evaluation of non-staged model %q", model.Name())
		}
		trX, trY := ml.Subset(pl.x, pl.y, f.Train)
		teX, teY := ml.Subset(pl.x, pl.y, f.Test)
		if err := sf.FitStaged(trX, trY, teX, stages, func(si int, pred []float64) {
			sc := stats.Evaluate(teY, pred)
			sums[si].R2 += sc.R2
			sums[si].MAE += sc.MAE
			sums[si].MAPE += sc.MAPE
		}); err != nil {
			return nil, err
		}
	}
	for i := range sums {
		sums[i] = pl.meanScores(sums[i])
	}
	return sums, nil
}

func (pl *cvPlan) meanScores(sum stats.Scores) stats.Scores {
	n := float64(len(pl.folds))
	return stats.Scores{R2: sum.R2 / n, MAE: sum.MAE / n, MAPE: sum.MAPE / n}
}
