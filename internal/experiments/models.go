package experiments

import (
	"fmt"
	"sort"
	"time"

	"parcost/internal/ml/ensemble"
	"parcost/internal/ml/tree"
	"parcost/internal/modelsel"
	"parcost/internal/stats"
)

// SearchStrategy selects the hyper-parameter search used in Figures 1/2.
type SearchStrategy int

const (
	// Grid is GridSearchCV.
	Grid SearchStrategy = iota
	// Randomized is RandomizedSearchCV.
	Randomized
	// Bayes is the GP-EI BayesSearchCV stand-in.
	Bayes
)

// String names the search strategy as the paper's figures label them.
func (s SearchStrategy) String() string {
	switch s {
	case Randomized:
		return "RandomizedSearchCV"
	case Bayes:
		return "BayesSearchCV"
	default:
		return "GridSearchCV"
	}
}

// ModelResult is one model × search-strategy cell of Figure 1/2.
type ModelResult struct {
	Code     string
	Strategy SearchStrategy
	Scores   stats.Scores // on the held-out test set, refit with best params
	SearchT  time.Duration
	Best     modelsel.Params
}

// ModelComparison is the full Figure 1 (or 2) result: every model under
// every search strategy, plus the identified best model.
type ModelComparison struct {
	Machine   string
	Results   []ModelResult
	BestModel string
}

// ModelComparisonConfig controls the search budgets (kept modest so the
// full comparison runs in reasonable time).
type ModelComparisonConfig struct {
	Folds       int
	RandomIters int
	BayesInit   int
	BayesIters  int
	MaxTrain    int // subsample training set for the search (0 = all)
	Seed        uint64
	Strategies  []SearchStrategy
	Codes       []string // model codes; nil = all
	// ScalarGram forces kernel models onto pairwise Kernel.Eval gram
	// construction instead of the shared distance plane (the reference
	// path); the kernel-suite ablation benchmark flips this.
	ScalarGram bool
	// SerialCV evaluates candidates serially instead of on the worker pool
	// (the determinism reference).
	SerialCV bool
}

// searchOptions maps the config's engine knobs to modelsel options.
func (c ModelComparisonConfig) searchOptions() []modelsel.Option {
	var opts []modelsel.Option
	if c.ScalarGram {
		opts = append(opts, modelsel.WithScalarGram())
	}
	if c.SerialCV {
		opts = append(opts, modelsel.WithSerial())
	}
	return opts
}

// DefaultModelComparisonConfig returns a tractable configuration.
func DefaultModelComparisonConfig() ModelComparisonConfig {
	return ModelComparisonConfig{
		Folds:       5,
		RandomIters: 10,
		BayesInit:   4,
		BayesIters:  12,
		MaxTrain:    700,
		Seed:        42,
		Strategies:  []SearchStrategy{Grid, Randomized, Bayes},
	}
}

// Figure1or2 runs the model × search-strategy comparison for one machine.
// It reproduces the R²/MAE/MAPE/runtime panels of Figures 1 (Aurora) and 2
// (Frontier), and identifies the best-performing model (expected: GB).
func (h *Harness) Figure1or2(machineName string, cfg ModelComparisonConfig) (ModelComparison, error) {
	_, train, test, _, err := h.byMachine(machineName)
	if err != nil {
		return ModelComparison{}, err
	}
	codes := cfg.Codes
	if codes == nil {
		codes = modelsel.RegistryCodes()
	}
	strategies := cfg.Strategies
	if len(strategies) == 0 {
		strategies = []SearchStrategy{Grid}
	}

	// Optionally subsample the training set to keep the search tractable.
	trainX, trainY := train.Features(), train.Targets()
	if cfg.MaxTrain > 0 && cfg.MaxTrain < len(trainX) {
		sub := train.Subset(subsampleIdx(len(trainX), cfg.MaxTrain, cfg.Seed))
		trainX, trainY = sub.Features(), sub.Targets()
	}
	testX, testY := test.Features(), test.Targets()

	reg := modelsel.Registry(cfg.Seed)
	var results []ModelResult
	for _, code := range codes {
		spec := reg[code]
		for _, strat := range strategies {
			var sr modelsel.SearchResult
			var serr error
			opts := cfg.searchOptions()
			dur := timeit(func() {
				switch strat {
				case Randomized:
					sr, serr = modelsel.RandomSearch(spec.Factory, spec.Space, trainX, trainY, cfg.Folds, cfg.RandomIters, cfg.Seed, opts...)
				case Bayes:
					sr, serr = modelsel.BayesSearch(spec.Factory, spec.Space, trainX, trainY, cfg.Folds, cfg.BayesInit, cfg.BayesIters, cfg.Seed, opts...)
				default:
					sr, serr = modelsel.GridSearch(spec.Factory, spec.Space, trainX, trainY, cfg.Folds, cfg.Seed, opts...)
				}
			})
			if serr != nil {
				return ModelComparison{}, fmt.Errorf("%s/%s: %w", code, strat, serr)
			}
			// Refit best params on full (subsampled) train, score on test.
			model, err := spec.Factory(sr.Best.Params)
			if err != nil {
				return ModelComparison{}, err
			}
			if err := model.Fit(trainX, trainY); err != nil {
				return ModelComparison{}, err
			}
			sc := stats.Evaluate(testY, model.Predict(testX))
			results = append(results, ModelResult{
				Code: code, Strategy: strat, Scores: sc, SearchT: dur, Best: sr.Best.Params,
			})
		}
	}
	cmp := ModelComparison{Machine: machineName, Results: results}
	cmp.BestModel = bestByR2(results)
	return cmp, nil
}

// bestByR2 returns the model code achieving the highest test R² under any
// search strategy. The paper reports Gradient Boosting as the best overall
// model; this picks the model with the single strongest fit, matching how
// the paper identifies its winner (GB yields the best R²/MAE/MAPE).
func bestByR2(results []ModelResult) string {
	best := ""
	bestR2 := -1e18
	// Iterate in a stable order for deterministic ties.
	order := make([]ModelResult, len(results))
	copy(order, results)
	sort.SliceStable(order, func(i, j int) bool { return order[i].Code < order[j].Code })
	for _, r := range order {
		if r.Scores.R2 > bestR2 {
			bestR2, best = r.Scores.R2, r.Code
		}
	}
	return best
}

// Render formats the comparison as the paper's per-metric table.
func (c ModelComparison) Render() string {
	s := fmt.Sprintf("Figure %s: model comparison (%s)\n",
		map[string]string{"aurora": "1", "frontier": "2"}[c.Machine], c.Machine)
	s += fmt.Sprintf("%-5s %-20s %8s %8s %8s %10s\n", "Model", "Search", "R2", "MAE", "MAPE", "Runtime")
	for _, r := range c.Results {
		s += fmt.Sprintf("%-5s %-20s %8.3f %8.2f %8.3f %10s\n",
			r.Code, r.Strategy, r.Scores.R2, r.Scores.MAE, r.Scores.MAPE, r.SearchT.Round(time.Millisecond))
	}
	s += fmt.Sprintf("Best overall model: %s\n", c.BestModel)
	return s
}

// CSV returns the comparison as plottable rows.
func (c ModelComparison) CSV() string {
	s := "model,search,r2,mae,mape,runtime_s\n"
	for _, r := range c.Results {
		s += fmt.Sprintf("%s,%s,%.5f,%.5f,%.5f,%.5f\n",
			r.Code, r.Strategy, r.Scores.R2, r.Scores.MAE, r.Scores.MAPE, r.SearchT.Seconds())
	}
	return s
}

// Table2Result reports GB training and prediction times (paper Table 2).
type Table2Result struct {
	Rows []Table2Row
}

// Table2Row is one machine's timing.
type Table2Row struct {
	System    string
	TrainT    time.Duration
	PredictT  time.Duration
	TestScore stats.Scores
}

// Table2 trains the paper's 750-tree, depth-10 GB on each machine and times
// training and prediction (paper: ~1.2 s train, ~20 ms predict).
func (h *Harness) Table2(seed uint64) Table2Result {
	var rows []Table2Row
	for _, name := range []string{"aurora", "frontier"} {
		_, train, test, _, _ := h.byMachine(name)
		gb := h.gbModel(seed)
		trX, trY := train.Features(), train.Targets()
		teX, teY := test.Features(), test.Targets()
		trainT := timeit(func() { _ = gb.Fit(trX, trY) })
		var pred []float64
		predT := timeit(func() { pred = gb.Predict(teX) })
		rows = append(rows, Table2Row{
			System: title(name), TrainT: trainT, PredictT: predT,
			TestScore: stats.Evaluate(teY, pred),
		})
	}
	return Table2Result{Rows: rows}
}

// Render formats Table 2.
func (r Table2Result) Render() string {
	s := "Table 2: Gradient Boosting training and prediction times\n"
	s += fmt.Sprintf("%-10s %14s %14s %18s\n", "System", "Training", "Prediction", "Test R2/MAPE")
	for _, row := range r.Rows {
		s += fmt.Sprintf("%-10s %14s %14s   R2=%.3f MAPE=%.3f\n",
			row.System, row.TrainT.Round(time.Millisecond), row.PredictT.Round(time.Microsecond),
			row.TestScore.R2, row.TestScore.MAPE)
	}
	return s
}

func title(s string) string {
	if s == "" {
		return s
	}
	return string(s[0]-'a'+'A') + s[1:]
}

// subsampleIdx returns a deterministic subsample of indices.
func subsampleIdx(n, k int, seed uint64) []int {
	if k >= n {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	return sortedSample(n, k, seed)
}

// gbParamsForDepth builds a GB factory param point (used by ablations).
func gbParamsForDepth(depth, trees int) modelsel.Params {
	return modelsel.Params{"n_trees": float64(trees), "lr": 0.1, "max_depth": float64(depth)}
}

// newGBForAblation constructs a GB directly for ablation benchmarks.
func newGBForAblation(depth, trees int, seed uint64) *ensemble.GradientBoosting {
	return ensemble.NewGradientBoosting(trees, 0.1, tree.Params{MaxDepth: depth}, seed)
}
