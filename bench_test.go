// Package parcost_test holds the benchmark harness that regenerates every
// table and figure from the paper's evaluation section, plus ablation
// benchmarks for the main design choices.
//
// Each table and figure has a dedicated benchmark (BenchmarkTableN_* /
// BenchmarkFigureN_*) that runs the corresponding experiment end-to-end.
// Run all with:
//
//	go test -bench=. -benchmem
//
// or one with, e.g., `go test -bench=BenchmarkTable3_AuroraSTQ`.
package parcost_test

import (
	"math"
	"testing"

	"parcost/internal/ccsd"
	"parcost/internal/dataset"
	"parcost/internal/experiments"
	"parcost/internal/guide"
	"parcost/internal/machine"
	"parcost/internal/mat"
	"parcost/internal/ml/ensemble"
	"parcost/internal/ml/tree"
	"parcost/internal/modelsel"
	"parcost/internal/rng"
	"parcost/internal/simsched"
	"parcost/internal/stats"
)

// benchHarness builds a modest harness once per benchmark (sizes kept small
// so the full suite runs quickly; the experiments themselves are identical
// to the full-scale run).
func benchHarness(b *testing.B) *experiments.Harness {
	b.Helper()
	return experiments.NewHarness(experiments.HarnessConfig{
		AuroraSize: 800, FrontierSize: 800, GenSeed: 20240601, SplitSeed: 7, TestFrac: 0.25,
	})
}

func benchModelCfg() experiments.ModelComparisonConfig {
	return experiments.ModelComparisonConfig{
		Folds: 3, RandomIters: 5, BayesInit: 3, BayesIters: 6, MaxTrain: 250, Seed: 42,
		Strategies: []experiments.SearchStrategy{experiments.Grid},
		Codes:      []string{"GB", "RF", "DT", "KR", "RG", "PR"},
	}
}

func benchActiveCfg() experiments.ActiveConfig {
	return experiments.ActiveConfig{
		InitialSize: 50, QuerySize: 50, Rounds: 8, Committee: 5, Seed: 13, TestFrac: 0.3,
	}
}

// --- Table 1: dataset sizes ---

func BenchmarkTable1_Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness(b)
		_ = h.Table1()
	}
}

// --- Figure 1: Aurora model comparison ---

func BenchmarkFigure1_AuroraModels(b *testing.B) {
	h := benchHarness(b)
	cfg := benchModelCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Figure1or2("aurora", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 2: Frontier model comparison ---

func BenchmarkFigure2_FrontierModels(b *testing.B) {
	h := benchHarness(b)
	cfg := benchModelCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Figure1or2("frontier", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 2: GB train/predict times ---

func BenchmarkTable2_GBTrainPredict(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Table2(3)
	}
}

// --- Table 3: Aurora STQ ---

func BenchmarkTable3_AuroraSTQ(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Table3(3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 4: Frontier STQ ---

func BenchmarkTable4_FrontierSTQ(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Table4(3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 5: Aurora BQ ---

func BenchmarkTable5_AuroraBQ(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Table5(3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 6: Frontier BQ ---

func BenchmarkTable6_FrontierBQ(b *testing.B) {
	h := benchHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Table6(3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 3: Aurora active learning ---

func BenchmarkFigure3_AuroraActive(b *testing.B) {
	h := benchHarness(b)
	cfg := benchActiveCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Figure3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 4: Frontier active learning ---

func BenchmarkFigure4_FrontierActive(b *testing.B) {
	h := benchHarness(b)
	cfg := benchActiveCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Figure4(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 5: Aurora active learning with STQ/BQ goals ---

func BenchmarkFigure5_AuroraActiveGoals(b *testing.B) {
	h := benchHarness(b)
	cfg := benchActiveCfg()
	cfg.Rounds = 5 // goal evaluation per round is expensive
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Figure5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 6: Frontier active learning with STQ/BQ goals ---

func BenchmarkFigure6_FrontierActiveGoals(b *testing.B) {
	h := benchHarness(b)
	cfg := benchActiveCfg()
	cfg.Rounds = 5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Figure6(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: exact DES vs aggregate makespan model ---
//
// Measures the scheduler crossover: small block counts use the exact list
// scheduler, large counts the aggregate model. This bench times both paths
// on the same workload.

func BenchmarkAblation_DESvsAggregate(b *testing.B) {
	r := rng.New(1)
	const n = 50000
	durs := make([]float64, n)
	var mean, maxD float64
	for i := range durs {
		durs[i] = r.Uniform(0.1, 2)
		mean += durs[i]
		if durs[i] > maxD {
			maxD = durs[i]
		}
	}
	mean /= n
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			simsched.ListMakespan(durs, 128)
		}
	})
	b.Run("aggregate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			simsched.ExpectedMakespan(n, mean, 0.5, maxD, 128)
		}
	})
}

// --- Ablation: GB depth / estimator count ---
//
// The paper settles on 750 trees at depth 10. This bench sweeps the design
// space to show the accuracy/time trade-off.

func BenchmarkAblation_GBHyper(b *testing.B) {
	spec := machine.Aurora()
	d := ccsd.Generate(spec, ccsd.GenConfig{TargetSize: 800, Noise: true, Seed: 1})
	train, test := d.Split(0.25, rng.New(2))
	trX, trY := train.Features(), train.Targets()
	teX, teY := test.Features(), test.Targets()
	configs := []struct {
		trees, depth int
	}{{100, 6}, {300, 8}, {750, 10}}
	for _, c := range configs {
		name := itoa(c.trees) + "x" + itoa(c.depth)
		b.Run(name, func(b *testing.B) {
			var sc stats.Scores
			for i := 0; i < b.N; i++ {
				gb := ensemble.NewGradientBoosting(c.trees, 0.1, tree.Params{MaxDepth: c.depth}, 1)
				_ = gb.Fit(trX, trY)
				sc = stats.Evaluate(teY, gb.Predict(teX))
			}
			b.ReportMetric(sc.MAPE, "MAPE")
			b.ReportMetric(sc.R2, "R2")
		})
	}
}

// --- Ablation: split engine (exact vs histogram) ---
//
// Compares the reference exact splitter against the shared-binned-matrix
// histogram engine on the paper's GB workload. The histogram engine bins the
// training matrix once per ensemble fit and scans O(bins) per feature per
// node, so the gap widens with tree count and depth.

func BenchmarkAblation_SplitterEngine(b *testing.B) {
	spec := machine.Aurora()
	d := ccsd.Generate(spec, ccsd.GenConfig{TargetSize: 800, Noise: true, Seed: 1})
	train, _ := d.Split(0.25, rng.New(2))
	trX, trY := train.Features(), train.Targets()
	for _, eng := range []struct {
		name string
		s    tree.Splitter
	}{{"exact", tree.SplitterExact}, {"hist", tree.SplitterHist}} {
		b.Run(eng.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gb := ensemble.NewGradientBoosting(100, 0.1,
					tree.Params{MaxDepth: 10, Splitter: eng.s}, 1)
				if err := gb.Fit(trX, trY); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation: kernel suite, shared distance plane vs scalar grams ---
//
// The kernel models historically rebuilt an n×n gram via scalar Kernel.Eval
// calls for every CV fold × candidate. The shared DistancePlane computes
// pairwise distances once per search, derives each distinct gram with one
// elementwise map, and memoizes it across candidates that revisit a
// length-scale. This bench runs the gram-sensitive kernel grids (KR, GP)
// both ways on the same data; SVR is excluded because its cost is bound by
// SMO sweeps, not gram construction.

func BenchmarkAblation_KernelGram(b *testing.B) {
	spec := machine.Aurora()
	d := ccsd.Generate(spec, ccsd.GenConfig{TargetSize: 700, Noise: true, Seed: 3})
	train, _ := d.Split(0.25, rng.New(4))
	trX, trY := train.Features(), train.Targets()
	reg := modelsel.Registry(42)
	for _, mode := range []struct {
		name string
		opts []modelsel.Option
	}{
		{"plane", nil},
		{"scalar", []modelsel.Option{modelsel.WithScalarGram()}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, code := range []string{"KR", "GP"} {
					ms := reg[code]
					if _, err := modelsel.GridSearch(ms.Factory, ms.Space, trX, trY, 3, 42, mode.opts...); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- Ablation: SPD solve engines along a diagonal-shift grid ---
//
// Cross-validated kernel sweeps factorize the SAME per-fold gram shifted
// only on the diagonal for every alpha/noise candidate. This bench runs that
// exact workload — one gram, a log-spaced shift grid, one solve per shift —
// two ways: a Cholesky per shift (the historical path), and one EigSym
// factorization whose ShiftSolve answers every shift in O(n²) (the spectral
// shift-reuse path the modelsel engine routes shift-axis candidate groups
// through).

func BenchmarkAblation_SPDSolve(b *testing.B) {
	r := rng.New(6)
	shifts := make([]float64, 8)
	for i := range shifts {
		shifts[i] = math.Pow(10, -4+float64(i)*(5.0/7.0)) // 1e-4 … 10
	}
	for _, n := range []int{167, 334} { // fold-train sizes of the paper sweeps (MaxTrain 250/500, 3 folds)
		gram := randGram(r, n)
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = r.Normal()
		}
		b.Run("chol/n"+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, s := range shifts {
					k := gram.Clone()
					k.AddScaledIdentity(s)
					ch, err := mat.NewCholesky(k)
					if err != nil {
						b.Fatal(err)
					}
					ch.SolveVec(rhs)
				}
			}
		})
		b.Run("eigshift/n"+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				es, err := mat.NewEigSym(gram)
				if err != nil {
					b.Fatal(err)
				}
				for _, s := range shifts {
					if _, err := es.ShiftSolve(s, rhs); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// randGram builds an RBF-like SPD gram matrix of unit diagonal, the matrix
// shape every kernel CV solve factorizes.
func randGram(r *rng.Source, n int) *mat.Dense {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{r.Uniform(-2, 2), r.Uniform(-2, 2), r.Uniform(-2, 2)}
	}
	g := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		g.Set(i, i, 1)
		for j := i + 1; j < n; j++ {
			var d2 float64
			for k := range rows[i] {
				d := rows[i][k] - rows[j][k]
				d2 += d * d
			}
			v := math.Exp(-d2 / 2)
			g.Set(i, j, v)
			g.Set(j, i, v)
		}
	}
	return g
}

// --- Router: mixed two-machine fleet under a shared sweep semaphore ---
//
// Serves a mixed-key query stream (both machines × problems × objectives)
// through a two-shard guide.Router, the fleet-serving hot path: cold keys
// sweep the candidate grid under the fleet-wide semaphore, repeats hit the
// per-shard LRU caches. One op = one 64-query routed batch.

func BenchmarkRouter_MixedFleet(b *testing.B) {
	router := guide.NewRouter()
	problems := []dataset.Problem{{O: 99, V: 718}, {O: 146, V: 1096}, {O: 180, V: 1070}, {O: 116, V: 840}}
	for _, spec := range []machine.Spec{machine.Aurora(), machine.Frontier()} {
		d := ccsd.Generate(spec, ccsd.GenConfig{
			Problems: problems,
			Grid: dataset.Grid{
				Nodes:     []int{5, 15, 30, 50, 100, 200, 400},
				TileSizes: []int{40, 60, 80, 100},
			},
			Seed: 1,
		})
		gb := ensemble.NewGradientBoosting(60, 0.1, tree.Params{MaxDepth: 6}, 1)
		adv, err := guide.NewAdvisor(gb, d)
		if err != nil {
			b.Fatal(err)
		}
		if err := router.AddShard(spec.Name, adv, guide.WithOracle(guide.NewSimOracle(spec))); err != nil {
			b.Fatal(err)
		}
	}
	names := router.Machines()
	queries := make([]guide.RoutedQuery, 64)
	for i := range queries {
		queries[i] = guide.RoutedQuery{
			Machine: names[i%len(names)],
			Query: guide.Query{
				Problem:   problems[(i/2)%len(problems)],
				Objective: guide.Objective((i / 8) % 2),
			},
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range router.RecommendBatch(queries) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}

// --- Ablation: active-learning query/initial size ---

func BenchmarkAblation_ActiveQuerySize(b *testing.B) {
	h := benchHarness(b)
	for _, q := range []int{25, 50, 100} {
		cfg := benchActiveCfg()
		cfg.QuerySize = q
		cfg.Rounds = 4
		b.Run("query"+itoa(q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := h.Figure3(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// itoa is a tiny int→string helper avoiding an fmt import in hot loops.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// ensure dataset import is exercised.
var _ = dataset.PaperProblems
