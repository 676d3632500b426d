package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"time"

	"parcost/internal/dataset"
	"parcost/internal/experiments"
	"parcost/internal/guide"
	"parcost/internal/machine"
	"parcost/internal/ml/ensemble"
)

// paperProblems are the problems of the timed Table 3 / Table 5 rows: three
// paper problems spread over its range, fixed so every seed times the same
// simulator work (a full 23-row table pair takes ~45 s on 2 cores).
var paperProblems = []dataset.Problem{{O: 81, V: 835}, {O: 134, V: 951}, {O: 204, V: 969}}

// defaultSeedDigest is the digest of every paper-repro result (wall-time
// fields excluded) for --seed 1.
const defaultSeedDigest = "65c2abaf85a50ca75af1f2b9ce268c9faf662cc79bf57a0e707208d301fe19f2"

// paperRow is one Table 3 / Table 5 row and the wall time of its query.
type paperRow struct {
	obj          guide.Objective
	q            guide.QueryResult
	trueT, predT float64
	wall         time.Duration
}

// modelsRepeats is how often a pass repeats the (short) models phase, so a
// run has several samples of it.
const modelsRepeats = 2

// paperPass is one run of both phases.
type paperPass struct {
	fig1      experiments.ModelComparison
	table2    experiments.Table2Result
	rows      []paperRow
	modelsS   []float64 // wall time of each repeat of the models phase
	modelsOK  bool      // every repeat reproduced the first one's results
	tablesS   float64
	tablesCPU float64
}

// harnessConfig is the bench_test.go harness (800/800 rows); the seed
// shifts the generation and split seeds, --seed 1 reproduces bench_test.go.
func harnessConfig(seed uint64) experiments.HarnessConfig {
	return experiments.HarnessConfig{
		AuroraSize: 800, FrontierSize: 800, GenSeed: 20240600 + seed, SplitSeed: 6 + seed, TestFrac: 0.25,
	}
}

// modelConfig is bench_test.go's Figure 1 search configuration.
func modelConfig(seed uint64) experiments.ModelComparisonConfig {
	return experiments.ModelComparisonConfig{
		Folds: 3, RandomIters: 5, BayesInit: 3, BayesIters: 6, MaxTrain: 250, Seed: 41 + seed,
		Strategies: []experiments.SearchStrategy{experiments.Grid},
		Codes:      []string{"GB", "RF", "DT", "KR", "RG", "PR"},
	}
}

// runPass runs the models phase (Figure 1 on Aurora, Table 2) and the
// tables phase (Tables 3 and 5 on paperProblems, with the paper's 750-tree
// GB and SimOracle true-loss scoring, through the public calls the
// harness's table code makes). With tr set, the advisor's model and oracle
// record spans and each phase runs under its own CPU profile.
func runPass(cfg config, h *experiments.Harness, tr *tracer, seen *seenConfigs) (paperPass, map[string]float64, map[string]float64, error) {
	var pass paperPass
	var modelsCPU, tablesCPU map[string]float64
	var prof *profile
	var err error
	if tr != nil {
		if prof, err = startProfile(cfg.dir); err != nil {
			return pass, nil, nil, err
		}
	}
	pass.modelsOK = true
	for rep := 0; rep < modelsRepeats; rep++ {
		start := time.Now()
		fig1, err := h.Figure1or2("aurora", modelConfig(cfg.seed))
		if err != nil {
			return pass, nil, nil, err
		}
		table2 := h.Table2(2 + cfg.seed)
		pass.modelsS = append(pass.modelsS, time.Since(start).Seconds())
		if rep == 0 {
			pass.fig1, pass.table2 = fig1, table2
		} else if modelsDigest(fig1, table2) != modelsDigest(pass.fig1, pass.table2) {
			pass.modelsOK = false
		}
	}
	if tr != nil {
		if modelsCPU, err = prof.stop(); err != nil {
			return pass, nil, nil, err
		}
		if prof, err = startProfile(cfg.dir); err != nil {
			return pass, nil, nil, err
		}
	}

	start := time.Now()
	cpu := selfCPUms()
	for _, obj := range []guide.Objective{guide.ShortestTime, guide.Budget} {
		var oracle guide.Oracle = guide.NewSimOracle(machine.Aurora())
		var model = ensemble.NewGradientBoostingPaper(2 + cfg.seed)
		var adv *guide.Advisor
		if tr != nil {
			oracle = &timedOracle{Oracle: oracle, tr: tr, seen: seen}
			adv, err = guide.NewAdvisor(&timedModel{Regressor: model, tr: tr}, h.AuroraTrain)
		} else {
			adv, err = guide.NewAdvisor(model, h.AuroraTrain)
		}
		if err != nil {
			return pass, nil, nil, err
		}
		for _, p := range paperProblems {
			t := time.Now()
			var id int
			if tr != nil {
				tr.query = len(pass.rows)
				id = tr.begin("evaluate")
			}
			q, err := adv.Evaluate(oracle, p, obj)
			if err != nil {
				return pass, nil, nil, fmt.Errorf("%v %v: %w", obj, p, err)
			}
			trueT, _ := oracle.TrueTime(q.TrueConfig)
			predT, _ := oracle.TrueTime(q.PredConfig)
			if tr != nil {
				tr.end(id)
			}
			pass.rows = append(pass.rows, paperRow{obj: obj, q: q, trueT: trueT, predT: predT, wall: time.Since(t)})
		}
	}
	pass.tablesS = time.Since(start).Seconds()
	pass.tablesCPU = selfCPUms() - cpu
	if tr != nil {
		if tablesCPU, err = prof.stop(); err != nil {
			return pass, nil, nil, err
		}
	}
	return pass, modelsCPU, tablesCPU, nil
}

// writeModels hashes Figure 1 and Table 2 except their wall-time fields.
func writeModels(h hash.Hash, fig1 experiments.ModelComparison, table2 experiments.Table2Result) {
	for _, m := range fig1.Results {
		fmt.Fprintf(h, "fig1 %s %v %v %v\n", m.Code, m.Strategy, m.Scores, m.Best)
	}
	fmt.Fprintf(h, "best %s\n", fig1.BestModel)
	for _, row := range table2.Rows {
		fmt.Fprintf(h, "table2 %s %v\n", row.System, row.TestScore)
	}
}

func modelsDigest(fig1 experiments.ModelComparison, table2 experiments.Table2Result) string {
	h := sha256.New()
	writeModels(h, fig1, table2)
	return hex.EncodeToString(h.Sum(nil))
}

// digest hashes every result of a pass except its wall-time fields.
func (p paperPass) digest() string {
	h := sha256.New()
	writeModels(h, p.fig1, p.table2)
	for _, row := range p.rows {
		fmt.Fprintf(h, "row %v %+v %v %v\n", row.obj, row.q, row.trueT, row.predT)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// check counts the pass's wrong answers: negative true loss, a digest that
// differs from the first pass (results must not depend on the run), or,
// for --seed 1, from the recorded digest.
func (p paperPass) check(r *run, cfg config, first string) {
	for _, row := range p.rows {
		if row.q.Loss() < 0 {
			r.fail("%v %v: negative true loss %v", row.obj, row.q.Problem, row.q.Loss())
		}
	}
	if !p.modelsOK {
		r.fail("a repeat of Figure 1 / Table 2 gave different results")
	}
	d := p.digest()
	switch {
	case first != "" && d != first:
		r.fail("pass results differ from the first pass (%s vs %s)", d, first)
	case cfg.seed == 1 && d != defaultSeedDigest:
		r.fail("results digest %s, recorded %s for seed 1", d, defaultSeedDigest)
	}
}

func runPaperRepro(cfg config, r *run) error {
	start := time.Now()
	h := experiments.NewHarness(harnessConfig(cfg.seed))
	r.e2e["setup_s"] = time.Since(start).Seconds()

	if cfg.trace {
		return tracedPaper(cfg, r, h)
	}
	var passes []paperPass
	var first string
	window := time.Now()
	for len(passes) == 0 || time.Since(window).Seconds() < cfg.seconds {
		pass, _, _, err := runPass(cfg, h, nil, nil)
		if err != nil {
			return err
		}
		pass.check(r, cfg, first)
		if first == "" {
			first = pass.digest()
		}
		passes = append(passes, pass)
	}
	var lats, models []float64
	var tablesS, tablesCPU float64
	for _, p := range passes {
		for _, row := range p.rows {
			lats = append(lats, ms(row.wall))
		}
		models = append(models, p.modelsS...)
		tablesS += p.tablesS
		tablesCPU += p.tablesCPU
		r.attempted += len(p.rows) + 2*len(p.modelsS) // the rows, Figure 1 and Table 2
	}
	stage("%d passes, digest %s", len(passes), first)
	r.e2e["latency_p50_ms"] = median(lats)
	r.e2e["throughput_rps"] = float64(len(lats)) / tablesS
	r.e2e["cpu_ms_per_req"] = tablesCPU / float64(len(lats))
	r.e2e["models_s"] = median(models)
	rss, err := procHWMmb(os.Getpid())
	r.e2e["peak_rss_mb"] = rss
	return err
}

// tracedPaper runs one pass with spans and CPU profiles and reports the
// per-layer metrics of both phases.
func tracedPaper(cfg config, r *run, h *experiments.Harness) error {
	r.layer["ccsd.generate_s"] = r.e2e["setup_s"]
	seen := newSeenConfigs()
	tr := newTracer(time.Now())
	pass, modelsCPU, tablesCPU, err := runPass(cfg, h, tr, seen)
	if err != nil {
		return err
	}
	pass.check(r, cfg, "")
	r.attempted = len(pass.rows) + 2*len(pass.modelsS)
	var lats []float64
	for _, row := range pass.rows {
		lats = append(lats, ms(row.wall))
	}
	r.layer["latency.p90_ms"] = quantile(lats, 0.9)
	r.layer["latency.p99_ms"] = quantile(lats, 0.99)

	finishTrace(cfg, r, []*tracer{tr}, seen, tablesCPU, "evaluate")
	st := summarize([]*tracer{tr})
	r.layer["guide.sweeps_per_req"] = ratio(float64(st.count["predict"]), float64(st.count["evaluate"]))
	r.layer["models.cpu_fit_share"] = fitShare(modelsCPU)
	var fitS, predMs, searchS float64
	for _, row := range pass.table2.Rows {
		fitS += row.TrainT.Seconds()
		predMs += ms(row.PredictT)
	}
	for _, m := range pass.fig1.Results {
		searchS += m.SearchT.Seconds()
	}
	r.layer["ml.fit_s"] = fitS
	r.layer["ml.predict_ms"] = predMs
	r.layer["modelsel.search_s"] = searchS
	setNotApplicable(r, "guide.cache_hit_ratio", "guide.sweep_ms_mean", "guide.load_fleet_s",
		"admission.admitted", "admission.shed", "admission.est_sweep_ms",
		"serve.handler_ms_mean", "serve.cpu_ms_per_req", "http.client_ms",
		"fleetproxy.added_ms", "fleetproxy.cpu_ms_per_req", "fleetproxy.attempts_per_req",
		"loadgen.lag_ms_p99", "loadgen.cpu_ms_per_req")
	return nil
}

// fitShare is the share of a profile in model fitting and selection: the
// ml packages, modelsel and mat.
func fitShare(shares map[string]float64) float64 {
	return shares["ml.tree"] + shares["ml.ensemble"] + shares["ml.kernel"] + shares["ml.linmodel"] +
		shares["modelsel"] + shares["mat"]
}
