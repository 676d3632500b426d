package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"parcost/internal/ccsd"
	"parcost/internal/dataset"
	"parcost/internal/fleetproxy"
	"parcost/internal/guide"
	"parcost/internal/machine"
	"parcost/internal/ml/ensemble"
	"parcost/internal/ml/tree"
)

// Wire schema of the parcost serve API, as a client sees it.
type recReq struct {
	Machine   string `json:"machine"`
	O         int    `json:"o"`
	V         int    `json:"v"`
	Objective string `json:"objective"`
}

type recResp struct {
	Machine     string  `json:"machine"`
	O           int     `json:"o"`
	V           int     `json:"v"`
	Objective   string  `json:"objective"`
	Nodes       int     `json:"nodes"`
	Tile        int     `json:"tile"`
	PredSeconds float64 `json:"pred_seconds"`
	Degraded    bool    `json:"degraded"`
}

type predReq struct {
	Machine string `json:"machine"`
	O       int    `json:"o"`
	V       int    `json:"v"`
	Nodes   int    `json:"nodes"`
	Tile    int    `json:"tile"`
}

type predResp struct {
	PredSeconds float64 `json:"pred_seconds"`
}

type batchReq struct {
	Queries []recReq `json:"queries"`
}

type batchResp struct {
	Results []struct {
		Result *recResp `json:"result"`
		Error  string   `json:"error"`
	} `json:"results"`
}

var machines = []string{"aurora", "frontier"}

// key is one recommendation query: machine, problem and objective.
type key struct {
	machine string
	p       dataset.Problem
	obj     guide.Objective
}

func (k key) req() recReq {
	obj := "stq"
	if k.obj == guide.Budget {
		obj = "bq"
	}
	return recReq{Machine: k.machine, O: k.p.O, V: k.p.V, Objective: obj}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// fleet is a running `parcost serve`, optionally behind `parcost proxy`.
type fleet struct {
	bundle   string
	serve    *proc
	proxy    *proc
	serveURL string
	proxyURL string
	trainS   float64
}

// bootFleet trains the paper-sized fleet bundle with `parcost train` and
// starts `parcost serve` on it (default flags), plus `parcost proxy`
// fronting it when withProxy is set. It also returns the loader of the
// in-process reference the answers are checked against (startReference).
func bootFleet(cfg config, withProxy bool) (*fleet, func() (*reference, error), error) {
	f := &fleet{bundle: filepath.Join(cfg.dir, "fleet.json")}
	start := time.Now()
	if err := runCmd(cfg.dir, cfg.parcost, "train", "-machines", "aurora,frontier", "-out", f.bundle); err != nil {
		return nil, nil, err
	}
	f.trainS = time.Since(start).Seconds()
	stage("trained")
	ref := startReference(cfg, f.bundle)
	addr, err := freeAddr()
	if err != nil {
		return nil, nil, err
	}
	if f.serve, err = startProc(cfg.dir, "serve", cfg.parcost, "serve", "-model", f.bundle, "-addr", addr); err != nil {
		return nil, nil, err
	}
	f.serveURL = "http://" + addr
	if err := waitHealthy(f.serveURL, f.serve, 150*time.Second); err != nil {
		return nil, nil, err
	}
	stage("serve healthy")
	if !withProxy {
		return f, ref, nil
	}
	paddr, err := freeAddr()
	if err != nil {
		return nil, nil, err
	}
	if f.proxy, err = startProc(cfg.dir, "proxy", cfg.parcost, "proxy", "-backends", addr, "-addr", paddr); err != nil {
		return nil, nil, err
	}
	f.proxyURL = "http://" + paddr
	return f, ref, waitHealthy(f.proxyURL, f.proxy, 30*time.Second)
}

// startReference returns the loader of the in-process reference. In an
// end-to-end run the bundle is decoded in the background while the server
// boots (the decode takes as long as the boot, and is not part of any
// metric); the caller waits for it before the timed window. The traced run
// decodes it after the window instead, so guide.load_fleet_s is timed on an
// otherwise idle machine.
func startReference(cfg config, bundle string) func() (*reference, error) {
	load := sync.OnceValues(func() (*reference, error) { return loadReference(bundle) })
	if !cfg.trace {
		go load()
	}
	return load
}

// settle finishes the end-to-end run's background reference load and
// collects perfbench's own garbage, so neither runs inside the timed window.
func settle(cfg config, ref func() (*reference, error)) error {
	if cfg.trace {
		return nil
	}
	_, err := ref()
	runtime.GC()
	return err
}

// stop stops the proxy, then the backend.
func (f *fleet) stop() {
	if f.proxy != nil {
		f.proxy.stop()
	}
	f.serve.stop()
}

// snap is what the processes report about themselves at one instant.
type snap struct {
	serve     guide.HealthReport
	proxy     fleetproxy.ProxyHealth
	serveProm map[string]float64
	proxyProm map[string]float64
	serveCPU  float64
	proxyCPU  float64
	selfCPU   float64
}

// snapshot scrapes /v1/healthz and /metrics and reads /proc for every
// process of the fleet, plus perfbench's own CPU time.
func (f *fleet) snapshot() (snap, error) {
	var s snap
	var err error
	if err = getJSON(f.serveURL+"/v1/healthz", &s.serve); err != nil {
		return s, err
	}
	if s.serveProm, err = scrapeMetrics(f.serveURL + "/metrics"); err != nil {
		return s, err
	}
	if s.serveCPU, err = procCPUms(f.serve.pid()); err != nil {
		return s, err
	}
	if f.proxy != nil {
		if err = getJSON(f.proxyURL+"/v1/healthz", &s.proxy); err != nil {
			return s, err
		}
		if s.proxyProm, err = scrapeMetrics(f.proxyURL + "/metrics"); err != nil {
			return s, err
		}
		if s.proxyCPU, err = procCPUms(f.proxy.pid()); err != nil {
			return s, err
		}
	}
	s.selfCPU = selfCPUms()
	return s, nil
}

// peakRSS sums VmHWM over the fleet's processes.
func (f *fleet) peakRSS() (float64, error) {
	total, err := procHWMmb(f.serve.pid())
	if err != nil || f.proxy == nil {
		return total, err
	}
	p, err := procHWMmb(f.proxy.pid())
	return total + p, err
}

func selfCPUms() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

// routeDelta returns how many requests a route served between two latency
// snapshots and their mean latency in ms.
func routeDelta(a, b map[string]guide.LatencySnapshot, route string) (n, meanMs float64) {
	x, y := a[route], b[route]
	n = float64(y.Count - x.Count)
	return n, ratio(y.MeanMs*float64(y.Count)-x.MeanMs*float64(x.Count), n)
}

// sweepDelta returns the sweeps run between two health blocks and their
// mean wall time in ms.
func sweepDelta(a, b guide.CacheHealth) (n, meanMs float64) {
	n = float64(b.Sweeps - a.Sweeps)
	return n, ratio(b.SweepMeanMs*float64(b.Sweeps)-a.SweepMeanMs*float64(a.Sweeps), n)
}

// shot is one request's outcome.
type shot struct {
	op     int           // index into the workload's operation list
	lat    time.Duration // from the time it was due (open loop) or sent (closed loop)
	sendMs float64       // from the time it was actually sent
	status int
	body   []byte
	err    error
}

// closedLoop drives bodies[i] to url from `clients` closed-loop clients
// until every body is sent or, with dur > 0, dur has passed at a multiple of
// round requests (the window ends on whole rounds). It also returns how long
// each client sat idle between a response and its next request, and the
// window's wall time.
func closedLoop(client *http.Client, url string, bodies [][]byte, clients, round int, dur time.Duration) ([]shot, []float64, time.Duration) {
	var mu sync.Mutex
	var shots []shot
	var gaps []float64
	next, stopped := 0, false
	start := time.Now()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped || next >= len(bodies) || (dur > 0 && next%round == 0 && time.Since(start) >= dur) {
			stopped = true
			return 0, false
		}
		next++
		return next - 1, true
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := time.Now()
			for i, ok := take(); ok; i, ok = take() {
				sent := time.Now()
				gap := ms(sent.Sub(prev))
				status, body, err := postJSON(client, url, bodies[i])
				prev = time.Now()
				lat := prev.Sub(sent)
				mu.Lock()
				shots = append(shots, shot{op: i, lat: lat, sendMs: ms(lat), status: status, body: body, err: err})
				gaps = append(gaps, gap)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return shots, gaps, time.Since(start)
}

// checkRec decodes one recommendation and compares it, bit for bit on
// pred_seconds, with the reference answer for its key.
func checkRec(got *recResp, k key, want guide.Recommendation) error {
	r := k.req()
	if got.Machine != r.Machine || got.O != r.O || got.V != r.V || got.Degraded {
		return fmt.Errorf("%+v: answer for a different query or degraded: %+v", r, got)
	}
	if got.Nodes != want.Config.Nodes || got.Tile != want.Config.TileSize ||
		math.Float64bits(got.PredSeconds) != math.Float64bits(want.PredTime) {
		return fmt.Errorf("%+v: served nodes=%d tile=%d pred=%v, in-process nodes=%d tile=%d pred=%v",
			r, got.Nodes, got.Tile, got.PredSeconds, want.Config.Nodes, want.Config.TileSize, want.PredTime)
	}
	return nil
}

// reference holds the in-process view of the bundle the fleet serves: the
// same advisors with the simulator oracle the server uses.
type reference struct {
	entries []guide.FleetEntry
	router  *guide.Router
	oracles map[string]*guide.SimOracle
	loadS   float64
}

func loadReference(bundle string) (*reference, error) {
	start := time.Now()
	entries, _, err := guide.LoadFleet(bundle)
	if err != nil {
		return nil, err
	}
	ref := &reference{entries: entries, router: guide.NewRouter(), oracles: map[string]*guide.SimOracle{}}
	ref.loadS = time.Since(start).Seconds()
	for _, e := range entries {
		spec, err := machine.ByName(e.Machine)
		if err != nil {
			return nil, err
		}
		ref.oracles[e.Machine] = guide.NewSimOracle(spec)
		if err := ref.router.AddShard(e.Machine, e.Advisor, guide.WithOracle(ref.oracles[e.Machine])); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// recommend answers k with an in-process Advisor.Recommend and SimOracle.
func (ref *reference) recommend(k key) (guide.Recommendation, error) {
	svc, err := ref.router.Shard(k.machine)
	if err != nil {
		return guide.Recommendation{}, err
	}
	return svc.Advisor().Recommend(k.p, k.obj, ref.oracles[k.machine])
}

// recommendAll answers keys on two goroutines, in order.
func (ref *reference) recommendAll(keys []key) ([]guide.Recommendation, error) {
	out := make([]guide.Recommendation, len(keys))
	errs := make([]error, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(keys); i = int(next.Add(1) - 1) {
				out[i], errs[i] = ref.recommend(keys[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// predictTime answers a /v1/predict request in process.
func (ref *reference) predictTime(q predReq) (float64, error) {
	svc, err := ref.router.Shard(q.Machine)
	if err != nil {
		return 0, err
	}
	return svc.PredictTime(dataset.Config{O: q.O, V: q.V, Nodes: q.Nodes, TileSize: q.Tile}), nil
}

// tracedRouter builds a router over the reference advisors whose models
// and oracles record spans on tr.
func (ref *reference) tracedRouter(tr *tracer, seen *seenConfigs) (*guide.Router, error) {
	r := guide.NewRouter()
	for _, e := range ref.entries {
		adv := &guide.Advisor{Model: &timedModel{Regressor: e.Advisor.Model, tr: tr}, Grid: e.Advisor.Grid}
		o := &timedOracle{Oracle: ref.oracles[e.Machine], tr: tr, seen: seen}
		if err := r.AddShard(e.Machine, adv, guide.WithOracle(o)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// trainLayers repeats in process what `parcost train` does for one machine
// (generate its 2300-row dataset, fit the 750-tree GB), times each step and
// profiles the fit.
func trainLayers(cfg config, r *run) error {
	start := time.Now()
	d := ccsd.Generate(machine.Aurora(), ccsd.GenConfig{TargetSize: 2300, Noise: true, Seed: 1})
	r.layer["ccsd.generate_s"] = time.Since(start).Seconds()
	gb := ensemble.NewGradientBoosting(750, 0.1, tree.Params{MaxDepth: 10, MinSamplesSplit: 2, MinSamplesLeaf: 1}, 1)
	prof, err := startProfile(cfg.dir)
	if err != nil {
		return err
	}
	start = time.Now()
	if err := gb.Fit(d.Features(), d.Targets()); err != nil {
		prof.stop()
		return err
	}
	r.layer["ml.fit_s"] = time.Since(start).Seconds()
	shares, err := prof.stop()
	r.layer["models.cpu_fit_share"] = fitShare(shares)
	return err
}

// spanLayers turns a traced run's spans into per-layer metrics. roots is the
// name of the per-query root span.
func spanLayers(r *run, st spanStats, seen *seenConfigs, rows int, roots string, cost time.Duration) {
	sweeps := float64(st.count["predict"])
	r.layer["ccsd.truetime_us"] = ratio(float64(st.total["oracle"])/1e3, float64(st.count["oracle"]))
	r.layer["ccsd.truetime_calls_per_sweep"] = ratio(float64(st.count["oracle"]), sweeps)
	r.layer["ccsd.repeat_frac"] = ratio(float64(seen.repeats), float64(seen.calls))
	r.layer["ml.predict_us_per_row"] = ratio(float64(st.total["predict"])/1e3, float64(rows))
	r.layer["ml.predict_rows_per_sweep"] = ratio(float64(rows), sweeps)
	r.layer["ml.predict_ms"] = ratio(ms(st.total["predict"]), sweeps)
	r.layer["guide.self_ms"] = ratio(ms(st.self[roots]), float64(st.count[roots]))
	r.layer["trace.overhead_frac"] = ratio(float64(st.spans)*float64(cost), float64(st.total[roots]))
}

// setNotApplicable zeroes the per-layer metrics of layers a workload does
// not exercise.
func setNotApplicable(r *run, names ...string) {
	for _, n := range names {
		r.layer[n] = 0
	}
}

// checkPredict compares a served /v1/predict body with Service.PredictTime.
func checkPredict(r *run, ref *reference, q predReq, body []byte) {
	var got predResp
	want, err := ref.predictTime(q)
	if err != nil || json.Unmarshal(body, &got) != nil || math.Float64bits(got.PredSeconds) != math.Float64bits(want) {
		r.fail("predict %+v: served %s, in-process %v (%v)", q, body, want, err)
	}
}

// admissionLayers reads the admission block of serve's /v1/healthz, and
// cross-checks the admitted count against /metrics.
func admissionLayers(r *run, before, after snap) {
	a, b := before.serve.Admission, after.serve.Admission
	if a == nil || b == nil {
		r.fail("serve /v1/healthz has no admission block")
		return
	}
	admitted := float64(b.Admitted - a.Admitted)
	const series = "parcost_admission_admitted_total"
	if promAdmitted := after.serveProm[series] - before.serveProm[series]; promAdmitted != admitted {
		r.fail("admitted: /v1/healthz says %v, /metrics says %v", admitted, promAdmitted)
	}
	r.layer["admission.admitted"] = admitted
	r.layer["admission.shed"] = float64(b.ShedQueueFull + b.ShedDeadline + b.ShedBrownout + b.ShedRateLimit -
		a.ShedQueueFull - a.ShedDeadline - a.ShedBrownout - a.ShedRateLimit)
	r.layer["admission.est_sweep_ms"] = b.EstSweepMs
}

// finishTrace records the span and profile metrics of a traced phase whose
// per-query root spans are named root, and writes the spans next to the
// build output.
func finishTrace(cfg config, r *run, workers []*tracer, seen *seenConfigs, shares map[string]float64, root string) {
	rows := 0
	for _, t := range workers {
		rows += t.rows
	}
	spanLayers(r, summarize(workers), seen, rows, root, spanCost())
	for l, v := range shares {
		r.layer["cpu."+l] = v
	}
	path := filepath.Join(filepath.Dir(cfg.dir), "spans-"+cfg.workload+".jsonl")
	if err := writeSpans(path, workers); err != nil {
		r.fail("writing spans: %v", err)
	}
}
