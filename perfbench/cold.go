package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"parcost/internal/dataset"
	"parcost/internal/guide"
	"parcost/internal/machine"
	"parcost/internal/rng"
)

// feasible reports whether the simulator admits at least one configuration
// of the default grid for p, i.e. whether a recommendation exists. It tries
// node counts from the middle of the grid outwards, where the simulator's
// runtime band is usually met first.
func feasible(o *guide.SimOracle, p dataset.Problem) bool {
	g := dataset.DefaultGrid()
	mid := len(g.Nodes) / 2
	for d := 0; d <= mid+1; d++ {
		for _, i := range []int{mid - d, mid + d} {
			if i < 0 || i >= len(g.Nodes) || (d == 0 && i != mid) {
				continue
			}
			for _, t := range g.TileSizes {
				if _, ok := o.TrueTime(dataset.Config{O: p.O, V: p.V, Nodes: g.Nodes[i], TileSize: t}); ok {
					return true
				}
			}
		}
	}
	return false
}

// coldKeys returns a warm-up query and `rounds` rounds of queries. Every
// round asks once about each of the 23 paper problems, in one seeded order,
// each jittered by a few units of O and V, so every run sweeps the same mix
// of problem sizes. All (O, V) are pairwise distinct and feasible on their
// machine; machine and objective alternate, so no configuration is
// simulated twice.
func coldKeys(seed uint64, rounds int) (key, []key) {
	r := rng.New(seed)
	paper := dataset.PaperProblems()
	order := r.Perm(len(paper))
	oracles := map[string]*guide.SimOracle{}
	for _, m := range machines {
		spec, _ := machine.ByName(m)
		oracles[m] = guide.NewSimOracle(spec)
	}
	warm := key{machine: "aurora", p: dataset.Problem{O: 60, V: 400}, obj: guide.ShortestTime}
	seen := map[dataset.Problem]bool{warm.p: true}
	var out []key
	for len(out) < rounds*len(paper) {
		base := paper[order[len(out)%len(paper)]]
		p := dataset.Problem{O: base.O + r.Intn(5) - 2, V: base.V + r.Intn(13) - 6}
		m := machines[len(out)%2]
		obj := guide.ShortestTime
		if (len(out)/2)%2 == 1 {
			obj = guide.Budget
		}
		if seen[p] || !feasible(oracles[m], p) {
			continue
		}
		seen[p] = true
		out = append(out, key{machine: m, p: p, obj: obj})
	}
	return warm, out
}

// coldRounds bounds the serve-cold window: rounds of 23 queries, far more
// than fit in a window on 2 cores (about 4.5 s per round).
const coldRounds = 6

func runServeCold(cfg config, r *run) error {
	const clients = 2
	warm, keys := coldKeys(cfg.seed, coldRounds)
	stage("inputs ready")
	bodies := make([][]byte, len(keys))
	for i, k := range keys {
		bodies[i] = mustJSON(k.req())
	}

	setupStart := time.Now()
	f, loadRef, err := bootFleet(cfg, false)
	if err != nil {
		return err
	}
	defer f.stop()
	client := loadClient(clients)
	warmPred := predReq{Machine: warm.machine, O: warm.p.O, V: warm.p.V, Nodes: 100, Tile: 80}
	status, predBody, err := postJSON(client, f.serveURL+"/v1/predict", mustJSON(warmPred))
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("warm-up predict: status %d: %v", status, err)
	}
	status, warmBody, err := postJSON(client, f.serveURL+"/v1/recommend", mustJSON(warm.req()))
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("warm-up recommend: status %d: %v", status, err)
	}
	r.e2e["setup_s"] = time.Since(setupStart).Seconds()
	r.e2e["models_s"] = f.trainS
	if err := settle(cfg, loadRef); err != nil {
		return err
	}

	before, err := f.snapshot()
	if err != nil {
		return err
	}
	shots, gaps, wall := closedLoop(client, f.serveURL+"/v1/recommend", bodies, clients, len(dataset.PaperProblems()),
		time.Duration(cfg.seconds*float64(time.Second)))
	after, err := f.snapshot()
	if err != nil {
		return err
	}
	rss, err := f.peakRSS()
	if err != nil {
		return err
	}
	f.stop()

	// Score the window: every response must be a 200 answering its query.
	r.attempted = len(shots)
	var lats, sendMs []float64
	served := make([]recResp, len(keys))
	for _, s := range shots {
		var got recResp
		switch {
		case s.err != nil:
			r.fail("request %d: %v", s.op, s.err)
		case s.status != http.StatusOK:
			r.fail("request %d: status %d: %s", s.op, s.status, s.body)
		case json.Unmarshal(s.body, &got) != nil || got.Machine != keys[s.op].machine || got.O != keys[s.op].p.O || got.V != keys[s.op].p.V:
			r.fail("request %d: bad answer %s", s.op, s.body)
		default:
			served[s.op] = got
			lats = append(lats, ms(s.lat))
			sendMs = append(sendMs, s.sendMs)
		}
	}
	r.e2e["latency_p50_ms"] = median(lats)
	r.layer["latency.p90_ms"] = quantile(lats, 0.9)
	r.layer["latency.p99_ms"] = quantile(lats, 0.99)
	r.e2e["throughput_rps"] = float64(len(lats)) / wall.Seconds()
	r.e2e["cpu_ms_per_req"] = ratio(after.serveCPU-before.serveCPU, float64(len(shots)))
	r.e2e["peak_rss_mb"] = rss

	// Check answers outside the window against the in-process reference:
	// a seeded sample of the served recommendations (all of them in the
	// traced run, which recomputes every one) and the predict answer.
	stage("window done")
	ref, err := loadRef()
	if err != nil {
		return err
	}
	stage("reference loaded")
	checkPredict(r, ref, warmPred, predBody)
	var warmGot recResp
	if want, err := ref.recommend(warm); err != nil || json.Unmarshal(warmBody, &warmGot) != nil || checkRec(&warmGot, warm, want) != nil {
		r.fail("warm-up recommend %s does not match the in-process answer (%v)", warmBody, err)
	}
	var done []int
	for op := range keys {
		if served[op].Machine != "" {
			done = append(done, op)
		}
	}
	sample := done
	if !cfg.trace && len(done) > 6 {
		sample = nil
		for _, j := range rng.New(cfg.seed+99).Sample(len(done), 6) {
			sample = append(sample, done[j])
		}
	}
	sampleKeys := make([]key, len(sample))
	for i, op := range sample {
		sampleKeys[i] = keys[op]
	}
	var wants []guide.Recommendation
	if cfg.trace {
		wants, err = tracedCold(cfg, r, ref, sampleKeys)
	} else {
		wants, err = ref.recommendAll(sampleKeys)
	}
	if err != nil {
		return err
	}
	for i, op := range sample {
		if err := checkRec(&served[op], keys[op], wants[i]); err != nil {
			r.fail("%v", err)
		}
	}
	if !cfg.trace {
		return nil
	}

	// Per-layer numbers from the processes' own counters.
	n := float64(len(shots))
	a, b := before.serve.Aggregate, after.serve.Aggregate
	r.layer["guide.cache_hit_ratio"] = ratio(float64(b.CacheHits-a.CacheHits), float64(b.CacheHits-a.CacheHits+b.CacheMisses-a.CacheMisses))
	sweeps, sweepMs := sweepDelta(a, b)
	r.layer["guide.sweeps_per_req"] = sweeps / n
	r.layer["guide.sweep_ms_mean"] = sweepMs
	r.layer["guide.load_fleet_s"] = ref.loadS
	admissionLayers(r, before, after)
	_, handlerMs := routeDelta(before.serve.Latency, after.serve.Latency, "recommend")
	r.layer["serve.handler_ms_mean"] = handlerMs
	r.layer["serve.cpu_ms_per_req"] = (after.serveCPU - before.serveCPU) / n
	r.layer["http.client_ms"] = mean(sendMs) - handlerMs
	r.layer["loadgen.lag_ms_p99"] = quantile(gaps, 0.99)
	r.layer["loadgen.cpu_ms_per_req"] = (after.selfCPU - before.selfCPU) / n
	setNotApplicable(r, "fleetproxy.added_ms", "fleetproxy.cpu_ms_per_req", "fleetproxy.attempts_per_req", "modelsel.search_s")
	return trainLayers(cfg, r)
}

// tracedCold recomputes keys in process through a traced Router on two
// workers, like the two clients of the timed window, under a CPU profile.
func tracedCold(cfg config, r *run, ref *reference, keys []key) ([]guide.Recommendation, error) {
	seen := newSeenConfigs()
	epoch := time.Now()
	workers := []*tracer{newTracer(epoch), newTracer(epoch)}
	routers := make([]*guide.Router, len(workers))
	for w, tr := range workers {
		var err error
		if routers[w], err = ref.tracedRouter(tr, seen); err != nil {
			return nil, err
		}
	}
	prof, err := startProfile(cfg.dir)
	if err != nil {
		return nil, err
	}
	out := make([]guide.Recommendation, len(keys))
	errs := make([]error, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(tr *tracer, router *guide.Router) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(keys); i = int(next.Add(1) - 1) {
				k := keys[i]
				tr.query = i
				id := tr.begin("router")
				out[i], _, errs[i] = router.RecommendCtx(context.Background(), k.machine, k.p, k.obj)
				tr.end(id)
			}
		}(workers[w], routers[w])
	}
	wg.Wait()
	shares, err := prof.stop()
	if err != nil {
		return nil, err
	}
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	finishTrace(cfg, r, workers, seen, shares, "router")
	return out, nil
}
