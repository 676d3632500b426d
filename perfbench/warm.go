package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"parcost/internal/admission"
	"parcost/internal/dataset"
	"parcost/internal/guide"
	"parcost/internal/rng"
)

// serve-warm settings: the offered rate of the open loop (well under half of
// the proxy's closed-loop saturation rate on a 2-core box), the number of
// paper problems whose STQ and BQ answers on both machines form the key set,
// and the request mix.
const (
	warmRate     = 200.0
	warmProblems = 6
	warmBatchLen = 4
	keySpace     = 1000
)

// warmOp is one scheduled request of the open loop.
type warmOp struct {
	kind byte  // 'r' recommend, 'b' batch, 'p' predict
	keys []int // key indices (one for recommend and predict)
	pred predReq
	due  time.Duration
}

func (op warmOp) path() string {
	switch op.kind {
	case 'b':
		return "/v1/batch"
	case 'p':
		return "/v1/predict"
	}
	return "/v1/recommend"
}

// warmKeys picks warmProblems paper problems by seed; every one is asked
// for STQ and BQ on both machines.
func warmKeys(seed uint64) []key {
	paper := dataset.PaperProblems()
	var out []key
	for _, i := range rng.New(seed).Sample(len(paper), warmProblems) {
		for _, m := range machines {
			for _, obj := range []guide.Objective{guide.ShortestTime, guide.Budget} {
				out = append(out, key{machine: m, p: paper[i], obj: obj})
			}
		}
	}
	return out
}

// warmOps builds the seeded open-loop schedule: Poisson arrivals at
// warmRate, 80% /v1/recommend, 10% /v1/batch, 10% /v1/predict, with key
// popularity skewed towards the first keys (index = n·u², u uniform).
func warmOps(seed uint64, seconds float64, keys []key) ([]warmOp, [][]byte) {
	sched := admission.NewSchedule(seed, warmRate, int(warmRate*seconds), keySpace)
	mix := rng.New(seed + 7)
	skew := func(u int) int {
		x := float64(u) / keySpace
		return int(float64(len(keys)) * x * x)
	}
	grid := dataset.DefaultGrid()
	ops := make([]warmOp, len(sched))
	bodies := make([][]byte, len(sched))
	for i, a := range sched {
		op := warmOp{kind: 'r', keys: []int{skew(a.Key)}, due: a.At}
		switch u := mix.Float64(); {
		case u < 0.1:
			op.kind = 'b'
			for len(op.keys) < warmBatchLen {
				op.keys = append(op.keys, skew(mix.Intn(keySpace)))
			}
			q := batchReq{}
			for _, k := range op.keys {
				q.Queries = append(q.Queries, keys[k].req())
			}
			bodies[i] = mustJSON(q)
		case u < 0.2:
			op.kind = 'p'
			k := keys[op.keys[0]]
			op.pred = predReq{Machine: k.machine, O: k.p.O, V: k.p.V,
				Nodes: grid.Nodes[mix.Intn(len(grid.Nodes))], Tile: grid.TileSizes[mix.Intn(len(grid.TileSizes))]}
			bodies[i] = mustJSON(op.pred)
		default:
			bodies[i] = mustJSON(keys[op.keys[0]].req())
		}
		ops[i] = op
	}
	return ops, bodies
}

// openLoop replays ops at their due times against base. The pacer waits
// until start + each arrival's cumulative offset, so timer overshoot does
// not accumulate; latency counts from the due time. Returns the shots, how
// late each launch was (ms) and the wall time until the last response.
func openLoop(client *http.Client, base string, ops []warmOp, bodies [][]byte) ([]shot, []float64, time.Duration) {
	sched := make([]admission.Arrival, len(ops))
	for i, op := range ops {
		sched[i] = admission.Arrival{At: op.due}
	}
	shots := make([]shot, len(ops))
	lags := make([]float64, len(ops))
	var wg sync.WaitGroup
	start := time.Now()
	var offset time.Duration
	pace := func(d time.Duration) {
		offset += d
		time.Sleep(time.Until(start.Add(offset)))
	}
	next := 0
	admission.Replay(context.Background(), sched, pace, func(a admission.Arrival) {
		i := next
		next++
		due := start.Add(a.At)
		lags[i] = ms(time.Since(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			sent := time.Now()
			status, body, err := postJSON(client, base+ops[i].path(), bodies[i])
			end := time.Now()
			shots[i] = shot{op: i, lat: end.Sub(due), sendMs: ms(end.Sub(sent)), status: status, body: body, err: err}
		}()
	})
	wg.Wait()
	return shots, lags, time.Since(start)
}

// toRec turns a served answer into the reference form checkRec compares.
func toRec(got recResp) guide.Recommendation {
	return guide.Recommendation{Config: dataset.Config{Nodes: got.Nodes, TileSize: got.Tile}, PredTime: got.PredSeconds}
}

func runServeWarm(cfg config, r *run) error {
	const clients = 2
	keys := warmKeys(cfg.seed)
	ops, bodies := warmOps(cfg.seed, cfg.seconds, keys)
	keyBodies := make([][]byte, len(keys))
	for i, k := range keys {
		keyBodies[i] = mustJSON(k.req())
	}

	setupStart := time.Now()
	f, loadRef, err := bootFleet(cfg, true)
	if err != nil {
		return err
	}
	defer f.stop()
	client := loadClient(clients)
	// Pre-sweep every key through the proxy; these cold answers are the
	// reference every warm answer must repeat bit for bit.
	refs := make([]guide.Recommendation, len(keys))
	pre, _, _ := closedLoop(client, f.proxyURL+"/v1/recommend", keyBodies, clients, 1, 0)
	for _, s := range pre {
		var got recResp
		if s.err != nil || s.status != http.StatusOK || json.Unmarshal(s.body, &got) != nil {
			return fmt.Errorf("pre-sweep of %+v: status %d: %v %s", keys[s.op].req(), s.status, s.err, s.body)
		}
		refs[s.op] = toRec(got)
	}
	// Warm-up: every connection and handler path once more, all cache hits.
	warmup := make([][]byte, 0, 4*len(keyBodies))
	for i := 0; i < 4; i++ {
		warmup = append(warmup, keyBodies...)
	}
	closedLoop(client, f.proxyURL+"/v1/recommend", warmup, clients, 1, 0)
	r.e2e["setup_s"] = time.Since(setupStart).Seconds()
	r.e2e["models_s"] = f.trainS
	if err := settle(cfg, loadRef); err != nil {
		return err
	}

	before, err := f.snapshot()
	if err != nil {
		return err
	}
	shots, lags, wall := openLoop(client, f.proxyURL, ops, bodies)
	after, err := f.snapshot()
	if err != nil {
		return err
	}
	rss, err := f.peakRSS()
	if err != nil {
		return err
	}
	f.stop()

	ref, err := loadRef()
	if err != nil {
		return err
	}
	// Every answer is checked: recommendations against the pre-sweep
	// answer of their key, predictions against Service.PredictTime.
	r.attempted = len(shots)
	var lats, recSendMs []float64
	for _, s := range shots {
		if s.err != nil || s.status != http.StatusOK {
			r.fail("request %d: status %d: %v %s", s.op, s.status, s.err, s.body)
			continue
		}
		op := ops[s.op]
		ok := true
		switch op.kind {
		case 'r':
			var got recResp
			if json.Unmarshal(s.body, &got) != nil || checkRec(&got, keys[op.keys[0]], refs[op.keys[0]]) != nil {
				r.fail("request %d: %s differs from the pre-sweep answer", s.op, s.body)
				ok = false
			}
			recSendMs = append(recSendMs, s.sendMs)
		case 'b':
			var got batchResp
			if json.Unmarshal(s.body, &got) != nil || len(got.Results) != len(op.keys) {
				r.fail("batch %d: bad body %s", s.op, s.body)
				ok = false
				break
			}
			for j, e := range got.Results {
				if e.Result == nil || checkRec(e.Result, keys[op.keys[j]], refs[op.keys[j]]) != nil {
					r.fail("batch %d entry %d: %s differs from the pre-sweep answer", s.op, j, s.body)
					ok = false
					break
				}
			}
		case 'p':
			failed := r.failed
			checkPredict(r, ref, op.pred, s.body)
			ok = r.failed == failed
		}
		if ok {
			lats = append(lats, ms(s.lat))
		}
	}
	r.e2e["latency_p50_ms"] = median(lats)
	r.layer["latency.p90_ms"] = quantile(lats, 0.9)
	r.layer["latency.p99_ms"] = quantile(lats, 0.99)
	r.e2e["throughput_rps"] = float64(len(lats)) / wall.Seconds()
	n := float64(len(shots))
	r.e2e["cpu_ms_per_req"] = (after.serveCPU - before.serveCPU + after.proxyCPU - before.proxyCPU) / n
	r.e2e["peak_rss_mb"] = rss

	// The pre-sweep answers themselves must match in-process recommendations:
	// a seeded sample of keys here, every key in the traced run.
	sample := rng.New(cfg.seed+99).Sample(len(keys), 4)
	var wants []guide.Recommendation
	if cfg.trace {
		sample = nil
		for i := range keys {
			sample = append(sample, i)
		}
		wants, err = tracedWarm(cfg, r, ref, keys, ops)
	} else {
		sampleKeys := make([]key, len(sample))
		for i, j := range sample {
			sampleKeys[i] = keys[j]
		}
		wants, err = ref.recommendAll(sampleKeys)
	}
	if err != nil {
		return err
	}
	for i, j := range sample {
		got := recResp{Machine: keys[j].machine, O: keys[j].p.O, V: keys[j].p.V,
			Nodes: refs[j].Config.Nodes, Tile: refs[j].Config.TileSize, PredSeconds: refs[j].PredTime}
		if err := checkRec(&got, keys[j], wants[i]); err != nil {
			r.fail("pre-sweep answer: %v", err)
		}
	}
	if !cfg.trace {
		return nil
	}

	a, b := before.serve.Aggregate, after.serve.Aggregate
	r.layer["guide.cache_hit_ratio"] = ratio(float64(b.CacheHits-a.CacheHits), float64(b.CacheHits-a.CacheHits+b.CacheMisses-a.CacheMisses))
	sweeps, sweepMs := sweepDelta(a, b)
	r.layer["guide.sweeps_per_req"] = sweeps / n
	r.layer["guide.sweep_ms_mean"] = sweepMs
	r.layer["guide.load_fleet_s"] = ref.loadS
	admissionLayers(r, before, after)
	_, serveMs := routeDelta(before.serve.Latency, after.serve.Latency, "recommend")
	_, proxyMs := routeDelta(before.proxy.Latency, after.proxy.Latency, "recommend")
	r.layer["serve.handler_ms_mean"] = serveMs
	r.layer["serve.cpu_ms_per_req"] = (after.serveCPU - before.serveCPU) / n
	r.layer["fleetproxy.cpu_ms_per_req"] = (after.proxyCPU - before.proxyCPU) / n
	r.layer["fleetproxy.added_ms"] = proxyMs - serveMs
	r.layer["http.client_ms"] = mean(recSendMs) - proxyMs
	var upstream, downstream float64
	for _, route := range []string{"recommend", "predict"} {
		nb, _ := routeDelta(before.serve.Latency, after.serve.Latency, route)
		np, _ := routeDelta(before.proxy.Latency, after.proxy.Latency, route)
		upstream, downstream = upstream+nb, downstream+np
	}
	r.layer["fleetproxy.attempts_per_req"] = ratio(upstream, downstream)
	proxyBlocks(r, before, after)
	r.layer["loadgen.lag_ms_p99"] = quantile(lags, 0.99)
	r.layer["loadgen.cpu_ms_per_req"] = (after.selfCPU - before.selfCPU) / n
	setNotApplicable(r, "modelsel.search_s")
	return trainLayers(cfg, r)
}

// proxyBlocks checks the proxy's backend and retry-budget blocks: the one
// backend stays reachable with a closed breaker, and the budget's
// withdrawals on /v1/healthz agree with /metrics.
func proxyBlocks(r *run, before, after snap) {
	for _, b := range after.proxy.Backends {
		if !b.Reachable || b.Breaker != "closed" {
			r.fail("proxy backend %s: reachable=%v breaker=%s", b.Backend, b.Reachable, b.Breaker)
		}
	}
	if before.proxy.RetryBudget == nil || after.proxy.RetryBudget == nil {
		r.fail("proxy /v1/healthz has no retry_budget block")
		return
	}
	const series = "parcost_retry_budget_withdrawn_total"
	withdrawn := float64(after.proxy.RetryBudget.Withdrawn - before.proxy.RetryBudget.Withdrawn)
	if prom := after.proxyProm[series] - before.proxyProm[series]; prom != withdrawn {
		r.fail("retry budget withdrawals: /v1/healthz says %v, /metrics says %v", withdrawn, prom)
	}
}

// tracedWarm repeats the warm workload in process on one worker: it
// pre-sweeps every key through a traced Router, then replays the same
// operations (unpaced) under a CPU profile. It returns the pre-sweep
// answers, which check every served reference.
func tracedWarm(cfg config, r *run, ref *reference, keys []key, ops []warmOp) ([]guide.Recommendation, error) {
	seen := newSeenConfigs()
	tr := newTracer(time.Now())
	router, err := ref.tracedRouter(tr, seen)
	if err != nil {
		return nil, err
	}
	wants := make([]guide.Recommendation, len(keys))
	for i, k := range keys {
		if wants[i], _, err = router.RecommendCtx(context.Background(), k.machine, k.p, k.obj); err != nil {
			return nil, err
		}
	}
	// Only the warm phase counts: forget the pre-sweep's spans and counters.
	tr.spans, tr.rows = nil, 0
	seen.calls, seen.repeats = 0, 0

	// The in-process replay takes a fraction of the served window; repeat it
	// for at least a second so the profile has enough samples.
	prof, err := startProfile(cfg.dir)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	for start := time.Now(); time.Since(start) < time.Second; {
		for i, op := range ops {
			tr.query = i
			id := tr.begin("router")
			switch op.kind {
			case 'r':
				k := keys[op.keys[0]]
				_, _, err = router.RecommendCtx(ctx, k.machine, k.p, k.obj)
			case 'b':
				qs := make([]guide.RoutedQuery, len(op.keys))
				for j, ki := range op.keys {
					k := keys[ki]
					qs[j] = guide.RoutedQuery{Machine: k.machine, Query: guide.Query{Problem: k.p, Objective: k.obj}}
				}
				for _, res := range router.RecommendBatchCtx(ctx, qs) {
					if res.Err != nil {
						err = res.Err
					}
				}
			case 'p':
				var svc *guide.Service
				if svc, err = router.Shard(op.pred.Machine); err == nil {
					if secs := svc.PredictTime(dataset.Config{O: op.pred.O, V: op.pred.V, Nodes: op.pred.Nodes, TileSize: op.pred.Tile}); math.IsNaN(secs) {
						err = fmt.Errorf("predict %+v: NaN", op.pred)
					}
				}
			}
			tr.end(id)
			if err != nil {
				prof.stop()
				return nil, err
			}
		}
	}
	shares, err := prof.stop()
	if err != nil {
		return nil, err
	}
	finishTrace(cfg, r, []*tracer{tr}, seen, shares, "router")
	return wants, nil
}
