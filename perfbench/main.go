// Command perfbench is the end-to-end benchmark of parcost.
//
// It runs one workload per invocation, checks every answer it times, and
// prints one JSON result as the last line of stdout:
//
//	perfbench -parcost BIN -workdir DIR --workload serve-cold --seed 1 --seconds 8 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics (tracing off); with
// --trace 1 it holds the per-layer metrics of a run that repeats the same
// seeded work with spans, counters and a CPU profile. perfbench/run.sh builds
// the binaries and is the intended entry point; WORKLOADS.md describes the
// workloads and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// e2eUnits lists the end-to-end metrics every workload reports (--trace 0).
var e2eUnits = map[string]string{
	"setup_s":        "s",
	"latency_p50_ms": "ms",
	"throughput_rps": "1/s",
	"cpu_ms_per_req": "ms",
	"peak_rss_mb":    "MB",
	"models_s":       "s",
}

// layerUnits lists the per-layer metrics every workload reports (--trace 1).
// A layer a workload does not exercise reads 0.
var layerUnits = map[string]string{
	"ccsd.truetime_us":              "us",
	"ccsd.truetime_calls_per_sweep": "count",
	"ccsd.repeat_frac":              "ratio",
	"ccsd.generate_s":               "s",
	"ml.predict_us_per_row":         "us",
	"ml.predict_rows_per_sweep":     "count",
	"ml.fit_s":                      "s",
	"ml.predict_ms":                 "ms",
	"modelsel.search_s":             "s",
	"models.cpu_fit_share":          "ratio",
	"guide.cache_hit_ratio":         "ratio",
	"guide.sweeps_per_req":          "count",
	"guide.sweep_ms_mean":           "ms",
	"guide.self_ms":                 "ms",
	"guide.load_fleet_s":            "s",
	"admission.admitted":            "count",
	"admission.shed":                "count",
	"admission.est_sweep_ms":        "ms",
	"serve.handler_ms_mean":         "ms",
	"serve.cpu_ms_per_req":          "ms",
	"http.client_ms":                "ms",
	"latency.p90_ms":                "ms",
	"latency.p99_ms":                "ms",
	"fleetproxy.added_ms":           "ms",
	"fleetproxy.cpu_ms_per_req":     "ms",
	"fleetproxy.attempts_per_req":   "count",
	"loadgen.lag_ms_p99":            "ms",
	"loadgen.cpu_ms_per_req":        "ms",
	"trace.overhead_frac":           "ratio",
	"failed_frac":                   "ratio",
	"cpu.ccsd":                      "ratio",
	"cpu.simsched":                  "ratio",
	"cpu.tensor":                    "ratio",
	"cpu.machine":                   "ratio",
	"cpu.ml.tree":                   "ratio",
	"cpu.ml.ensemble":               "ratio",
	"cpu.ml.kernel":                 "ratio",
	"cpu.ml.linmodel":               "ratio",
	"cpu.modelsel":                  "ratio",
	"cpu.mat":                       "ratio",
	"cpu.guide":                     "ratio",
	"cpu.dataset":                   "ratio",
	"cpu.runtime":                   "ratio",
	"cpu.other":                     "ratio",
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	parcost  string // path of the built parcost binary
	dir      string // per-run scratch directory inside the checkout
}

// run accumulates one invocation's outcome.
type run struct {
	attempted int
	failed    int
	e2e       map[string]float64
	layer     map[string]float64
}

func newRun() *run {
	return &run{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// processStart anchors the stage log.
var processStart = time.Now()

// stage logs a step of the run, with the time since perfbench started, to
// stderr.
func stage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%6.1fs] %s\n", time.Since(processStart).Seconds(), fmt.Sprintf(format, args...))
}

// fail counts one failed, refused or wrong operation.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(os.Stderr, "failed: "+format+"\n", args...)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(config, *run) error{
	"serve-cold":  runServeCold,
	"serve-warm":  runServeWarm,
	"paper-repro": runPaperRepro,
}

func main() {
	// Children are started with Pdeathsig, which fires when the starting
	// OS thread exits; pin main to one thread so it lives as long as we do.
	runtime.LockOSThread()
	var cfg config
	var trace int
	var workdir string
	flag.StringVar(&cfg.workload, "workload", "", "serve-cold, serve-warm or paper-repro")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 12, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
	flag.StringVar(&cfg.parcost, "parcost", "", "path of the parcost binary")
	flag.StringVar(&workdir, "workdir", ".bench_build", "scratch directory for run artifacts")
	flag.Parse()
	cfg.trace = trace == 1
	fn, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", cfg.workload, cfg.seconds, trace)
		os.Exit(2)
	}
	code := 0
	if err := execute(cfg, fn, workdir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		code = 1
	}
	os.Exit(code)
}

// execute runs one workload in its own scratch directory, stops every child
// process on the way out (signals included), and prints the result.
func execute(cfg config, fn func(config, *run) error, workdir string) error {
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.dir, err = filepath.Abs(dir)
	if err != nil {
		return err
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.RemoveAll(dir)
		os.Exit(1)
	}()
	defer stopAll()

	r := newRun()
	if err := fn(cfg, r); err != nil {
		return err
	}
	if r.attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	units, values := e2eUnits, r.e2e
	if cfg.trace {
		units, values = layerUnits, r.layer
		values["failed_frac"] = float64(r.failed) / float64(r.attempted)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	names := make([]string, 0, len(units))
	for name := range units {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v, ok := values[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		res.Metrics[name] = metric{Value: v, Unit: units[name]}
		fmt.Printf("%-32s %14.6g %s\n", name, v, units[name])
	}
	fmt.Printf("%-32s %14d\n%-32s %14d\n", "attempted", r.attempted, "failed", r.failed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
