package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"parcost/internal/dataset"
	"parcost/internal/guide"
	"parcost/internal/ml"
)

// span is one timed call at a layer boundary, recorded by the benchmark's
// own wrappers around the public calls into each layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the worker's spans, -1 for a root
	Query  int    `json:"query"`
}

// tracer records one worker's spans. A worker runs its calls one at a time,
// so the open-span stack gives every span its parent.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	query int
	rows  int // rows predicted by the worker's timed models
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Query: t.query})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// spanStats sums the spans of every worker: per name, the call count, total
// duration and total self time (duration minus the union of its children).
type spanStats struct {
	count map[string]int
	total map[string]time.Duration
	self  map[string]time.Duration
	spans int
}

func summarize(workers []*tracer) spanStats {
	st := spanStats{count: map[string]int{}, total: map[string]time.Duration{}, self: map[string]time.Duration{}}
	for _, t := range workers {
		children := make([]time.Duration, len(t.spans))
		for _, s := range t.spans {
			if s.Parent >= 0 {
				// Children of one worker never overlap, so their union is
				// their sum.
				children[s.Parent] += time.Duration(s.End - s.Start)
			}
		}
		for i, s := range t.spans {
			d := time.Duration(s.End - s.Start)
			st.count[s.Name]++
			st.total[s.Name] += d
			st.self[s.Name] += d - children[i]
		}
		st.spans += len(t.spans)
	}
	return st
}

// writeSpans writes every worker's spans as JSON lines.
func writeSpans(path string, workers []*tracer) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for w, t := range workers {
		for _, s := range t.spans {
			if err := enc.Encode(struct {
				Worker int `json:"worker"`
				span
			}{w, s}); err != nil {
				return err
			}
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// spanCost measures what recording one span costs, so the traced run can
// report its own overhead.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer(time.Now())
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x"))
	}
	return time.Since(start) / n
}

// timedModel wraps an advisor's model, recording a span per Fit and Predict
// and counting predicted rows on its tracer.
type timedModel struct {
	ml.Regressor
	tr *tracer
}

func (m *timedModel) Fit(x [][]float64, y []float64) error {
	defer m.tr.end(m.tr.begin("fit"))
	return m.Regressor.Fit(x, y)
}

func (m *timedModel) Predict(x [][]float64) []float64 {
	defer m.tr.end(m.tr.begin("predict"))
	m.tr.rows += len(x)
	return m.Regressor.Predict(x)
}

// seenConfigs is shared by every worker's oracle so repeats are counted
// across the whole traced run.
type seenConfigs struct {
	mu      sync.Mutex
	seen    map[dataset.Config]bool
	calls   int
	repeats int
}

func newSeenConfigs() *seenConfigs { return &seenConfigs{seen: map[dataset.Config]bool{}} }

// timedOracle wraps a guide.Oracle, recording a span per TrueTime and
// counting calls on configurations already simulated in this run.
type timedOracle struct {
	guide.Oracle
	tr   *tracer
	seen *seenConfigs
}

func (o *timedOracle) TrueTime(c dataset.Config) (float64, bool) {
	o.seen.mu.Lock()
	o.seen.calls++
	if o.seen.seen[c] {
		o.seen.repeats++
	}
	o.seen.seen[c] = true
	o.seen.mu.Unlock()
	defer o.tr.end(o.tr.begin("oracle"))
	return o.Oracle.TrueTime(c)
}

// profile is a CPU profile taken over part of a traced run.
type profile struct {
	path string
	f    *os.File
}

func startProfile(dir string) (*profile, error) {
	path := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profile{path: path, f: f}, nil
}

// cpuLayers are the share keys of the profile attribution.
var cpuLayers = []string{"ccsd", "simsched", "tensor", "machine", "ml.tree", "ml.ensemble",
	"ml.kernel", "ml.linmodel", "modelsel", "mat", "guide", "dataset", "runtime", "other"}

// stop ends the profile and attributes every sample to the innermost
// parcost/internal/... frame of its stack, using `go tool pprof -traces`.
// Samples with no such frame go to runtime (innermost frame in the Go
// runtime) or other. Returns each layer's share of the sampled CPU time.
func (p *profile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	out, err := exec.Command("go", "tool", "pprof", "-traces", p.path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	byLayer := map[string]time.Duration{}
	var total, value time.Duration
	var layer string
	resolved := false
	flush := func() {
		if value > 0 {
			byLayer[layer] += value
			total += value
		}
		value, layer, resolved = 0, "", false
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		fn := fields[len(fields)-1]
		if value == 0 {
			// The first line of a sample: its value, then the innermost frame.
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				continue // header lines
			}
			value = d
			layer = frameLayer(fn)
			resolved = strings.HasPrefix(fn, "parcost/internal/")
			continue
		}
		if !resolved && strings.HasPrefix(fn, "parcost/internal/") {
			layer, resolved = frameLayer(fn), true
		}
	}
	flush()
	shares := map[string]float64{}
	for _, l := range cpuLayers {
		shares[l] = ratio(float64(byLayer[l]), float64(total))
	}
	return shares, sc.Err()
}

// frameLayer maps a function name onto a cpu layer: its parcost/internal
// package, runtime for the Go runtime, other for anything else.
func frameLayer(fn string) string {
	rest, ok := strings.CutPrefix(fn, "parcost/internal/")
	if !ok {
		if strings.HasPrefix(fn, "runtime.") {
			return "runtime"
		}
		return "other"
	}
	// The package path ends at the first '.' after its last '/'.
	slash := max(strings.LastIndexByte(rest, '/'), 0)
	if i := strings.IndexByte(rest[slash:], '.'); i >= 0 {
		rest = rest[:slash+i]
	}
	pkg := strings.ReplaceAll(rest, "/", ".")
	for _, l := range cpuLayers {
		if l == pkg {
			return l
		}
	}
	return "other"
}
