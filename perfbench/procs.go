package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one child process the benchmark started (parcost serve/proxy).
type proc struct {
	name string
	cmd  *exec.Cmd
	done chan struct{}
}

var (
	procsMu sync.Mutex
	procs   []*proc
)

// startProc launches bin with args, logging to dir/<name>.log. The child is
// killed if perfbench dies (Pdeathsig) and stopped by stopAll otherwise.
func startProc(dir, name, bin string, args ...string) (*proc, error) {
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	procsMu.Lock()
	procs = append(procs, p)
	procsMu.Unlock()
	return p, nil
}

// pid returns the child's process id.
func (p *proc) pid() int { return p.cmd.Process.Pid }

// stop sends SIGTERM, waits for the drain, then SIGKILLs a straggler.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// stopAll stops every child, newest first (the proxy before its backend).
func stopAll() {
	procsMu.Lock()
	list := append([]*proc(nil), procs...)
	procs = nil
	procsMu.Unlock()
	for i := len(list) - 1; i >= 0; i-- {
		list[i].stop()
	}
}

// runCmd runs a command to completion, failing with its output on error.
func runCmd(dir, bin string, args ...string) error {
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return nil
}

// freeAddr returns a loopback address with a currently free port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat.
const clockTicks = 100

// procCPUms returns a process's user+system CPU time in milliseconds.
func procCPUms(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return (utime + stime) * 1000 / clockTicks, nil
}

// procHWMmb returns a process's peak resident set (VmHWM) in MiB.
func procHWMmb(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// scrapeClient is used for health checks and scrapes, never for load.
var scrapeClient = &http.Client{Timeout: 30 * time.Second}

// getJSON fetches url and decodes its JSON body into dst.
func getJSON(url string, dst any) error {
	resp, err := scrapeClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

// scrapeMetrics fetches a Prometheus text page and returns its samples
// keyed by series (name plus labels).
func scrapeMetrics(url string) (map[string]float64, error) {
	resp, err := scrapeClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("GET %s: no samples", url)
	}
	return out, nil
}

// waitHealthy polls /v1/healthz until it answers 200 or the timeout passes.
func waitHealthy(base string, p *proc, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during boot", p.name)
		default:
		}
		resp, err := scrapeClient.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("%s not healthy after %v", p.name, timeout)
}

// postJSON sends one POST with a JSON body on client and returns the status
// and body.
func postJSON(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// loadClient returns an HTTP client limited to conns connections, the
// benchmark's whole load budget.
func loadClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     90 * time.Second,
			DisableCompression:  true,
		},
	}
}
