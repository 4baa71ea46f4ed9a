package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one dabenchd process built from the tree under test.
type daemon struct {
	bin, addr string
	args      []string
	cmd       *exec.Cmd
	stderr    bytes.Buffer
	exited    chan error
}

// fleet is the daemons one workload runs, started and stopped together.
type fleet struct {
	nodes []*daemon
	hc    *http.Client
}

// start starts every node and returns the time from the first exec
// until every node has answered its first 200 from /healthz.
func (f *fleet) start() (time.Duration, error) {
	var t0 time.Time
	for i, d := range f.nodes {
		t, err := d.start()
		if err != nil {
			return 0, err
		}
		if i == 0 {
			t0 = t
		}
	}
	errs := make(chan error, len(f.nodes))
	for _, d := range f.nodes {
		go func(d *daemon) { errs <- d.ready(f.hc, 60*time.Second) }(d)
	}
	var first error
	for range f.nodes {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return time.Since(t0), first
}

// stop drains every node; any non-zero exit is an error. The client's
// idle connections go too, so none is reused against the next start.
func (f *fleet) stop() error {
	var first error
	for _, d := range f.nodes {
		if err := d.stop(); err != nil && first == nil {
			first = err
		}
	}
	f.hc.CloseIdleConnections()
	return first
}

func (f *fleet) kill() {
	for _, d := range f.nodes {
		d.kill()
	}
}

func (f *fleet) urls() []string {
	var u []string
	for _, d := range f.nodes {
		u = append(u, d.url())
	}
	return u
}

func (f *fleet) scrape() ([]map[string]float64, error) {
	var out []map[string]float64
	for _, d := range f.nodes {
		m, err := scrape(f.hc, d.url())
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

func (f *fleet) cpu() (time.Duration, error) {
	var sum time.Duration
	for _, d := range f.nodes {
		c, err := procCPU(fmt.Sprint(d.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

func (f *fleet) rss() (int64, error) {
	var sum int64
	for _, d := range f.nodes {
		r, err := procHWM(fmt.Sprint(d.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		sum += r
	}
	return sum, nil
}

// flushAddr is a well-formed blob address that no point hashes to.
var flushAddr = strings.Repeat("0", 64)

// flush returns once every node has written every blob it had queued:
// GET /v1/blobs/{addr} for a blob the node does not hold runs the store's
// write-behind flush barrier before it answers 404.
func (f *fleet) flush() error {
	for _, d := range f.nodes {
		c, err := do(f.hc, http.MethodGet, d.url()+"/v1/blobs/"+flushAddr, nil, "")
		if err != nil {
			return err
		}
		if c.status != http.StatusNotFound {
			return fmt.Errorf("flush barrier on %s answered %d", d.addr, c.status)
		}
	}
	return nil
}

// sweepWorkers reads one node's sweep pool size from /v1/stats.
func (f *fleet) sweepWorkers() (int, error) {
	c, err := do(f.hc, http.MethodGet, f.nodes[0].url()+"/v1/stats", nil, "")
	if err != nil {
		return 0, err
	}
	var st struct {
		SweepWorkers int `json:"sweep_workers"`
	}
	if err := json.Unmarshal(c.body, &st); err != nil || st.SweepWorkers < 1 {
		return 0, fmt.Errorf("/v1/stats sweep_workers: %v", err)
	}
	return st.SweepWorkers, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

func (d *daemon) url() string { return "http://" + d.addr }

// start execs the daemon and returns once it has been started; ready
// waits for its first 200 from /healthz.
func (d *daemon) start() (time.Time, error) {
	d.stderr.Reset()
	d.cmd = exec.Command(d.bin, append([]string{"-addr", d.addr}, d.args...)...)
	d.cmd.Stdout = io.Discard
	d.cmd.Stderr = &d.stderr
	d.cmd.SysProcAttr = orphanGuard()
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return t0, err
	}
	d.exited = make(chan error, 1)
	go func(c *exec.Cmd, ch chan<- error) { ch <- c.Wait() }(d.cmd, d.exited)
	return t0, nil
}

// ready polls /healthz until it answers 200, the process exits, or
// the deadline passes.
func (d *daemon) ready(hc *http.Client, deadline time.Duration) error {
	until := time.Now().Add(deadline)
	for time.Now().Before(until) {
		select {
		case err := <-d.exited:
			d.exited <- err
			return fmt.Errorf("dabenchd %s exited during start-up (%v): %s", d.addr, err, lastLines(d.stderr.String()))
		default:
		}
		resp, err := hc.Get(d.url() + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("dabenchd %s not healthy after %s", d.addr, deadline)
}

// stop drains the daemon with SIGTERM and waits for it; a non-zero exit
// is an error (the run fails on it).
func (d *daemon) stop() error {
	if d.cmd == nil || d.cmd.Process == nil {
		return nil
	}
	defer func() { d.cmd = nil }()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.exited:
		if err != nil {
			return fmt.Errorf("dabenchd %s exited with %v: %s", d.addr, err, lastLines(d.stderr.String()))
		}
		return nil
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("dabenchd %s did not drain within 30s of SIGTERM", d.addr)
	}
}

// kill is the error-path teardown: no drain, just make sure nothing
// outlives the harness.
func (d *daemon) kill() {
	if d.cmd == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Kill()
	<-d.exited
	d.cmd = nil
}

func lastLines(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return strings.Join(lines[max(0, len(lines)-5):], " | ")
}

// procCPU is a process's user+system CPU time so far, from
// /proc/<pid>/stat (clock ticks of 10ms; USER_HZ is 100 on Linux).
func procCPU(pid string) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procHWM is a process's peak resident set (VmHWM) in bytes.
func procHWM(pid string) (int64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape reads a daemon's /metrics exposition into series -> value,
// keyed by the series exactly as printed (name plus label set).
func scrape(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	return parseExposition(resp.Body)
}

func parseExposition(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is after minus before for one series, summed over nodes.
func delta(before, after []map[string]float64, series string) float64 {
	var d float64
	for i := range after {
		d += after[i][series] - before[i][series]
	}
	return d
}

// gauge is a series' value summed over nodes.
func gauge(snap []map[string]float64, series string) float64 {
	var v float64
	for _, m := range snap {
		v += m[series]
	}
	return v
}

// orphanGuard makes the kernel kill a child if the harness dies without
// stopping it (a SIGKILL from a timeout, say), so no daemon outlives a
// run.
func orphanGuard() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// stealTicks is the host's cumulative steal time in clock ticks: time
// this machine's CPUs were runnable but given to other guests. Reps
// print their share of it, so a reading taken on a contended host can
// be told from a change in the program.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}
