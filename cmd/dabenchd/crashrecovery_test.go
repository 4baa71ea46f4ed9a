package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dabench/internal/jobs"
	"dabench/internal/server"
)

// buildDaemon compiles the dabenchd binary once per test run. The
// crash-recovery test needs a real process it can SIGKILL — an
// httptest.Server shares the test's lifetime and cannot model losing
// in-memory state the way an abrupt process death does.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dabenchd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// daemon is one live dabenchd process under test.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
}

// startDaemon boots bin on an ephemeral port and waits for the
// "listening on" banner, which is printed only after net.Listen
// succeeds — so returning implies the API is reachable.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addrCh <- strings.Fields(line[i+len("listening on "):])[0]:
				default:
				}
			}
		}
		// Keep draining so the daemon never blocks on a full pipe.
	}()
	d := &daemon{cmd: cmd}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})
	select {
	case addr := <-addrCh:
		d.base = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never printed its listen address")
	}
	return d
}

// drain sends SIGTERM and waits for the graceful-shutdown path (which
// flushes the store's write-behind queue).
func (d *daemon) drain(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("daemon did not exit cleanly on SIGTERM: %v", err)
	}
}

func (d *daemon) get(t *testing.T, path string, out any) []byte {
	t.Helper()
	resp, err := http.Get(d.base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, b)
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			t.Fatalf("GET %s: %v: %s", path, err, b)
		}
	}
	return b
}

func (d *daemon) post(t *testing.T, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(d.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestCrashRecoveryResumesJobs is the crash-recovery acceptance:
// SIGKILL the daemon mid-job, restart it on the same -data-dir, and
// the journal replay must finish the job — every point exactly once —
// while a sweep answered before the crash comes back byte-identical
// after it.
func TestCrashRecoveryResumesJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the daemon binary")
	}
	bin := buildDaemon(t)
	dataDir := filepath.Join(t.TempDir(), "state")

	// Phase 1: a small sync sweep whose bytes phase 3 must reproduce,
	// then a graceful drain. The spec is disjoint from the job below
	// (different platform) so phase 3's compile accounting is
	// unambiguous.
	const warmSweep = `{"platform":"gpu","model":"gpt2-small","seq":1024,"layer_counts":[2,4],"batches":[8,16]}`
	d1 := startDaemon(t, bin, "-data-dir", dataDir)
	resp, warmCold := d1.post(t, "/v1/sweep", warmSweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm sweep = %d: %s", resp.StatusCode, warmCold)
	}
	d1.drain(t)

	// Phase 2: restart with slow chunk.run faults — each chunk attempt
	// stalls 400ms, which guarantees the job is still unfinished when
	// the SIGKILL lands right after the 202.
	d2 := startDaemon(t, bin, "-data-dir", dataDir,
		"-allow-faults", "-fault-spec", `{"rules":[{"op":"chunk.run","kind":"slow","delay_ms":400}]}`)
	var batches []string
	for b := 1; b <= 300; b++ {
		batches = append(batches, fmt.Sprint(b))
	}
	jobBody := `{"platform":"wse","model":"gpt2-small","seq":1024,"layer_counts":[2],"batches":[` +
		strings.Join(batches, ",") + `]}`
	resp, body := d2.post(t, "/v1/jobs", jobBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit = %d: %s", resp.StatusCode, body)
	}
	var v jobs.View
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if err := d2.cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no flush
		t.Fatal(err)
	}
	d2.cmd.Wait()

	// Phase 3: clean restart over the same state. The journal replay
	// must revive the orphaned job and run it to completion.
	d3 := startDaemon(t, bin, "-data-dir", dataDir)
	deadline := time.Now().Add(60 * time.Second)
	var final jobs.View
	for {
		d3.get(t, "/v1/jobs/"+v.ID, &final)
		if final.State == jobs.StateDone {
			break
		}
		if final.State.Terminal() {
			t.Fatalf("replayed job ended as %s (%s), want done", final.State, final.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed job stuck in %s", final.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if final.Done != 300 || final.FailedPoints != 0 {
		t.Errorf("replayed progress = %d done / %d failed, want 300/0", final.Done, final.FailedPoints)
	}

	// No duplicated or lost chunks: exactly 300 results, all labels
	// distinct.
	var jr server.SweepResponse
	d3.get(t, "/v1/jobs/"+v.ID+"/result", &jr)
	if len(jr.Results) != 300 {
		t.Fatalf("results = %d, want 300", len(jr.Results))
	}
	seen := make(map[string]bool, len(jr.Results))
	for _, r := range jr.Results {
		if seen[r.Label] {
			t.Fatalf("duplicate point %q in replayed job result", r.Label)
		}
		seen[r.Label] = true
	}

	// Sweeps are not persisted: the phase-1 sweep recomputes all 4
	// points in this process (it never computed them) and must still
	// answer byte-identically.
	resp, warmHot := d3.post(t, "/v1/sweep", warmSweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery sweep = %d: %s", resp.StatusCode, warmHot)
	}
	if !bytes.Equal(warmCold, warmHot) {
		t.Errorf("store round-trip changed the sweep:\ncold: %s\nwarm: %s", warmCold, warmHot)
	}
	var stats server.Stats
	d3.get(t, "/v1/stats", &stats)
	gpu := `dabench_pipeline_stage_seconds_count{platform="gpu",stage="compile"} 4`
	if !strings.Contains(string(d3.get(t, "/metrics", nil)), "\n"+gpu+"\n") {
		t.Errorf("post-recovery gpu sweep: /metrics lacks %q (it must recompute its 4 points)", gpu)
	}
	if stats.Jobs == nil || stats.Jobs.Replayed < 1 {
		t.Errorf("jobs gauges after recovery = %+v, want a replayed job", stats.Jobs)
	}
	d3.drain(t)
}

// TestFaultSpecRefusedWithoutAcknowledgement: the injector must be
// impossible to arm by accident.
func TestFaultSpecRefusedWithoutAcknowledgement(t *testing.T) {
	err := run([]string{"-fault-spec", `{"rules":[{"op":"store.write","kind":"EIO"}]}`})
	if err == nil || !strings.Contains(err.Error(), "-allow-faults") {
		t.Errorf("unacknowledged -fault-spec: err = %v, want a refusal naming -allow-faults", err)
	}
	// With the acknowledgement, a malformed spec still fails loudly.
	if err := run([]string{"-allow-faults", "-fault-spec", `{"rules":[]}`}); err == nil ||
		!strings.Contains(err.Error(), "no rules") {
		t.Errorf("empty spec: err = %v, want a parse error", err)
	}
}
