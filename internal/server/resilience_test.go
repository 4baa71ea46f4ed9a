package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"dabench/internal/experiments"
	"dabench/internal/faults"
	"dabench/internal/jobs"
	"dabench/internal/store"
)

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func serverInjector(t *testing.T, spec faults.Spec) *faults.Injector {
	t.Helper()
	in, err := faults.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestInjectedChunkFaultFailsJob: a chunk error fails its job, as a
// rejected spec does. One injected EIO on the only chunk of a 4-point
// job settles it failed with the injected error's message, and its
// result answers 409 conflict: it will never have one.
func TestInjectedChunkFaultFailsJob(t *testing.T) {
	in := serverInjector(t, faults.Spec{Rules: []faults.Rule{
		{Op: faults.OpChunkRun, Kind: faults.KindEIO, Count: 1},
	}})
	ts := newTestServer(t, Config{Injector: in})

	body := `{"platform":"wse","model":"gpt2-small","seq":1024,"layer_counts":[2,4],"batches":[256,512]}`
	resp, b := postJSON(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, b)
	}
	var v jobs.View
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatal(err)
	}
	v = waitJobState(t, ts, v.ID, jobs.StateFailed)
	if !strings.Contains(v.Error, "injected EIO on chunk.run") {
		t.Errorf("job error = %q, want it to name the injected chunk.run fault", v.Error)
	}

	var env errorEnvelope
	if rr := getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/result", &env); rr.StatusCode != http.StatusConflict {
		t.Fatalf("result status = %d, want 409", rr.StatusCode)
	}
	if env.Error.Code != CodeConflict || !strings.Contains(env.Error.Message, "state failed") ||
		!strings.Contains(env.Error.Message, "injected EIO on chunk.run") {
		t.Errorf("result error = %+v, want %q naming the state and the job's error", env.Error, CodeConflict)
	}

	var st Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Faults == nil || st.Faults.Fired != 1 {
		t.Errorf("faults stats = %+v, want fired 1", st.Faults)
	}
}

// TestStalledJobCancelsPromptly: a DELETE on a job stalled by a
// chunk.run slow rule settles it cancelled at once, not when the stall
// runs out — the stall waits on the job's context.
func TestStalledJobCancelsPromptly(t *testing.T) {
	in := serverInjector(t, faults.Spec{Rules: []faults.Rule{
		{Op: faults.OpChunkRun, Kind: faults.KindSlow, DelayMs: 30_000, Count: 1},
	}})
	ts := newTestServer(t, Config{Injector: in})

	resp, b := postJSON(t, ts.URL+"/v1/jobs", `{"platform":"gpu","model":"gpt2-small"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, b)
	}
	var v jobs.View
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatal(err)
	}
	waitJobState(t, ts, v.ID, jobs.StateRunning)
	for deadline := time.Now().Add(5 * time.Second); in.Stats().Fired == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the slow rule never fired")
		}
	}

	start := time.Now()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", dresp.StatusCode)
	}
	for {
		getJSON(t, ts.URL+"/v1/jobs/"+v.ID, &v)
		if v.State == jobs.StateCancelled {
			break
		}
		if time.Since(start) > 2*time.Second {
			t.Fatalf("job still %s 2s after DELETE: the stall ignored the cancel", v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestScenarioByteIdenticalUnderStoreWriteFaults is the acceptance
// invariance: with 30% of store writes failing, a built-in scenario's
// response must be byte-identical to the fault-free run — scenario
// points recompute and never wait on the store, which is an
// optimization tier for /v1/run, never a correctness dependency.
func TestScenarioByteIdenticalUnderStoreWriteFaults(t *testing.T) {
	const url = "/v1/scenarios/cross-platform-throughput"

	experiments.ResetCaches()
	clean := newTestServer(t, Config{})
	resp, err := http.Get(clean.URL + url)
	if err != nil {
		t.Fatal(err)
	}
	baseline := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fault-free scenario = %d", resp.StatusCode)
	}

	in := serverInjector(t, faults.Spec{Seed: 42, Rules: []faults.Rule{
		{Op: faults.OpStoreWrite, Kind: faults.KindEIO, Probability: 0.3},
	}})
	st, err := store.OpenOptions(t.TempDir(), store.Options{
		RetryAttempts: 1, RetryBackoff: time.Millisecond, Injector: in,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	experiments.ResetCaches()
	defer experiments.ResetCaches()

	faulted := newTestServer(t, Config{Store: st})
	resp, err = http.Get(faulted.URL + url)
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("faulted scenario = %d (must never surface store faults)", resp.StatusCode)
	}
	if !bytes.Equal(baseline, got) {
		t.Errorf("store-write faults changed the response:\nclean:   %q\nfaulted: %q", baseline, got)
	}
}

// TestStoreBreakerRecoveryVisibleInStats drives the write breaker
// through its full trip → open → half-open probe → recovery cycle via
// HTTP traffic — distinct cold /v1/run calls, one store write each —
// and asserts every transition is observable in /v1/stats and
// /healthz.
func TestStoreBreakerRecoveryVisibleInStats(t *testing.T) {
	const cooldown = 300 * time.Millisecond
	// p=1 with a budget of exactly the trip threshold: the first two
	// writes fail and trip the breaker, and any later probe lands on a
	// healed disk.
	in := serverInjector(t, faults.Spec{Rules: []faults.Rule{
		{Op: faults.OpStoreWrite, Kind: faults.KindEIO, Count: 2},
	}})
	st, err := store.OpenOptions(t.TempDir(), store.Options{
		RetryAttempts: 1, RetryBackoff: time.Millisecond,
		BreakerThreshold: 2, BreakerCooldown: cooldown,
		Injector: in,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	experiments.ResetCaches()
	defer experiments.ResetCaches()
	ts := newTestServer(t, Config{Store: st})
	coldRun := func(batch int) {
		t.Helper()
		resp, b := postJSON(t, ts.URL+"/v1/run", fmt.Sprintf(
			`{"platform":"wse","model":"gpt2-small","layers":3,"batch":%d,"seq":1024,"precision":"FP16"}`, batch))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cold run at batch %d = %d: %s", batch, resp.StatusCode, b)
		}
	}

	// 3 store writes: 2 fail and trip, the third is skipped (the
	// cooldown comfortably outlasts the writer's drain).
	for _, batch := range []int{16, 32, 64} {
		coldRun(batch)
	}
	st.Snapshot() // drain the write-behind queue before asserting

	var stats Stats
	getJSON(t, ts.URL+"/v1/stats", &stats)
	wb := stats.Store.WriteBreaker
	if wb == nil || wb.State != "open" || wb.Trips != 1 {
		t.Fatalf("write breaker = %+v, want open with 1 trip", wb)
	}
	if stats.Store.SkippedWrites == 0 {
		t.Error("no writes were skipped by the open breaker")
	}
	var h healthResponse
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "degraded" || h.Components["store"].Status != "degraded" {
		t.Fatalf("healthz during open breaker = %+v, want degraded store", h)
	}

	// Past the cooldown, the next write is the half-open probe; the
	// fault budget is spent, so it succeeds and closes the breaker.
	time.Sleep(cooldown + 50*time.Millisecond)
	coldRun(128)
	st.Snapshot()

	getJSON(t, ts.URL+"/v1/stats", &stats)
	wb = stats.Store.WriteBreaker
	if wb == nil || wb.State != "closed" || wb.Probes < 1 || wb.Recoveries < 1 {
		t.Fatalf("write breaker after heal = %+v, want closed with a counted probe + recovery", wb)
	}
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Components["store"].Status != "ok" {
		t.Errorf("healthz store after recovery = %+v, want ok", h.Components["store"])
	}
}
