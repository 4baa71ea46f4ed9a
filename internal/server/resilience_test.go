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

func TestChunkRetryRecoversTransientFault(t *testing.T) {
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
	waitJobState(t, ts, v.ID, jobs.StateDone)

	var jr SweepResponse
	if rr := getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/result", &jr); rr.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d", rr.StatusCode)
	}
	if len(jr.Results) != 4 || len(jr.FailedChunks) != 0 {
		t.Fatalf("results/failed_chunks = %d/%d, want 4/0 (retry should have absorbed the fault)",
			len(jr.Results), len(jr.FailedChunks))
	}

	var st Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.ChunkRetries != 1 || st.ChunksQuarantined != 0 {
		t.Errorf("chunk_retries/quarantined = %d/%d, want 1/0", st.ChunkRetries, st.ChunksQuarantined)
	}
	if st.Faults == nil || st.Faults.Fired != 1 {
		t.Errorf("faults stats = %+v, want fired 1", st.Faults)
	}
}

func TestPoisonChunkIsQuarantined(t *testing.T) {
	// The fault budget equals the chunk retry budget, so chunk 0 burns
	// every attempt and is quarantined while chunk 1 runs clean — the
	// acceptance shape: a job with one permanently failing chunk ends
	// done with a failed_chunks manifest, not failed.
	const retries = chunkAttempts
	in := serverInjector(t, faults.Spec{Rules: []faults.Rule{
		{Op: faults.OpChunkRun, Kind: faults.KindEIO, Count: retries},
	}})
	ts := newTestServer(t, Config{Injector: in})

	// 300 points = 2 chunks (256 + 44) of cheap memoized WSE compiles.
	var batches []string
	for b := 1; b <= 300; b++ {
		batches = append(batches, fmt.Sprint(b))
	}
	body := `{"platform":"wse","model":"gpt2-small","seq":1024,"layer_counts":[2],"batches":[` +
		strings.Join(batches, ",") + `]}`
	resp, b := postJSON(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, b)
	}
	var v jobs.View
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatal(err)
	}
	done := waitJobState(t, ts, v.ID, jobs.StateDone)
	if done.Done != 300 {
		t.Errorf("progress done = %d, want 300 (quarantined points count as processed)", done.Done)
	}

	var jr SweepResponse
	if rr := getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/result", &jr); rr.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d", rr.StatusCode)
	}
	if len(jr.FailedChunks) != 1 {
		t.Fatalf("failed_chunks = %+v, want exactly one entry", jr.FailedChunks)
	}
	fc := jr.FailedChunks[0]
	if fc.Chunk != 0 || fc.Start != 0 || fc.End != 256 || fc.Attempts != retries || fc.Error == "" {
		t.Errorf("manifest entry = %+v, want chunk 0 [0,256) after %d attempts", fc, retries)
	}
	if len(jr.Results) != 44 {
		t.Errorf("partial results = %d, want 44 (the surviving chunk)", len(jr.Results))
	}

	var st Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.ChunksQuarantined != 1 || st.ChunkRetries != retries-1 {
		t.Errorf("quarantined/retries = %d/%d, want 1/%d", st.ChunksQuarantined, st.ChunkRetries, retries-1)
	}

	// Quarantine is a degraded-mode fact, visible in /healthz.
	var h healthResponse
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "degraded" || h.Components["jobs"].Status != "degraded" {
		t.Errorf("healthz = %+v, want degraded jobs component", h)
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
