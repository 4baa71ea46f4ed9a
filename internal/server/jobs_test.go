package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dabench/internal/experiments"
	"dabench/internal/faults"
	"dabench/internal/jobs"
	"dabench/internal/store"
)

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
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

func waitJobState(t *testing.T, ts *httptest.Server, id string, want jobs.State) jobs.View {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var v jobs.View
		resp := getJSON(t, ts.URL+"/v1/jobs/"+id, &v)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job poll status = %d", resp.StatusCode)
		}
		if v.State == want {
			return v
		}
		if v.State.Terminal() {
			t.Fatalf("job %s ended as %s (%s), want %s", id, v.State, v.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return jobs.View{}
}

// TestJobLargerThanSweepCapCompletes is the tentpole acceptance: a
// cross product over -max-sweep-points is rejected synchronously but
// completes as an async job, with results byte-identical to the
// equivalent synchronous sweeps.
func TestJobLargerThanSweepCapCompletes(t *testing.T) {
	ts := newTestServer(t, Config{MaxSweepPoints: 4})

	// 2 layers × 2 batches × 2 precisions = 8 points > cap of 4.
	const axes = `"layer_counts":[6,12],"batches":[256,512],"precisions":["FP16","CB16"]`
	jobBody := `{"platform":"wse","model":"gpt2-small","seq":1024,` + axes + `}`

	if resp, _ := postJSON(t, ts.URL+"/v1/sweep", jobBody); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("sync sweep over cap: status = %d, want 429", resp.StatusCode)
	}

	resp, body := postJSON(t, ts.URL+"/v1/jobs", jobBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit status = %d: %s", resp.StatusCode, body)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Errorf("Location = %q", loc)
	}
	var v jobs.View
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Points != 8 {
		t.Errorf("submitted points = %d, want 8", v.Points)
	}

	done := waitJobState(t, ts, v.ID, jobs.StateDone)
	if done.Done != 8 || done.FailedPoints != 0 {
		t.Errorf("final progress = %d done / %d failed, want 8/0", done.Done, done.FailedPoints)
	}

	var jobResp SweepResponse
	rr := getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/result", &jobResp)
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d", rr.StatusCode)
	}
	if jobResp.Points != 8 || len(jobResp.Results) != 8 {
		t.Fatalf("job result = %d points, %d results", jobResp.Points, len(jobResp.Results))
	}

	// The same 8 points as two synchronous sweeps under the cap: the
	// async results must equal their concatenation, element for element.
	var syncResults []RunResult
	for _, layers := range []string{"[6]", "[12]"} {
		syncBody := `{"platform":"wse","model":"gpt2-small","seq":1024,"layer_counts":` + layers +
			`,"batches":[256,512],"precisions":["FP16","CB16"]}`
		resp, b := postJSON(t, ts.URL+"/v1/sweep", syncBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sync half status = %d: %s", resp.StatusCode, b)
		}
		var sr SweepResponse
		if err := json.Unmarshal(b, &sr); err != nil {
			t.Fatal(err)
		}
		syncResults = append(syncResults, sr.Results...)
	}
	if !reflect.DeepEqual(jobResp.Results, syncResults) {
		t.Errorf("async results diverge from the equivalent synchronous sweeps:\n%+v\n%+v",
			jobResp.Results, syncResults)
	}
	// Byte-level check too: the re-marshaled arrays must be identical.
	aj, _ := json.Marshal(jobResp.Results)
	sj, _ := json.Marshal(syncResults)
	if !bytes.Equal(aj, sj) {
		t.Error("async and sync result encodings differ at the byte level")
	}
}

func TestJobResultFormats(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/jobs",
		`{"platform":"wse","model":"gpt2-small","layer_counts":[6,78]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, body)
	}
	var v jobs.View
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	done := waitJobState(t, ts, v.ID, jobs.StateDone)
	if done.FailedPoints != 1 { // L=78 does not place on the WSE-2
		t.Errorf("failed points = %d, want 1", done.FailedPoints)
	}

	tableResp, table := postBodyless(t, ts.URL+"/v1/jobs/"+v.ID+"/result?format=table")
	if tableResp.StatusCode != http.StatusOK || !strings.HasPrefix(tableResp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("table result: %d %s", tableResp.StatusCode, tableResp.Header.Get("Content-Type"))
	}
	if !strings.Contains(string(table), "Fail") || !strings.Contains(string(table), "L=6/B=512/FP16") {
		t.Errorf("table render missing rows:\n%s", table)
	}
	csvResp, csv := postBodyless(t, ts.URL+"/v1/jobs/"+v.ID+"/result?format=csv")
	if csvResp.StatusCode != http.StatusOK || !strings.HasPrefix(csvResp.Header.Get("Content-Type"), "text/csv") {
		t.Fatalf("csv result: %d", csvResp.StatusCode)
	}
	if !strings.Contains(string(csv), "L=6/B=512/FP16") {
		t.Errorf("csv render missing rows:\n%s", csv)
	}
	if resp, _ := postBodyless(t, ts.URL+"/v1/jobs/"+v.ID+"/result?format=xml"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad format status = %d", resp.StatusCode)
	}
}

func postBodyless(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}

func TestJobEndpointErrors(t *testing.T) {
	ts := newTestServer(t, Config{MaxJobPoints: 4})

	if resp, _ := postBodyless(t, ts.URL+"/v1/jobs/job-999999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d", resp.StatusCode)
	}
	if resp, _ := postBodyless(t, ts.URL+"/v1/jobs/job-999999/result"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown result status = %d", resp.StatusCode)
	}
	resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"platform":"wse","model":"nope"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad model: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/jobs", `{"platform":"wse","model":"gpt2-small","bogus":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: %d %s", resp.StatusCode, body)
	}
	// Over the job cap: structured rejection mirroring the sweep one.
	resp, body = postJSON(t, ts.URL+"/v1/jobs",
		`{"platform":"wse","model":"gpt2-small","batches":[1,2,3,4,5]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over job cap: %d %s", resp.StatusCode, body)
	}
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != CodeSweepTooLarge ||
		env.Error.Limit != 4 || env.Error.RequestedPoints != 5 {
		t.Errorf("job cap rejection = %+v (%v)", env.Error, err)
	}
}

func TestJobCancelEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	// A large-ish WSE job; cancel races its execution, both outcomes
	// below are legal.
	resp, body := postJSON(t, ts.URL+"/v1/jobs",
		`{"platform":"wse","model":"gpt2-small","layer_counts":[2,4,6,8,10,12,14,16,18,20]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var v jobs.View
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	switch dresp.StatusCode {
	case http.StatusOK:
		// Cancelled while queued or running: must settle in cancelled.
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			var got jobs.View
			getJSON(t, ts.URL+"/v1/jobs/"+v.ID, &got)
			if got.State == jobs.StateCancelled {
				return
			}
			if got.State.Terminal() {
				t.Fatalf("cancelled job ended as %s", got.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatal("cancel never settled")
	case http.StatusConflict:
		// The job finished before the cancel landed — fine.
	default:
		t.Fatalf("cancel status = %d", dresp.StatusCode)
	}
}

// TestJobWithoutResultIsConflict: a job that will never have a result
// answers its result with 409 conflict, naming why, so a polling client
// stops; only queued and running jobs answer not_ready.
func TestJobWithoutResultIsConflict(t *testing.T) {
	resultErr := func(t *testing.T, ts *httptest.Server, id string) ErrorBody {
		t.Helper()
		var env errorEnvelope
		if resp := getJSON(t, ts.URL+"/v1/jobs/"+id+"/result", &env); resp.StatusCode != http.StatusConflict {
			t.Fatalf("result status = %d, want 409", resp.StatusCode)
		}
		return env.Error
	}
	submit := func(t *testing.T, ts *httptest.Server, body string) jobs.View {
		t.Helper()
		resp, b := postJSON(t, ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit = %d: %s", resp.StatusCode, b)
		}
		var v jobs.View
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	const gpuPoint = `{"platform":"gpu","model":"gpt2-small"}`

	t.Run("cancelled", func(t *testing.T) {
		// The stall holds the job until the cancel lands.
		in := serverInjector(t, faults.Spec{Rules: []faults.Rule{
			{Op: faults.OpChunkRun, Kind: faults.KindSlow, DelayMs: 200, Count: 1},
		}})
		ts := newTestServer(t, Config{Injector: in})
		v := submit(t, ts, gpuPoint)
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel status = %d", resp.StatusCode)
		}
		waitJobState(t, ts, v.ID, jobs.StateCancelled)
		if e := resultErr(t, ts, v.ID); e.Code != CodeConflict || !strings.Contains(e.Message, "state cancelled") {
			t.Errorf("result error = %+v, want %q naming the state", e, CodeConflict)
		}
	})

	t.Run("expired", func(t *testing.T) {
		// A RAM-only server keeps the last 64 job results; one more
		// job ages the first one out.
		ts := newTestServer(t, Config{})
		var first jobs.View
		for i := 0; i < 65; i++ {
			v := submit(t, ts, gpuPoint)
			if i == 0 {
				first = v
			}
			waitJobState(t, ts, v.ID, jobs.StateDone)
		}
		if e := resultErr(t, ts, first.ID); e.Code != CodeConflict ||
			!strings.Contains(e.Message, "expired") || !strings.Contains(e.Message, "64") {
			t.Errorf("result error = %+v, want %q naming the retention cap", e, CodeConflict)
		}
	})
}

func TestJobListEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"platform":"wse","model":"gpt2-small"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var list map[string][]jobs.View
	getJSON(t, ts.URL+"/v1/jobs", &list)
	if len(list["jobs"]) == 0 {
		t.Error("job list is empty after a submit")
	}
}

// TestStatsReportsStoreAndJobs: the /v1/stats payload gains the store
// tier and job gauges alongside the cache tiers.
func TestStatsReportsStoreAndJobs(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := newTestServer(t, Config{Store: st})

	var stats Stats
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Store == nil {
		t.Fatal("stats missing store section")
	}
	if stats.Jobs == nil {
		t.Fatal("stats missing jobs section")
	}
	if len(stats.Caches) != 2 {
		t.Errorf("caches = %v, want exactly compile and graph", stats.Caches)
	}
	for _, tier := range []string{"compile", "graph"} {
		if _, ok := stats.Caches[tier]; !ok {
			t.Errorf("stats missing cache tier %q", tier)
		}
	}
}

// TestWarmRestartServesFromStore is the durability acceptance: with a
// data dir, a "restarted daemon" (fresh memo cells + fresh Store over
// the same directory) must answer an identical /v1/run byte-for-byte
// from the store's raw lane, with zero compiles.
func TestWarmRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	const body = `{"platform":"rdu","model":"gpt2-small","layers":4,"batch":4,"precision":"BF16","mode":"O1"}`

	experiments.ResetCaches()
	defer experiments.ResetCaches()
	st1, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := newTestServer(t, Config{Store: st1})
	resp, cold := postJSON(t, ts1.URL+"/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold run: %d %s", resp.StatusCode, cold)
	}
	ts1.Close()
	st1.Close() // flush write-behind; "process exit"

	// The restart: new store over the same dir, empty memo tiers.
	experiments.ResetCaches()
	st2, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ts2 := newTestServer(t, Config{Store: st2})
	resp, warm := postJSON(t, ts2.URL+"/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm run: %d %s", resp.StatusCode, warm)
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("restart changed the response:\ncold: %s\nwarm: %s", cold, warm)
	}

	var stats Stats
	getJSON(t, ts2.URL+"/v1/stats", &stats)
	if stats.Store == nil {
		t.Fatal("no store stats")
	}
	if stats.Store.RawHits != 1 {
		t.Errorf("store after restart: %d raw hits, want 1", stats.Store.RawHits)
	}
	if m := stats.Caches["compile"].Misses; m != 0 {
		t.Errorf("restarted process paid %d compile misses, want 0", m)
	}
}

// TestColdOutcomesWriteOnce: with a real store behind the server, only
// /v1/run persists, one frame per cold outcome. A cold 6-point sweep
// recomputes and writes nothing; a cold /v1/run writes exactly one
// frame, whose response section LoadRaw serves once it is flushed.
func TestColdOutcomesWriteOnce(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	experiments.ResetCaches()
	defer experiments.ResetCaches()
	ts := newTestServer(t, Config{Store: st})

	resp, b := postJSON(t, ts.URL+"/v1/sweep",
		`{"platform":"wse","model":"gpt2-small","layer_counts":[2,4,6],"batches":[128,256]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold sweep: %d %s", resp.StatusCode, b)
	}
	st.Snapshot()
	if got := st.Stats().Puts; got != 0 {
		t.Errorf("after a cold 6-point sweep: %d puts, want 0", got)
	}

	resp, b = postJSON(t, ts.URL+"/v1/run", `{"platform":"wse","model":"gpt2-small","layers":3,"batch":128}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold run: %d %s", resp.StatusCode, b)
	}
	st.Snapshot()
	if got := st.Stats().Puts; got != 1 {
		t.Errorf("after one cold run: %d puts, want 1", got)
	}
	plat, key := bodyIdentity(t, b)
	if raw, ok := st.LoadRaw(plat, key); !ok || !bytes.Equal(raw, b) {
		t.Errorf("LoadRaw after the cold run: ok=%v, bytes equal=%v; want the served body", ok, bytes.Equal(raw, b))
	}
}

// TestJournaledOverParallelJobSettlesFailed: a journal written before
// the parallelism bound may hold a job that crashed the daemon on
// every replay. Such a jobs dir must now open and settle the job
// failed, since runJob re-validates the journaled body.
func TestJournaledOverParallelJobSettlesFailed(t *testing.T) {
	dir := t.TempDir()
	var journal []byte
	for i, body := range overParallelBodies() {
		rec, err := json.Marshal(map[string]any{
			"job": fmt.Sprintf("job-%06d", i+1), "event": "submitted",
			"time": time.Now().UTC(), "points": 2, "request": json.RawMessage(body),
		})
		if err != nil {
			t.Fatal(err)
		}
		journal = append(append(journal, rec...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{JobsDir: dir})
	for i := range overParallelBodies() {
		v := waitJobState(t, ts, fmt.Sprintf("job-%06d", i+1), jobs.StateFailed)
		if !strings.Contains(v.Error, "1024") {
			t.Errorf("job %d error = %q, want it to name the 1024 bound", i+1, v.Error)
		}
	}
}
