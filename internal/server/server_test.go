package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dabench/internal/experiments"
	"dabench/internal/faults"
	"dabench/internal/jobs"
	"dabench/internal/platform"
	"dabench/internal/store"
	"dabench/internal/trace"
)

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func postRun(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
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

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, Config{})
	var got healthResponse
	resp := getJSON(t, ts.URL+"/healthz", &got)
	if resp.StatusCode != http.StatusOK || got.Status != "ok" {
		t.Errorf("healthz = %d %+v", resp.StatusCode, got)
	}
	// RAM-only test server: exactly the two optional durability tiers,
	// both reporting disabled.
	if len(got.Components) != 2 ||
		got.Components["store"].Status != "disabled" ||
		got.Components["journal"].Status != "disabled" {
		t.Errorf("components = %+v", got.Components)
	}
}

func TestStatsShape(t *testing.T) {
	ts := newTestServer(t, Config{MaxInFlight: 3})
	var st Stats
	if resp := getJSON(t, ts.URL+"/v1/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	if st.MaxInFlight != 3 {
		t.Errorf("max_in_flight = %d, want 3", st.MaxInFlight)
	}
	if st.SweepWorkers < 1 {
		t.Errorf("sweep_workers = %d", st.SweepWorkers)
	}
	if len(st.Caches) != 2 {
		t.Errorf("caches = %v, want exactly compile and graph", st.Caches)
	}
	for _, tier := range []string{"compile", "graph"} {
		if _, ok := st.Caches[tier]; !ok {
			t.Errorf("stats missing cache tier %q", tier)
		}
	}
}

// jsonKind walks a dotted path through a decoded JSON document and
// returns the JSON type of the value there, or "" when a segment is
// missing.
func jsonKind(doc map[string]any, path string) string {
	var v any = doc
	for _, seg := range strings.Split(path, ".") {
		m, ok := v.(map[string]any)
		if !ok {
			return ""
		}
		if v, ok = m[seg]; !ok {
			return ""
		}
	}
	switch v.(type) {
	case float64:
		return "number"
	case string:
		return "string"
	case map[string]any:
		return "object"
	}
	return fmt.Sprintf("%T", v)
}

// requireFields decodes the JSON document at url and requires each
// dotted path to hold a value of the given JSON type.
func requireFields(t *testing.T, url string, want map[string]string) {
	t.Helper()
	var doc map[string]any
	getJSON(t, url, &doc)
	for path, kind := range want {
		if got := jsonKind(doc, path); got != kind {
			t.Errorf("%s: %s is %q, want %s", url, path, got, kind)
		}
	}
}

// TestStatsFieldsHaveReaders pins the /v1/stats and /healthz fields
// something reads by name: CI's jq steps and perfbench's
// sweep_workers. Each must keep its name and JSON type in the state its
// reader sees it: a store-backed daemon restarted over its data dir
// with store writes failing (the smoke, warm-restart and fault steps),
// and a fleet node (the cluster step). Fields nobody reads are free to
// change.
func TestStatsFieldsHaveReaders(t *testing.T) {
	dir := t.TempDir()
	const run = `{"platform":"wse","model":"gpt2-small","layers":6,"batch":256}`
	st1, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := newTestServer(t, Config{Store: st1})
	if resp, b := postJSON(t, ts1.URL+"/v1/run", run); resp.StatusCode != http.StatusOK {
		t.Fatalf("first life run = %d: %s", resp.StatusCode, b)
	}
	ts1.Close()
	st1.Close()

	in := serverInjector(t, faults.Spec{Seed: 42, Rules: []faults.Rule{
		{Op: faults.OpStoreWrite, Kind: faults.KindEIO},
	}})
	st2, err := store.OpenOptions(dir, store.Options{RetryAttempts: 1, BreakerThreshold: 1, Injector: in})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ts2 := newTestServer(t, Config{Store: st2, Injector: in})
	// A raw-lane answer, then a cold run whose write fails and trips
	// the write breaker.
	for _, body := range []string{run, `{"platform":"wse","model":"gpt2-small","batch":16}`} {
		if resp, b := postJSON(t, ts2.URL+"/v1/run", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("second life run = %d: %s", resp.StatusCode, b)
		}
	}
	st2.Snapshot() // drain the write-behind queue
	requireFields(t, ts2.URL+"/healthz", map[string]string{
		"status": "string", "components.store.status": "string",
	})
	requireFields(t, ts2.URL+"/v1/stats", map[string]string{
		"sweep_workers": "number", "caches": "object", "jobs": "object",
		"caches.compile.hits": "number", "caches.compile.misses": "number",
		"not_modified": "number", "store.raw_hits": "number",
		"store.write_breaker.state": "string", "faults.seed": "number",
	})

	node := newFleet(t, 2, nil)[0]
	requireFields(t, node.ts.URL+"/v1/stats", map[string]string{
		"cluster.peers_alive": "number", "cluster.peer_fetch_hits": "number",
	})
}

func TestRunEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, body := postRun(t, ts, `{"platform":"wse","model":"gpt2-small","batch":512,"seq":1024,"precision":"FP16"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status = %d: %s", resp.StatusCode, body)
	}
	var res RunResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Failed || res.TokensPerSec <= 0 || res.TFLOPS <= 0 {
		t.Errorf("run result = %+v", res)
	}
	if res.Platform != "WSE-2" || res.SpecKey == "" {
		t.Errorf("run identity = %q / %q", res.Platform, res.SpecKey)
	}
	if res.Allocation["PE"] <= 0 {
		t.Errorf("allocation = %v", res.Allocation)
	}
}

func TestRunEndpointClientErrors(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := []struct {
		name, body, wantCode string
	}{
		{"unknown platform", `{"platform":"tpu","model":"gpt2-small"}`, CodeBadRequest},
		{"missing model", `{"platform":"wse"}`, CodeBadRequest},
		{"unknown model", `{"platform":"wse","model":"gpt5"}`, CodeBadRequest},
		{"unknown precision", `{"platform":"wse","model":"gpt2-small","precision":"int4"}`, CodeBadRequest},
		{"unknown mode", `{"platform":"rdu","model":"gpt2-small","mode":"O7"}`, CodeBadRequest},
		{"unknown field", `{"platform":"wse","model":"gpt2-small","bogus":1}`, CodeBadRequest},
		{"negative batch", `{"platform":"wse","model":"gpt2-small","batch":-4}`, CodeBadRequest},
		{"seq over max", `{"platform":"wse","model":"gpt2-small","seq":999999}`, CodeBadRequest},
		{"layers over max", `{"platform":"rdu","model":"gpt2-small","mode":"O3","layers":1025}`, CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postRun(t, ts, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d: %s", resp.StatusCode, body)
			}
			var env errorEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatal(err)
			}
			if env.Error.Code != tc.wantCode || env.Error.Message == "" {
				t.Errorf("error = %+v", env.Error)
			}
		})
	}
}

func TestRunCompileFailureIsFinding(t *testing.T) {
	ts := newTestServer(t, Config{})
	// 78 GPT-2 layers do not place on the WSE-2 (paper Table I's Fail row).
	resp, body := postRun(t, ts, `{"platform":"wse","model":"gpt2-small","layers":78}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var res RunResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Failed || res.FailReason == "" {
		t.Errorf("placement failure not reported as finding: %+v", res)
	}
}

// TestConcurrentIdenticalRunsCoalesce is the acceptance contract of
// the serving tentpole: two concurrent identical POST /v1/run requests
// must produce exactly one underlying compile, observable as exactly 1
// miss on the compile tier via /v1/stats. How the second
// caller is served depends on timing: arriving during the first's
// compute it rides the singleflight cell (a compile hit); arriving
// after, it is answered from the response-byte fast lane and never
// touches the compile tier at all. Either way the bodies are
// byte-identical.
func TestConcurrentIdenticalRunsCoalesce(t *testing.T) {
	experiments.ResetCaches()
	ts := newTestServer(t, Config{MaxInFlight: 8})

	var before Stats
	getJSON(t, ts.URL+"/v1/stats", &before)

	const body = `{"platform":"rdu","model":"llama2-7b","batch":8,"seq":4096,"precision":"BF16","mode":"O1","tensor_parallel":2}`
	var wg sync.WaitGroup
	bodies := make([][]byte, 2)
	errs := make([]error, 2)
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("identical requests diverged:\n%s\n%s", bodies[0], bodies[1])
	}

	var after Stats
	getJSON(t, ts.URL+"/v1/stats", &after)
	compile := after.Caches["compile"]
	compileBefore := before.Caches["compile"]
	if miss := compile.Misses - compileBefore.Misses; miss != 1 {
		t.Errorf("compile misses = %d, want exactly 1 (coalescing)", miss)
	}
	if hits := compile.Hits - compileBefore.Hits; hits > 1 {
		t.Errorf("compile hits = %d, want at most 1", hits)
	}
	if after.Served-before.Served != 2 {
		t.Errorf("served delta = %d, want 2", after.Served-before.Served)
	}
}

// TestExperimentMatchesCLIRender is the second acceptance contract:
// the served /v1/experiments/{id} body must be byte-identical to the
// CLI's stdout for the same ID (both go through Result.Render).
func TestExperimentMatchesCLIRender(t *testing.T) {
	ts := newTestServer(t, Config{})
	for _, id := range []string{"table1", "figure7"} {
		ref, err := experiments.All()[id](context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var text, csv bytes.Buffer
		if err := ref.Render(&text, false); err != nil {
			t.Fatal(err)
		}
		if err := ref.Render(&csv, true); err != nil {
			t.Fatal(err)
		}

		resp, err := http.Get(ts.URL + "/v1/experiments/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d", id, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("%s: content type = %q", id, ct)
		}
		if !bytes.Equal(body, text.Bytes()) {
			t.Errorf("%s: served text diverges from CLI render", id)
		}

		resp, err = http.Get(ts.URL + "/v1/experiments/" + id + "?format=csv")
		if err != nil {
			t.Fatal(err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if !bytes.Equal(body, csv.Bytes()) {
			t.Errorf("%s: served CSV diverges from CLI render", id)
		}

		var recs []trace.Record
		if resp := getJSON(t, ts.URL+"/v1/experiments/"+id+"?format=trace", &recs); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s trace: status = %d", id, resp.StatusCode)
		}
		if !reflect.DeepEqual(recs, ref.Trace) {
			t.Errorf("%s: served trace records diverge", id)
		}
	}
}

func TestExperimentErrors(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp := getJSON(t, ts.URL+"/v1/experiments/nope", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id status = %d", resp.StatusCode)
	}
	resp = getJSON(t, ts.URL+"/v1/experiments/table1?format=xml", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format status = %d", resp.StatusCode)
	}
	var list map[string][]string
	getJSON(t, ts.URL+"/v1/experiments", &list)
	if !reflect.DeepEqual(list["experiments"], experiments.IDs()) {
		t.Errorf("experiment list = %v", list)
	}
}

func TestSweepEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	body := `{"platform":"wse","model":"gpt2-small","seq":1024,"precision":"FP16","batches":[256,512],"layer_counts":[6,12]}`
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("sweep status = %d: %s", resp.StatusCode, b)
	}
	var sr SweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Points != 4 || len(sr.Results) != 4 || sr.Failed != 0 {
		t.Fatalf("sweep response = %+v", sr)
	}
	wantLabels := []string{"L=6/B=256/FP16", "L=6/B=512/FP16", "L=12/B=256/FP16", "L=12/B=512/FP16"}
	for i, res := range sr.Results {
		if res.Label != wantLabels[i] {
			t.Errorf("result %d label = %q, want %q", i, res.Label, wantLabels[i])
		}
		if res.TokensPerSec <= 0 {
			t.Errorf("result %d has no throughput: %+v", i, res)
		}
	}
}

// TestSweepLabelsNameEveryAxis: a sweep label names layers, batch and
// precision even where the request omits that axis and the base value
// fills it (a scenario labels only the axes it names).
func TestSweepLabelsNameEveryAxis(t *testing.T) {
	ts := newTestServer(t, Config{})
	for body, want := range map[string][]string{
		`{"platform":"wse","model":"gpt2-small","batches":[128,256]}`:  {"L=12/B=128/FP16", "L=12/B=256/FP16"},
		`{"platform":"wse","model":"gpt2-small","layer_counts":[2,4]}`: {"L=2/B=512/FP16", "L=4/B=512/FP16"},
		`{"platform":"gpu","model":"gpt2-small"}`:                      {"L=12/B=512/FP16"},
		`{"platform":"rdu","model":"gpt2-small","layers":6,"batch":64,"precisions":["bf16","fp32"]}`: {
			"L=6/B=64/BF16", "L=6/B=64/FP32"},
	} {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", body, resp.StatusCode, b)
		}
		var sr SweepResponse
		if err := json.Unmarshal(b, &sr); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, res := range sr.Results {
			got = append(got, res.Label)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: labels = %q, want %q", body, got, want)
		}
	}
}

// TestSweepBudget pins the budget-rejection contract: an over-budget
// synchronous sweep is refused with a structured JSON error naming the
// limit and the requested point count, never an empty body.
func TestSweepBudget(t *testing.T) {
	ts := newTestServer(t, Config{MaxSweepPoints: 3})
	over := `{"platform":"wse","model":"gpt2-small","batches":[128,256,512,1024]}`
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(over))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over server cap: status = %d, want 429", resp.StatusCode)
	}
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("budget rejection is not JSON: %q (%v)", body, err)
	}
	if env.Error.Code != CodeSweepTooLarge || env.Error.Limit != 3 || env.Error.RequestedPoints != 4 {
		t.Errorf("budget rejection = %+v, want code=%s limit=3 requested=4", env.Error, CodeSweepTooLarge)
	}
	if !strings.Contains(env.Error.Message, "4") || !strings.Contains(env.Error.Message, "3") {
		t.Errorf("message does not name the counts: %q", env.Error.Message)
	}
	if env.Error.Hint == "" {
		t.Error("budget rejection lacks the /v1/jobs hint")
	}

	// A request may lower the budget below the server cap, not raise it.
	tight := `{"platform":"wse","model":"gpt2-small","batches":[128,256],"budget":1}`
	resp, err = http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(tight))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over request budget: status = %d, want 429", resp.StatusCode)
	}
	env = errorEnvelope{}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Limit != 1 || env.Error.RequestedPoints != 2 {
		t.Errorf("tight-budget rejection = %+v (%v)", env.Error, err)
	}
}

// TestOverDeepLayerCountsRejected: a layer count above model.MaxLayers
// on a sweep or job axis is a client error answered before any
// simulation — a sweep must not compile it and a job must not be
// accepted to compile it later.
func TestOverDeepLayerCountsRejected(t *testing.T) {
	ts := newTestServer(t, Config{})
	const body = `{"platform":"rdu","model":"gpt2-small","mode":"O3","layer_counts":[2,1025]}`
	for _, path := range []string{"/v1/sweep", "/v1/jobs"} {
		resp, b := postJSON(t, ts.URL+path, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with a 1025-layer axis = %d (%s), want 400", path, resp.StatusCode, b)
			continue
		}
		var env errorEnvelope
		if err := json.Unmarshal(b, &env); err != nil || !strings.Contains(env.Error.Message, "1024") {
			t.Errorf("%s rejection = %s, want it to name the 1024-layer bound", path, b)
		}
	}
}

// overParallelBodies are request bodies past platform.MaxParallelism:
// one degree over, a degree that made the IPU simulator allocate
// 2^62-1 stages (a makeslice panic that killed the daemon), and an
// explicit layer assignment one entry too long.
func overParallelBodies() []string {
	long := strings.Repeat("0,", platform.MaxParallelism) + "12"
	return []string{
		`{"platform":"ipu","model":"gpt2-small","pipeline_parallel":1025,"batches":[1,2]}`,
		`{"platform":"ipu","model":"gpt2-small","pipeline_parallel":4611686018427387904,"batches":[1,2]}`,
		`{"platform":"ipu","model":"gpt2-small","layer_assignment":[` + long + `],"batches":[1,2]}`,
	}
}

// TestOverParallelSpecsRejected: every request surface answers 400 for
// a parallelism degree or layer assignment past the bound, before any
// simulation.
func TestOverParallelSpecsRejected(t *testing.T) {
	ts := newTestServer(t, Config{})
	for i, body := range overParallelBodies() {
		// /v1/run has no batches axis; the rest of the body is the same.
		runBody := strings.Replace(body, `,"batches":[1,2]`, "", 1)
		for _, c := range []struct{ path, body string }{
			{"/v1/run", runBody}, {"/v1/sweep", body}, {"/v1/jobs", body},
		} {
			resp, b := postJSON(t, ts.URL+c.path, c.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("body %d on %s = %d (%.200s), want 400", i, c.path, resp.StatusCode, b)
				continue
			}
			var env errorEnvelope
			if err := json.Unmarshal(b, &env); err != nil || !strings.Contains(env.Error.Message, "1024") {
				t.Errorf("body %d on %s: rejection = %.200s, want it to name the 1024 bound", i, c.path, b)
			}
		}
	}
}

// wantClientError requires a 400 bad_request envelope whose message
// contains msg.
func wantClientError(t *testing.T, what string, resp *http.Response, b []byte, msg string) {
	t.Helper()
	var env errorEnvelope
	if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(b, &env) != nil ||
		env.Error.Code != CodeBadRequest || !strings.Contains(env.Error.Message, msg) {
		t.Errorf("%s = %d (%.200s), want 400 bad_request naming %q", what, resp.StatusCode, b, msg)
	}
}

// TestRejectedSpecsAreClientErrors: a spec that passes request
// validation but that its simulator rejects is the client's error on
// every surface, as it is on /v1/run. A sweep or a synchronous
// scenario answers 400 with the simulator's message, and a job settles
// failed at once with /healthz still ok.
func TestRejectedSpecsAreClientErrors(t *testing.T) {
	ts := newTestServer(t, Config{})
	for _, c := range []struct{ body, msg string }{
		{`{"platform":"wse","model":"gpt2-small","tensor_parallel":8,"batches":[1,2]}`, "tensor parallelism is not supported"},
		{`{"platform":"ipu","model":"gpt2-small","data_parallel":8,"batches":[1,2]}`, "data parallelism is not modeled"},
		{`{"platform":"gpu","model":"gpt2-small","tensor_parallel":10,"batches":[1,2]}`, "must tile 8-GPU nodes"},
	} {
		resp, b := postJSON(t, ts.URL+"/v1/sweep", c.body)
		wantClientError(t, "/v1/sweep "+c.body, resp, b, c.msg)

		resp, b = postJSON(t, ts.URL+"/v1/jobs", c.body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("/v1/jobs %s = %d (%s), want 202", c.body, resp.StatusCode, b)
		}
		var v jobs.View
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatal(err)
		}
		if v = waitJobState(t, ts, v.ID, jobs.StateFailed); !strings.Contains(v.Error, c.msg) {
			t.Errorf("job %s error = %q, want it to name %q", c.body, v.Error, c.msg)
		}
	}
	for _, c := range []struct{ doc, msg string }{
		{`{"version":1,"name":"x","platforms":["wse"],"base":{"model":"gpt2-small"},"grid":{"tensor_parallel":[8]}}`, "tensor parallelism is not supported"},
		{`{"version":1,"name":"x","platforms":["ipu"],"base":{"model":"gpt2-small"},"grid":{"tensor_parallel":[8]}}`, "tensor parallelism is not supported"},
		{`{"version":1,"name":"x","platforms":["gpu"],"base":{"model":"gpt2-small"},"grid":{"tensor_parallel":[10]}}`, "must tile 8-GPU nodes"},
		{`{"version":1,"name":"x","platforms":["rdu"],"base":{"model":"gpt2-small"},"grid":{"tensor_parallel":[1,1025]}}`, "1024"},
	} {
		resp, b := postScenario(t, ts.URL, c.doc, "")
		wantClientError(t, "/v1/scenarios "+c.doc, resp, b, c.msg)
	}

	var h healthResponse
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "ok" {
		t.Errorf("healthz = %+v, want ok", h)
	}
}

func TestSweepRecordsPlacementFailures(t *testing.T) {
	ts := newTestServer(t, Config{})
	// L=72 places on the WSE-2, L=78 does not (paper Table I).
	body := `{"platform":"wse","model":"gpt2-small","layer_counts":[72,78]}`
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || sr.Failed != 1 {
		t.Fatalf("status %d, response %+v", resp.StatusCode, sr)
	}
	if sr.Results[0].Failed || !sr.Results[1].Failed || sr.Results[1].FailReason == "" {
		t.Errorf("failure not in the right slot: %+v", sr.Results)
	}
}

func TestSaturationReturns429(t *testing.T) {
	s, err := New(Config{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Occupy the only slot directly — the admission gate is the unit
	// under test, not a slow simulation.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	resp, body := postRun(t, ts, `{"platform":"wse","model":"gpt2-small"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	// Retry-After must be a parseable, positive integer derived from
	// the current load, not a hardcoded constant.
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want an integer >= 1 (%v)", resp.Header.Get("Retry-After"), err)
	}
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeSaturated {
		t.Errorf("error code = %q", env.Error.Code)
	}
	var st Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Rejected != 1 {
		t.Errorf("rejected counter = %d, want 1", st.Rejected)
	}
}

// TestRetryAfterDerivation pins the one shared backoff formula both
// 429 sites use: always an integer >= 1, scaling with queued depth,
// clamped to a minute.
func TestRetryAfterDerivation(t *testing.T) {
	cases := []struct{ depth, slots, want int }{
		{0, 8, 1},
		{-3, 8, 1},                             // defensive: negative depth never underflows
		{7, 8, 1},                              // under one pool's worth: retry quickly
		{8, 8, 2},                              // one full pool queued
		{40, 8, 6},                             // deep backlog pushes clients out further
		{1024, 8, 60} /* clamp */, {10, 0, 11}, // zero slots never divides by zero
	}
	for _, c := range cases {
		if got := retryAfterSecs(c.depth, c.slots); got != c.want {
			t.Errorf("retryAfterSecs(%d, %d) = %d, want %d", c.depth, c.slots, got, c.want)
		}
	}
	// Monotone in depth: more backlog never shortens the advice.
	prev := 0
	for depth := 0; depth < 200; depth += 7 {
		got := retryAfterSecs(depth, 4)
		if got < prev {
			t.Fatalf("retryAfterSecs not monotone at depth %d: %d < %d", depth, got, prev)
		}
		prev = got
	}
}

// TestQueueFull429HasParsableRetryAfter exercises the job-queue 429
// writer directly: the envelope code and a load-derived, parseable
// Retry-After.
func TestQueueFull429HasParsableRetryAfter(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := httptest.NewRecorder()
	s.writeQueueFull(rec)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if secs, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want an integer >= 1 (%v)", rec.Header().Get("Retry-After"), err)
	}
	var env errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != CodeQueueFull {
		t.Errorf("body = %s (%v)", rec.Body.Bytes(), err)
	}
}

func TestRequestTimeoutMapsTo504(t *testing.T) {
	ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	resp := getJSON(t, ts.URL+"/v1/experiments/table1", nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status = %d, want 504", resp.StatusCode)
	}
}

// TestServedCountsAdmittedErrors: served counts every response past
// admission, whatever its status. With a deadline that has passed
// before any work starts, a scenario POST, a sweep and an experiment
// each answer 504 after claiming a slot, so served moves by 3.
func TestServedCountsAdmittedErrors(t *testing.T) {
	ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	var before, after Stats
	getJSON(t, ts.URL+"/v1/stats", &before)

	doc := `{"version":1,"name":"late","platforms":["wse"],"base":{"model":"gpt2-small"},"grid":{"layers":[2,4]}}`
	if resp, b := postScenario(t, ts.URL, doc, ""); resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("scenario POST = %d, want 504: %s", resp.StatusCode, b)
	}
	sweep := `{"platform":"wse","model":"gpt2-small","layer_counts":[2,4]}`
	if resp, b := postJSON(t, ts.URL+"/v1/sweep", sweep); resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("sweep = %d, want 504: %s", resp.StatusCode, b)
	}
	if resp := getJSON(t, ts.URL+"/v1/experiments/table1", nil); resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("experiment = %d, want 504", resp.StatusCode)
	}

	getJSON(t, ts.URL+"/v1/stats", &after)
	if d := after.Served - before.Served; d != 3 {
		t.Errorf("served delta = %d, want 3 (one per admitted request)", d)
	}
	if after.InFlight != 0 {
		t.Errorf("in_flight = %d after every request answered, want 0", after.InFlight)
	}
}

// TestExperimentResponsesAreFramed: every artifact, in every format,
// and the /metrics exposition answer with a Content-Length equal to
// their body and no transfer coding, as API.md promises (figure9's 2 KB
// text body and the 44 KB exposition once went out chunked).
func TestExperimentResponsesAreFramed(t *testing.T) {
	ts := newTestServer(t, Config{})
	paths := []string{"/metrics"}
	for _, id := range experiments.IDs() {
		for _, format := range []string{"text", "csv", "trace"} {
			paths = append(paths, "/v1/experiments/"+id+"?format="+format)
		}
	}
	for _, path := range paths {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", path, resp.StatusCode, body)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d and transfer coding %v for a %d-byte body",
				path, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp := getJSON(t, ts.URL+"/v1/run", nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run status = %d, want 405", resp.StatusCode)
	}
}
