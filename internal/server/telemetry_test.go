package server

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dabench/internal/experiments"
	"dabench/internal/provenance"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type = %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// metricValue extracts one sample's value from an exposition by its
// exact series line prefix (name plus rendered label set).
func metricValue(t *testing.T, expo, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(expo, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in exposition", series)
	return 0
}

var buildInfoLabels = regexp.MustCompile(`(version|goversion)="[^"]*"`)

// normalizeMetrics masks every sample value (and the build-identity
// labels) so the golden file pins the exposition's *shape* — family
// names, HELP/TYPE lines, label sets, ordering — independent of
// timing, Go version, and whatever the process-global caches have
// accumulated by the time this test runs.
func normalizeMetrics(expo string) string {
	lines := strings.Split(strings.TrimRight(expo, "\n"), "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "#") {
			continue
		}
		line = buildInfoLabels.ReplaceAllString(line, `$1="X"`)
		if j := strings.LastIndexByte(line, ' '); j >= 0 {
			line = line[:j] + " V"
		}
		lines[i] = line
	}
	return strings.Join(lines, "\n") + "\n"
}

// TestMetricsGolden pins the /metrics exposition shape. The histogram
// grid is pre-created at server construction, so a fresh server with
// zero traffic already exposes every series the server can ever emit —
// which is exactly what makes a golden file viable. If you add or
// rename a series, regenerate with:
//
//	go test ./internal/server -run TestMetricsGolden -update
func TestMetricsGolden(t *testing.T) {
	ts := newTestServer(t, Config{MaxInFlight: 3})
	got := normalizeMetrics(scrapeMetrics(t, ts))

	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("/metrics shape drifted from %s (rerun with -update if intentional)\ngot:\n%s", golden, got)
	}

	// Traffic must never change the shape — only the values.
	postRun(t, ts, `{"platform":"wse","model":"gpt2-small","batch":512,"seq":1024,"precision":"FP16"}`)
	if after := normalizeMetrics(scrapeMetrics(t, ts)); after != got {
		t.Error("/metrics shape changed after traffic; series must be pre-created, not minted on demand")
	}
}

// TestMetricsStageCounts exercises the cold and warm /v1/run lanes and
// checks the per-stage sample counts: the cold request records every
// stage, the L0 byte hit records only the explicit zero admission-wait
// sample and total — so warm latency stays comparable against the same
// histograms cold latency lands in.
func TestMetricsStageCounts(t *testing.T) {
	experiments.ResetCaches()
	ts := newTestServer(t, Config{MaxInFlight: 3})
	body := `{"platform":"wse","model":"gpt2-small","batch":512,"seq":1024,"precision":"FP16"}`
	for i := 0; i < 3; i++ { // 1 cold + 2 L0 hits
		resp, _ := postRun(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d = %d", i, resp.StatusCode)
		}
	}
	expo := scrapeMetrics(t, ts)
	series := func(stage string) string {
		return `dabench_request_stage_seconds_count{endpoint="/v1/run",stage="` + stage + `"}`
	}
	if got := metricValue(t, expo, series("total")); got != 3 {
		t.Errorf("total count = %v, want 3 (every served response)", got)
	}
	if got := metricValue(t, expo, series("admission")); got != 3 {
		t.Errorf("admission count = %v, want 3 (fast lanes record explicit zeros)", got)
	}
	for _, stage := range []string{"decode", "compile", "run", "render"} {
		if got := metricValue(t, expo, series(stage)); got != 1 {
			t.Errorf("%s count = %v, want 1 (cold request only)", stage, got)
		}
	}
	// RAM-only server: the store stages exist in the exposition (the
	// grid is pre-created) but never record.
	for _, stage := range []string{"store_read", "store_write"} {
		if got := metricValue(t, expo, series(stage)); got != 0 {
			t.Errorf("%s count = %v, want 0 without a store", stage, got)
		}
	}
	// The two warm zeros land in the smallest bucket by definition.
	zeroBucket := `dabench_request_stage_seconds_bucket{endpoint="/v1/run",stage="admission",le="1e-06"}`
	if got := metricValue(t, expo, zeroBucket); got < 2 {
		t.Errorf("admission le=1e-06 bucket = %v, want >= 2 (the explicit fast-lane zeros)", got)
	}
	// Errors record nothing: a validation reject must not move a count.
	resp, _ := postRun(t, ts, `{"platform":"wse"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid run = %d", resp.StatusCode)
	}
	if got := metricValue(t, scrapeMetrics(t, ts), series("total")); got != 3 {
		t.Errorf("total count after reject = %v, want 3 (errors are not served outcomes)", got)
	}
}

// TestPipelineStageCountsPerPlatform checks the pipeline-stage
// histograms fire under the right label: one cold POST /v1/run per
// platform records one real compile and one real run for that platform
// only, and a warm repeat (answered before any simulator) records
// nothing.
func TestPipelineStageCountsPerPlatform(t *testing.T) {
	experiments.ResetCaches()
	ts := newTestServer(t, Config{MaxInFlight: 3})
	bodies := []string{ // one compilable spec per platform, in PlatformNames order
		`{"platform":"wse","model":"gpt2-small","batch":512,"seq":1024,"precision":"FP16"}`,
		`{"platform":"rdu","model":"gpt2-small","batch":4,"precision":"BF16","mode":"O1"}`,
		`{"platform":"ipu","model":"gpt2-small","layers":4,"batch":2048,"precision":"FP16","pipeline_parallel":4}`,
		`{"platform":"gpu","model":"gpt2-small","batch":8,"precision":"FP16"}`,
	}
	platforms := experiments.PlatformNames()
	for i, body := range bodies {
		for _, lane := range []string{"cold", "warm"} {
			resp, b := postRun(t, ts, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s run = %d: %s", platforms[i], lane, resp.StatusCode, b)
			}
			expo := scrapeMetrics(t, ts)
			for j, pn := range platforms {
				want := 0.0
				if j <= i {
					want = 1 // one real compile and run per platform so far
				}
				for _, stage := range []string{"compile", "run"} {
					series := `dabench_pipeline_stage_seconds_count{platform="` + pn + `",stage="` + stage + `"}`
					if got := metricValue(t, expo, series); got != want {
						t.Errorf("after %s %s run: %s = %v, want %v", platforms[i], lane, series, got, want)
					}
				}
			}
		}
	}
}

// TestServerTimingHeader checks the per-request breakdown rides every
// serving lane: cold, L0 warm, and the bodiless 304.
func TestServerTimingHeader(t *testing.T) {
	experiments.ResetCaches()
	ts := newTestServer(t, Config{MaxInFlight: 3})
	body := `{"platform":"wse","model":"gpt2-small","batch":512,"seq":1024,"precision":"FP16"}`

	cold, _ := postRun(t, ts, body)
	st := cold.Header.Get("Server-Timing")
	for _, stage := range []string{"admission;dur=", "decode;dur=", "compile;dur=", "run;dur=", "render;dur=", "total;dur="} {
		if !strings.Contains(st, stage) {
			t.Errorf("cold Server-Timing %q missing %q", st, stage)
		}
	}
	warm, _ := postRun(t, ts, body)
	wst := warm.Header.Get("Server-Timing")
	if !strings.HasPrefix(wst, "admission;dur=0.000") || !strings.Contains(wst, "total;dur=") {
		t.Errorf("warm Server-Timing = %q, want zero admission + total", wst)
	}
	if strings.Contains(wst, "compile") {
		t.Errorf("warm Server-Timing = %q records stages the lane never ran", wst)
	}

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/run", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", cold.Header.Get("ETag"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional run = %d, want 304", resp.StatusCode)
	}
	if nm := resp.Header.Get("Server-Timing"); !strings.Contains(nm, "admission;dur=0.000") {
		t.Errorf("304 Server-Timing = %q, want the explicit zero admission sample", nm)
	}
}

// TestMetricsScrapeRace drives scrapes concurrently with traffic and
// cache resets; the -race build is the assertion.
func TestMetricsScrapeRace(t *testing.T) {
	ts := newTestServer(t, Config{MaxInFlight: 4})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	body := `{"platform":"wse","model":"gpt2-small","batch":512,"seq":1024,"precision":"FP16"}`
	for i := 0; i < 10; i++ {
		postRun(t, ts, body)
		experiments.ResetCaches() // also purges L0 via the reset hook
	}
	close(stop)
	wg.Wait()
}

// TestProvenanceEndpoint exercises GET /v1/provenance/{addr} against a
// real chain and both 404 shapes (unknown address, no log mounted).
func TestProvenanceEndpoint(t *testing.T) {
	dir := t.TempDir()
	log, err := provenance.Open(filepath.Join(dir, "provenance.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	log.Append("cafe01", "WSE-2", "spec-a", 1)

	ts := newTestServer(t, Config{MaxInFlight: 3, Provenance: log})
	var rec provenance.Record
	resp := getJSON(t, ts.URL+"/v1/provenance/cafe01", &rec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("known addr = %d", resp.StatusCode)
	}
	if rec.Addr != "cafe01" || rec.Platform != "WSE-2" || rec.SpecKey != "spec-a" || rec.Seq != 1 {
		t.Errorf("record = %+v", rec)
	}
	if rec.PrevHash != provenance.GenesisHash() {
		t.Errorf("first record prev_hash = %q, want genesis", rec.PrevHash)
	}
	if resp := getJSON(t, ts.URL+"/v1/provenance/deadbeef", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown addr = %d, want 404", resp.StatusCode)
	}

	bare := newTestServer(t, Config{MaxInFlight: 3})
	if resp := getJSON(t, bare.URL+"/v1/provenance/cafe01", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("no log mounted = %d, want 404", resp.StatusCode)
	}
}

// TestVersionInStats pins the version field added to /v1/stats.
func TestVersionInStats(t *testing.T) {
	ts := newTestServer(t, Config{MaxInFlight: 3})
	var got struct {
		Version string `json:"version"`
	}
	getJSON(t, ts.URL+"/v1/stats", &got)
	if got.Version == "" {
		t.Error("stats version is empty")
	}
}
