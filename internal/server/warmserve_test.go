package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"dabench/internal/experiments"
	"dabench/internal/faults"
	"dabench/internal/jobs"
	"dabench/internal/store"
)

const warmRunBody = `{"platform":"wse","model":"gpt2-small","batch":256,"seq":1024}`

func postRunWith(t *testing.T, url, body, inm string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/run", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp, readAll(t, resp)
}

// TestRunFastLaneByteIdentity pins the tentpole's core invariant: the
// response-byte fast lane serves exactly the bytes the slow path
// marshals — across a warm repeat on one server and against a server
// with the cache disabled entirely.
func TestRunFastLaneByteIdentity(t *testing.T) {
	experiments.ResetCaches()
	ts := newTestServer(t, Config{})

	cold, coldBody := postRunWith(t, ts.URL, warmRunBody, "")
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold run = %d: %s", cold.StatusCode, coldBody)
	}
	warm, warmBody := postRunWith(t, ts.URL, warmRunBody, "")
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("warm run = %d: %s", warm.StatusCode, warmBody)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Errorf("fast lane diverged from slow path:\ncold: %s\nwarm: %s", coldBody, warmBody)
	}
	coldTag, warmTag := cold.Header.Get("Etag"), warm.Header.Get("Etag")
	if coldTag == "" || coldTag != warmTag {
		t.Errorf("ETags diverged: cold %q, warm %q", coldTag, warmTag)
	}
	// Both lanes must answer with an explicit Content-Length (never
	// chunked): the client sees the exact body size.
	for name, r := range map[string]*http.Response{"cold": cold, "warm": warm} {
		if r.ContentLength != int64(len(coldBody)) {
			t.Errorf("%s Content-Length = %d, want %d", name, r.ContentLength, len(coldBody))
		}
	}

	// A server with the byte cache disabled takes the slow path every
	// time and must still produce the same bytes.
	off := newTestServer(t, Config{RespCacheBudget: -1})
	slow, slowBody := postRunWith(t, off.URL, warmRunBody, "")
	if slow.StatusCode != http.StatusOK {
		t.Fatalf("cache-off run = %d: %s", slow.StatusCode, slowBody)
	}
	if !bytes.Equal(coldBody, slowBody) {
		t.Errorf("cache-off slow path diverged:\n%s\n%s", coldBody, slowBody)
	}

	var st Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.RespCache == nil || st.RespCache.Hits < 1 {
		t.Errorf("resp_cache stats = %+v, want at least one hit", st.RespCache)
	}
}

// TestRunConditionalFastLane pins the ETag/304 contract: a repeat
// request presenting the previous ETag gets 304 with no body, the same
// ETag echoed, and a not_modified tick in /v1/stats.
func TestRunConditionalFastLane(t *testing.T) {
	ts := newTestServer(t, Config{})
	first, body := postRunWith(t, ts.URL, warmRunBody, "")
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first run = %d: %s", first.StatusCode, body)
	}
	etag := first.Header.Get("Etag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("missing or unquoted ETag: %q", etag)
	}

	notMod, nmBody := postRunWith(t, ts.URL, warmRunBody, etag)
	if notMod.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match repeat = %d, want 304", notMod.StatusCode)
	}
	if len(nmBody) != 0 {
		t.Errorf("304 carried a body: %q", nmBody)
	}
	if got := notMod.Header.Get("Etag"); got != etag {
		t.Errorf("304 ETag = %q, want %q", got, etag)
	}
	// A stale tag revalidates to a full 200.
	full, fullBody := postRunWith(t, ts.URL, warmRunBody, `"deadbeef"`)
	if full.StatusCode != http.StatusOK || !bytes.Equal(fullBody, body) {
		t.Errorf("stale-tag repeat = %d (%d bytes), want a full 200 with the original body",
			full.StatusCode, len(fullBody))
	}

	var st Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.NotModified < 1 {
		t.Errorf("not_modified = %d, want >= 1", st.NotModified)
	}
}

// TestSweepConditionalFastLane pins the same contract on /v1/sweep.
func TestSweepConditionalFastLane(t *testing.T) {
	ts := newTestServer(t, Config{})
	body := `{"platform":"wse","model":"gpt2-small","layer_counts":[2,4],"batches":[256]}`
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b1 := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep = %d: %s", resp.StatusCode, b1)
	}
	etag := resp.Header.Get("Etag")
	if etag == "" {
		t.Fatal("sweep response missing ETag")
	}

	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(body))
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if nm := readAll(t, resp); resp.StatusCode != http.StatusNotModified || len(nm) != 0 {
		t.Fatalf("conditional sweep = %d with %d body bytes, want bare 304", resp.StatusCode, len(nm))
	}

	// An unconditional repeat recomputes (sweeps keep no L0 entry) and
	// stays byte-identical.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(body))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if b2 := readAll(t, resp); !bytes.Equal(b1, b2) {
		t.Errorf("warm sweep diverged from cold:\n%s\n%s", b1, b2)
	}
}

// TestScenarioGetFastLaneByteIdentity pins byte identity and the 304
// lane on the deterministic scenario GET endpoint.
func TestScenarioGetFastLaneByteIdentity(t *testing.T) {
	const url = "/v1/scenarios/cross-platform-throughput"
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + url)
	if err != nil {
		t.Fatal(err)
	}
	cold := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold scenario = %d: %s", resp.StatusCode, cold)
	}
	etag := resp.Header.Get("Etag")
	if etag == "" {
		t.Fatal("scenario response missing ETag")
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("scenario Content-Type = %q", ct)
	}

	resp, err = http.Get(ts.URL + url)
	if err != nil {
		t.Fatal(err)
	}
	if warm := readAll(t, resp); !bytes.Equal(cold, warm) {
		t.Errorf("warm scenario diverged from cold render")
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+url, nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if nm := readAll(t, resp); resp.StatusCode != http.StatusNotModified || len(nm) != 0 {
		t.Fatalf("conditional scenario = %d with %d body bytes, want bare 304", resp.StatusCode, len(nm))
	}

	// The cache-off server renders the same bytes through the slow path.
	off := newTestServer(t, Config{RespCacheBudget: -1})
	resp, err = http.Get(off.URL + url)
	if err != nil {
		t.Fatal(err)
	}
	if slow := readAll(t, resp); !bytes.Equal(cold, slow) {
		t.Errorf("cache-off scenario render diverged")
	}
}

// TestWarmBytesSurviveRestartViaStore: a second server process (same
// store, cold L0 and cold memo tiers) serves the first process's
// response bytes through the store's raw path, byte-identically.
func TestWarmBytesSurviveRestartViaStore(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	experiments.ResetCaches()
	defer experiments.ResetCaches()

	ts1 := newTestServer(t, Config{Store: st})
	resp, cold := postRunWith(t, ts1.URL, warmRunBody, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold run = %d: %s", resp.StatusCode, cold)
	}
	st.Snapshot() // drain the write-behind frame

	// "Restart": fresh server (empty L0), memo tiers dropped. Only the
	// store is warm, so the repeat must come from LoadRaw.
	experiments.ResetCaches()
	ts2 := newTestServer(t, Config{Store: st})
	rawHitsBefore := st.Stats().RawHits
	resp, warm := postRunWith(t, ts2.URL, warmRunBody, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted run = %d: %s", resp.StatusCode, warm)
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("restarted response diverged:\n%s\n%s", cold, warm)
	}
	if hits := st.Stats().RawHits - rawHitsBefore; hits != 1 {
		t.Errorf("raw hits delta = %d, want 1 (response served from the frame's byte section)", hits)
	}
}

// TestRunStoreFaultFallsBackToSlowPath: with every store read failing,
// the raw fast lane must degrade to recompute — never a 500, and the
// body stays byte-identical to a fault-free serve.
func TestRunStoreFaultFallsBackToSlowPath(t *testing.T) {
	clean := newTestServer(t, Config{})
	resp, baseline := postRunWith(t, clean.URL, warmRunBody, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean run = %d", resp.StatusCode)
	}

	in := serverInjector(t, faults.Spec{Rules: []faults.Rule{
		{Op: faults.OpStoreRead, Kind: faults.KindEIO, Probability: 1},
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
	for i := 0; i < 3; i++ {
		resp, got := postRunWith(t, faulted.URL, warmRunBody, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d under read faults = %d (store faults must never surface)", i, resp.StatusCode)
		}
		if !bytes.Equal(baseline, got) {
			t.Errorf("run %d under read faults diverged from clean serve", i)
		}
	}
}

// TestJobResultConditional pins the ETag/304 lane on finished job
// results.
func TestJobResultConditional(t *testing.T) {
	ts := newTestServer(t, Config{})
	body := `{"platform":"wse","model":"gpt2-small","layer_counts":[2,4],"batches":[256]}`
	resp, b := postJSON(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, b)
	}
	var v jobs.View
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatal(err)
	}
	waitJobState(t, ts, v.ID, jobs.StateDone)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	full := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result = %d: %s", resp.StatusCode, full)
	}
	etag := resp.Header.Get("Etag")
	if etag == "" {
		t.Fatal("job result missing ETag")
	}
	if resp.ContentLength != int64(len(full)) {
		t.Errorf("job result Content-Length = %d, want %d", resp.ContentLength, len(full))
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+v.ID+"/result", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if nm := readAll(t, resp); resp.StatusCode != http.StatusNotModified || len(nm) != 0 {
		t.Fatalf("conditional job result = %d with %d body bytes, want bare 304", resp.StatusCode, len(nm))
	}
	// A different format is a different entity with its own ETag.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if csvTag := resp.Header.Get("Etag"); csvTag == "" || csvTag == etag {
		t.Errorf("csv ETag = %q, want distinct from json %q", csvTag, etag)
	}
}

func TestETagMatches(t *testing.T) {
	const tag = `"abc"`
	for _, inm := range []string{tag, "*", `"x", "abc"`, `W/"abc"`, ` "abc" `} {
		if !etagMatches(inm, tag) {
			t.Errorf("etagMatches(%q, %q) = false, want true", inm, tag)
		}
	}
	for _, inm := range []string{`"abcd"`, `"ab"`, `abc`, `""`} {
		if etagMatches(inm, tag) {
			t.Errorf("etagMatches(%q, %q) = true, want false", inm, tag)
		}
	}
}

// TestIdentityTagsAreStable pins the literal identity ETags: a client
// holding a tag from an earlier build must still get its 304.
func TestIdentityTagsAreStable(t *testing.T) {
	req, err := decodeSweepRequest([]byte(`{"platform":"wse","model":"gpt2-small","layer_counts":[2,4],"batches":[256]}`))
	if err != nil {
		t.Fatal(err)
	}
	p, pts, err := req.syncGrid(16)
	if err != nil {
		t.Fatal(err)
	}
	ephemeral, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ephemeral.Close()
	ephemeral.start = time.Unix(0, 1700000000123456789)
	durable, err := New(Config{JobsDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()

	for _, c := range []struct{ name, got, want string }{
		{"sweep", sweepETag(p.Name(), pts),
			`"5961bab624f816179bc17de7df3b2fa795c423bb03b1b29b893e5f73cc025e72"`},
		{"scenario", scenarioETag("cross-platform-throughput", "text"),
			`"0cd6b596436718c6713c021e90d7ad3f12766391c719a647ec766ac12d01f285"`},
		{"ephemeral job result", ephemeral.jobResultETag("job-000007", "csv"),
			`"05ba609c075fcf8b4cc38b378ff1ee717a2d24420a6c9aa97174e04e884060ce"`},
		{"durable job result", durable.jobResultETag("job-000007", "csv"),
			`"401bb9c634086b2efd87cbafe8585e555b870fc64eee4439b574ad458ff967a7"`},
	} {
		if c.got != c.want {
			t.Errorf("%s ETag = %s, want %s", c.name, c.got, c.want)
		}
	}
}
