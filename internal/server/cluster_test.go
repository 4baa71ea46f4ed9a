package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"dabench/internal/cluster"
	"dabench/internal/experiments"
	"dabench/internal/faults"
	"dabench/internal/jobs"
	"dabench/internal/provenance"
	"dabench/internal/store"
)

// fleetNode is one in-process cluster member: a full Server behind a
// real listener, its own store, and its fabric.
type fleetNode struct {
	id  string
	s   *Server
	ts  *httptest.Server
	st  *store.Store
	fab *cluster.Fabric
}

// newFleet builds an n-node in-process cluster. Fabrics attach after
// every listener is up (peer URLs are unknowable before), mirroring how
// tests must wire SetCluster. The nodes share the process-global memo
// tiers — callers that need per-node cache behavior reset and re-point
// experiments between phases.
func newFleet(t *testing.T, n int, inj *faults.Injector) []*fleetNode {
	t.Helper()
	nodes := make([]*fleetNode, n)
	for i := range nodes {
		st, err := store.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(st.Close)
		s, err := New(Config{Store: st})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		ts := httptest.NewServer(s)
		t.Cleanup(ts.Close)
		nodes[i] = &fleetNode{id: fmt.Sprintf("node-%c", 'a'+i), s: s, ts: ts, st: st}
	}
	for i, nd := range nodes {
		var peers []cluster.PeerConfig
		for j, p := range nodes {
			if j != i {
				peers = append(peers, cluster.PeerConfig{ID: p.id, URL: p.ts.URL})
			}
		}
		fab, err := cluster.New(cluster.Config{
			NodeID: nd.id, SelfURL: nd.ts.URL, Peers: peers,
			FetchTimeout:     2 * time.Second,
			BreakerThreshold: 2, BreakerCooldown: time.Minute,
			Injector: inj,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(fab.Close)
		nd.fab = fab
		nd.s.SetCluster(fab)
	}
	return nodes
}

// TestClusterWarmServeFromPeer pins what a fleet node does with a spec
// only a peer has served: it recomputes. Node B, with an empty store,
// answers node A's spec with node A's exact bytes after exactly one
// compile miss and zero peer fetches, and the frame it then holds is
// one it wrote itself. A peer round trip costs more than any
// platform's compile plus run, so /v1/run never makes one.
func TestClusterWarmServeFromPeer(t *testing.T) {
	nodes := newFleet(t, 3, nil)
	a, b := nodes[0], nodes[1]

	// Phase A: node A computes the spec cold and persists it.
	experiments.ResetCaches()
	defer experiments.ResetCaches()
	resp, bodyA := postRunWith(t, a.ts.URL, warmRunBody, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("node A run = %d: %s", resp.StatusCode, bodyA)
	}
	a.st.Snapshot() // A's frame is on disk: a peer fetch would find it

	// Phase B: memo tiers dropped, node B's store empty. The only warm
	// copy of the spec in the world is node A's store, and B must not
	// go looking for it.
	experiments.ResetCaches()
	missesBefore := experiments.CacheStats().Misses
	resp, bodyB := postRunWith(t, b.ts.URL, warmRunBody, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("node B run = %d: %s", resp.StatusCode, bodyB)
	}
	if !bytes.Equal(bodyA, bodyB) {
		t.Errorf("node B's recomputed bytes diverged from node A's:\nA: %s\nB: %s", bodyA, bodyB)
	}
	if d := experiments.CacheStats().Misses - missesBefore; d != 1 {
		t.Errorf("node B paid %d compile misses, want exactly 1 (a local store miss recomputes)", d)
	}

	var st Stats
	getJSON(t, b.ts.URL+"/v1/stats", &st)
	if st.Cluster == nil {
		t.Fatal("/v1/stats on a fleet node has no cluster section")
	}
	if st.Cluster.NodeID != "node-b" || len(st.Cluster.Peers) != 2 {
		t.Errorf("cluster identity = %s with %d peers, want node-b with 2", st.Cluster.NodeID, len(st.Cluster.Peers))
	}
	if n := st.Cluster.PeerFetchHits + st.Cluster.PeerFetchMisses + st.Cluster.PeerFetchErrors; n != 0 {
		t.Errorf("node B made %d peer fetches (hits %d, misses %d, errors %d), want 0",
			n, st.Cluster.PeerFetchHits, st.Cluster.PeerFetchMisses, st.Cluster.PeerFetchErrors)
	}
	expo := scrapeMetrics(t, b.ts)
	for _, series := range []string{"dabench_peer_fetch_hits_total", "dabench_peer_fetch_misses_total", "dabench_peer_fetch_errors_total"} {
		if v := metricValue(t, expo, series); v != 0 {
			t.Errorf("%s = %v, want 0", series, v)
		}
	}

	// The frame on B is B's own write: one put, serving B's bytes.
	b.st.Snapshot()
	if puts := b.st.Stats().Puts; puts != 1 {
		t.Errorf("node B store puts = %d, want 1 (its own cold outcome)", puts)
	}
	plat, key := bodyIdentity(t, bodyB)
	if raw, ok := b.st.LoadRaw(plat, key); !ok || !bytes.Equal(raw, bodyB) {
		t.Errorf("node B's store does not serve its own bytes back (ok=%v)", ok)
	}

	// healthz on a fleet node reports the cluster component.
	var hr healthResponse
	getJSON(t, b.ts.URL+"/healthz", &hr)
	if _, ok := hr.Components["cluster"]; !ok {
		t.Errorf("healthz components = %+v, want a cluster entry", hr.Components)
	}
}

// bodyIdentity extracts the canonical platform name and spec key a
// /v1/run response carries — the pair blob addresses derive from — so
// tests can address the store directly.
func bodyIdentity(t *testing.T, body []byte) (platformName, specKey string) {
	t.Helper()
	var res RunResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Platform == "" || res.SpecKey == "" {
		t.Fatalf("response carries no identity: %s", body)
	}
	return res.Platform, res.SpecKey
}

// TestClusterBlobEndpointRejectsMalformedAddrs pins the address gate on
// the export endpoint: traversal-shaped and otherwise malformed {addr}
// values answer 400 before any store path handling; a well-formed but
// absent address answers 404.
func TestClusterBlobEndpointRejectsMalformedAddrs(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := newTestServer(t, Config{Store: st})

	// A bare ".." segment never reaches the handler (the HTTP stack
	// cleans it away); escaped separators do, and must bounce off the
	// address gate.
	bad := []string{
		"../../etc/passwd",
		strings.Repeat("a", 63),
		strings.Repeat("a", 65),
		strings.Repeat("A", 64),
		strings.Repeat("z", 64),
		"aa/" + strings.Repeat("b", 61),
		"..\\..\\" + strings.Repeat("c", 58),
	}
	for _, addr := range bad {
		u := ts.URL + "/v1/blobs/" + url.PathEscape(addr)
		resp, err := http.Get(u)
		if err != nil {
			t.Fatalf("GET %s: %v", u, err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET blob %q = %d (%s), want 400", addr, resp.StatusCode, body)
		}
	}

	// Well-formed but unknown: a clean 404 (the peer-miss signal).
	resp, err := http.Get(ts.URL + "/v1/blobs/" + strings.Repeat("ab", 32))
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("absent blob = %d, want 404", resp.StatusCode)
	}

	// RAM-only node: nothing to export, also 404.
	ram := newTestServer(t, Config{})
	resp, err = http.Get(ram.URL + "/v1/blobs/" + strings.Repeat("ab", 32))
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("RAM-only blob export = %d, want 404", resp.StatusCode)
	}
}

// TestClusterDegradedFabricFallsBack pins the failure posture: with
// every peer call failing under the injector, /v1/run still answers
// 200 with the bytes a single node serves. It never touches the
// fabric, so no fetch error is counted and the breaker stays closed
// after each cold spec. Breaker trips are covered where peer calls
// remain: TestBreakerTripProbeRecover (internal/cluster).
func TestClusterDegradedFabricFallsBack(t *testing.T) {
	bodies := []string{warmRunBody, `{"platform":"wse","model":"gpt2-small","batch":128,"seq":1024}`}
	experiments.ResetCaches()
	standalone := newTestServer(t, Config{})
	baselines := make([][]byte, len(bodies))
	for i, body := range bodies {
		resp, b := postRunWith(t, standalone.URL, body, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("standalone run %d = %d", i, resp.StatusCode)
		}
		baselines[i] = b
	}

	inj := serverInjector(t, faults.Spec{Rules: []faults.Rule{
		{Op: faults.OpPeerFetch, Kind: faults.KindEIO, Probability: 1},
	}})
	nodes := newFleet(t, 2, inj)
	a := nodes[0]

	experiments.ResetCaches()
	defer experiments.ResetCaches()
	for i, body := range bodies {
		for rep := 0; rep < 2; rep++ {
			resp, got := postRunWith(t, a.ts.URL, body, "")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("spec %d run %d under peer faults = %d (a degraded fabric must never surface)", i, rep, resp.StatusCode)
			}
			if !bytes.Equal(baselines[i], got) {
				t.Errorf("spec %d run %d under peer faults diverged from the single-node serve", i, rep)
			}
		}
		st := a.fab.Stats()
		if st.PeerFetchErrors != 0 {
			t.Errorf("after %d cold spec(s): peer fetch errors = %d, want 0 (/v1/run makes no peer call)", i+1, st.PeerFetchErrors)
		}
		if st.Peers[0].Breaker != "closed" {
			t.Errorf("after %d cold spec(s): peer breaker = %s, want closed", i+1, st.Peers[0].Breaker)
		}
	}
}

// TestClusterGossipAnchorsChainTips pins satellite 1: a node's
// provenance chain tip travels in gossip, lands in the peer's view (and
// its /v1/stats), and a silenced node turns dead after the threshold.
func TestClusterGossipAnchorsChainTips(t *testing.T) {
	dirA := t.TempDir()
	provA, err := provenance.Open(filepath.Join(dirA, "provenance.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer provA.Close()
	provA.Append(strings.Repeat("ab", 32), "wse", "spec-1", store.PipelineVersion)
	provA.Append(strings.Repeat("cd", 32), "wse", "spec-2", store.PipelineVersion)
	wantTip := provA.Stats().TipHash

	sA, err := New(Config{Provenance: provA})
	if err != nil {
		t.Fatal(err)
	}
	defer sA.Close()
	tsA := httptest.NewServer(sA)
	defer tsA.Close()

	sB, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sB.Close()
	tsB := httptest.NewServer(sB)
	defer tsB.Close()
	fabB, err := cluster.New(cluster.Config{
		NodeID: "node-b", SelfURL: tsB.URL,
		Peers:            []cluster.PeerConfig{{ID: "node-a", URL: tsA.URL}},
		FetchTimeout:     2 * time.Second,
		BreakerThreshold: 2, BreakerCooldown: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fabB.Close()
	sB.SetCluster(fabB)

	fabB.GossipOnce(context.Background())
	tip, records, ok := fabB.PeerTip("node-a")
	if !ok || tip != wantTip || records != 2 {
		t.Fatalf("PeerTip(node-a) = %q (%d records) ok=%v, want %q (2 records)", tip, records, ok, wantTip)
	}
	var st Stats
	getJSON(t, tsB.URL+"/v1/stats", &st)
	if st.Cluster == nil || len(st.Cluster.Peers) != 1 ||
		st.Cluster.Peers[0].ChainTip != wantTip || st.Cluster.Peers[0].State != "alive" {
		t.Errorf("peer view in /v1/stats = %+v", st.Cluster)
	}

	// The tip a peer remembers is exactly what `provenance verify -peer`
	// checks membership of: it must be in the chain's hash set, and a
	// rewritten chain's set would not contain it.
	res, err := provenance.VerifyFile(filepath.Join(dirA, "provenance.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hashes[tip] {
		t.Errorf("gossiped tip %.12s not in the chain's verified hash set", tip)
	}

	// Silence node A: threshold consecutive failed rounds flip it dead.
	tsA.Close()
	for i := 0; i < 2; i++ {
		fabB.GossipOnce(context.Background())
	}
	getJSON(t, tsB.URL+"/v1/stats", &st)
	if st.Cluster.PeersDead != 1 || st.Cluster.Peers[0].State != "dead" {
		t.Errorf("after silencing node A: %+v", st.Cluster)
	}
	// And /healthz degrades without failing.
	var hr healthResponse
	getJSON(t, tsB.URL+"/healthz", &hr)
	if hr.Components["cluster"].Status != "degraded" {
		t.Errorf("cluster health = %+v, want degraded with a dead peer", hr.Components["cluster"])
	}
}

// twoChunkJobBody is a 512-point sweep: exactly two jobChunk-sized
// chunks, so a fleet that sharded jobs would have sent one to a peer.
func twoChunkJobBody() string {
	var lc, bt []string
	for i := 1; i <= 32; i++ {
		lc = append(lc, strconv.Itoa(i))
	}
	for i := 1; i <= 16; i++ {
		bt = append(bt, strconv.Itoa(16*i))
	}
	return `{"platform":"wse","model":"gpt2-small","layer_counts":[` + strings.Join(lc, ",") +
		`],"batches":[` + strings.Join(bt, ",") + `]}`
}

func runJobToBytes(t *testing.T, ts *httptest.Server, body string) []byte {
	t.Helper()
	resp, b := postJSON(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, b)
	}
	var v jobs.View
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatal(err)
	}
	waitJobState(t, ts, v.ID, jobs.StateDone)
	rresp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	out := readAll(t, rresp)
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("result = %d: %s", rresp.StatusCode, out)
	}
	return out
}

// TestClusterJobRunsLocally pins where a fleet node runs an async job:
// every chunk on itself. The job manager runs one job at a time, so a
// chunk sent to a peer would only wait out a round trip. A two-chunk
// job on a peered node returns the standalone node's bytes, the peer
// serves no request, and the peer has no chunk endpoint to serve.
func TestClusterJobRunsLocally(t *testing.T) {
	experiments.ResetCaches()
	standalone := newTestServer(t, Config{})
	want := runJobToBytes(t, standalone, twoChunkJobBody())

	nodes := newFleet(t, 2, nil)
	a, b := nodes[0], nodes[1]
	got := runJobToBytes(t, a.ts, twoChunkJobBody())
	if !bytes.Equal(want, got) {
		t.Errorf("fleet job result diverged from single-node (%d vs %d bytes)", len(want), len(got))
	}
	var st Stats
	getJSON(t, b.ts.URL+"/v1/stats", &st)
	if st.Served != 0 {
		t.Errorf("peer served %d requests during node A's job, want 0", st.Served)
	}
	resp, body := postJSON(t, b.ts.URL+"/v1/chunks",
		`{"request":{"platform":"wse","model":"gpt2-small","layer_counts":[2]},"start":0,"end":1}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /v1/chunks = %d (%s), want 404", resp.StatusCode, body)
	}
}
