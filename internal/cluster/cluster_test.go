package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParsePeers(t *testing.T) {
	got, err := ParsePeers("node-b=http://node-b:8080, node-c=https://node-c:8080/, node-d=http://[::1]:9/dabench/")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != (PeerConfig{ID: "node-b", URL: "http://node-b:8080"}) ||
		got[1] != (PeerConfig{ID: "node-c", URL: "https://node-c:8080"}) ||
		got[2] != (PeerConfig{ID: "node-d", URL: "http://[::1]:9/dabench"}) {
		t.Errorf("ParsePeers = %+v", got)
	}
	for _, bad := range []string{
		"",
		",,,",
		"node-b",                      // no =
		"=http://x",                   // empty id
		"node-b=",                     // empty url
		"node-b=ftp://x",              // wrong scheme
		"node-b=http://",              // no host
		"node-b=http://ok,node-c=not", // one bad pair poisons the set
		"b=http://h:1?x=1",            // a query swallows every endpoint path
		"b=http://h:1#f",              // so does a fragment
		"b=http://h:1?",               // an empty query still does
		"b=http://:0",                 // empty hostname
		"b=http://h:99999",            // port out of range
		"b=http://h:0",                // port out of range
		"b=http://h:",                 // colon with no port
		"b=http://u:p@h:1",            // userinfo would be echoed in gossip
		"b =http://h:1",               // id with whitespace
	} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q) accepted, want error", bad)
		}
	}
}

func TestNewValidatesMembership(t *testing.T) {
	peers := []PeerConfig{{ID: "b", URL: "http://b"}}
	cases := []Config{
		{Peers: peers}, // no node id
		{NodeID: "a"},  // no peers
		{NodeID: "a", Peers: []PeerConfig{{ID: "a", URL: "http://a"}}},                              // self collision
		{NodeID: "a", Peers: []PeerConfig{{ID: "b", URL: "http://b"}, {ID: "b", URL: "http://b2"}}}, // dup
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New accepted invalid membership", i)
		}
	}
	if _, err := New(Config{NodeID: "a", Peers: peers}); err != nil {
		t.Errorf("valid membership rejected: %v", err)
	}
}

func TestBreakerTripProbeRecover(t *testing.T) {
	b := newBreaker(3, 20*time.Millisecond)
	for i := 0; i < 2; i++ {
		if !b.allow() {
			t.Fatalf("closed breaker denied call %d", i)
		}
		b.failure()
	}
	if b.stateName() != "closed" {
		t.Fatalf("state after 2 failures = %s, want closed", b.stateName())
	}
	b.failure() // third consecutive: trips
	if b.stateName() != "open" || b.allow() {
		t.Fatalf("state after threshold = %s (allow=%v), want open and denying", b.stateName(), b.allow())
	}
	time.Sleep(25 * time.Millisecond)
	if !b.allow() {
		t.Fatal("cooled-down breaker denied its probe")
	}
	if b.allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	b.success()
	if b.stateName() != "closed" || !b.allow() {
		t.Fatalf("state after probe success = %s, want closed", b.stateName())
	}
	// A failed probe reopens immediately, threshold or not.
	b.failure()
	b.failure()
	b.failure()
	time.Sleep(25 * time.Millisecond)
	if !b.allow() {
		t.Fatal("denied probe after second cooldown")
	}
	b.failure()
	if b.stateName() != "open" {
		t.Fatalf("state after failed probe = %s, want open", b.stateName())
	}
}

// TestGossipLiveness: a reachable peer turns alive after one round; an
// unreachable one turns dead after threshold consecutive failures and
// recovers on the next good round.
func TestGossipLiveness(t *testing.T) {
	peerB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/gossip" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"node_id":"b","status":"ok","uptime_sec":1,` +
			`"store_entries":7,"store_bytes":700,"chain_records":3,"chain_tip":"feedface"}`))
	}))
	defer peerB.Close()

	f, err := New(Config{
		NodeID: "a", SelfURL: "http://a",
		Peers:            []PeerConfig{{ID: "b", URL: peerB.URL}},
		BreakerThreshold: 2, BreakerCooldown: time.Minute,
		FetchTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	f.GossipOnce(context.Background())
	views := f.Peers()
	if len(views) != 1 || views[0].State != "alive" {
		t.Fatalf("after one good round: %+v", views)
	}
	if v := views[0]; v.ChainTip != "feedface" || v.ChainRecords != 3 || v.StoreEntries != 7 {
		t.Errorf("gossiped self-report not folded in: %+v", v)
	}
	if tip, recs, ok := f.PeerTip("b"); !ok || tip != "feedface" || recs != 3 {
		t.Errorf("PeerTip = %q %d %v", tip, recs, ok)
	}

	peerB.Close()
	for i := 0; i < 2; i++ {
		f.GossipOnce(context.Background())
	}
	if got := f.Peers()[0]; got.State != "dead" || got.GossipFailures < 2 {
		t.Fatalf("after threshold failed rounds: %+v", got)
	}
	st := f.Stats()
	if st.PeersDead != 1 || st.PeersAlive != 0 || st.GossipErrors < 2 {
		t.Errorf("stats after death: %+v", st)
	}
}

// TestFetchFrameFansOutPastMisses: a clean 404 at one peer is a
// healthy miss — the fetch continues to the next peer and still hits.
func TestFetchFrameFansOutPastMisses(t *testing.T) {
	addr := strings.Repeat("ab", 32)
	missing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":{"code":"not_found"}}`, http.StatusNotFound)
	}))
	defer missing.Close()
	holding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/blobs/"+addr {
			http.NotFound(w, r)
			return
		}
		_, _ = w.Write([]byte("frame-bytes"))
	}))
	defer holding.Close()

	f, err := New(Config{
		NodeID: "a",
		Peers: []PeerConfig{
			{ID: "miss-1", URL: missing.URL},
			{ID: "miss-2", URL: missing.URL},
			{ID: "hold", URL: holding.URL},
		},
		FetchTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, from, ok := f.FetchFrame(context.Background(), addr)
	if !ok || from != "hold" || string(data) != "frame-bytes" {
		t.Fatalf("FetchFrame = %q from %q ok=%v", data, from, ok)
	}
	st := f.Stats()
	if st.PeerFetchHits != 1 || st.PeerFetchErrors != 0 {
		t.Errorf("stats after fan-out hit: %+v", st)
	}

	// An address nobody holds is a miss, not an error.
	if _, _, ok := f.FetchFrame(context.Background(), strings.Repeat("cd", 32)); ok {
		t.Error("FetchFrame hit an address nobody holds")
	}
	if st := f.Stats(); st.PeerFetchMisses < 1 {
		t.Errorf("miss not counted: %+v", st)
	}
}

// TestNilFabricIsSingleNode: every fabric entry point tolerates the nil
// receiver the single-node server carries.
func TestNilFabricIsSingleNode(t *testing.T) {
	var f *Fabric
	f.Start()
	f.Close()
	f.GossipOnce(context.Background())
	if f.Stats() != nil || f.Peers() != nil || f.NodeID() != "" || f.SelfURL() != "" {
		t.Error("nil fabric leaked state")
	}
	if _, _, ok := f.FetchFrame(context.Background(), strings.Repeat("ab", 32)); ok {
		t.Error("nil fabric fetched")
	}
	if _, _, ok := f.PeerTip("b"); ok {
		t.Error("nil fabric had a peer tip")
	}
}
