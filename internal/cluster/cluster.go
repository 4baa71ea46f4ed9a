// Package cluster is the multi-node fabric: static peer membership and
// a pull-based gossip heartbeat. Fleet nodes share liveness only; no
// request consults a peer, because a recompute or a local job chunk
// costs less than the round trip (DESIGN.md has the numbers).
// FetchFrame, a client for a peer's GET /v1/blobs/{addr}, stays for the
// benchmark, which times that export; the daemon itself never calls it.
//
// Membership is static on purpose: the fabric targets small fleets
// declared in a compose file or a unit file (-peers id=url,...), where
// a membership protocol would be machinery without a failure mode to
// earn it. Liveness within that fixed set is dynamic: each node polls
// every peer's /v1/gossip on an interval, learning health, store
// gauges, and the peer's provenance chain tip (the cross-node tamper
// anchor `dabench provenance verify -peer` checks).
//
// Failure posture mirrors the store's: no answer depends on a peer,
// so peer calls are bounded by a short timeout and a per-peer circuit
// breaker — a dead node costs a few connection errors, then one state
// check per fetch until its breaker's cooldown probes it again.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"

	"dabench/internal/faults"
)

// maxPeerBody bounds one peer response read (blob frames are at most a
// few MB; anything larger is a wire error).
const maxPeerBody = 64 << 20

// NodeState is what one node reports about itself in its gossip
// payload: identity, health, store gauges, and its provenance chain
// tip.
type NodeState struct {
	NodeID    string  `json:"node_id"`
	URL       string  `json:"url,omitempty"`
	Status    string  `json:"status"` // ok | degraded
	UptimeSec float64 `json:"uptime_sec"`
	// Store gauges (zero without a -data-dir).
	StoreEntries int64 `json:"store_entries"`
	StoreBytes   int64 `json:"store_bytes"`
	// ChainRecords / ChainTip anchor the node's provenance chain: the
	// tip hash commits to the node's entire write history, so a peer
	// that remembers a tip can later prove the chain was rewritten.
	ChainRecords int64  `json:"chain_records"`
	ChainTip     string `json:"chain_tip,omitempty"`
}

// PeerView is this node's view of one peer: transport liveness plus the
// peer's last self-reported NodeState.
type PeerView struct {
	ID  string `json:"id"`
	URL string `json:"url"`
	// State is the fabric's liveness verdict: "alive" (last gossip probe
	// succeeded), "dead" (threshold consecutive probes failed), or
	// "unknown" (never reached since boot).
	State          string  `json:"state"`
	Breaker        string  `json:"breaker"` // closed | open | half-open
	LastSeenSec    float64 `json:"last_seen_sec,omitempty"`
	GossipFailures int     `json:"gossip_failures,omitempty"` // consecutive
	// The peer's last gossiped self-report.
	Status       string `json:"status,omitempty"`
	StoreEntries int64  `json:"store_entries,omitempty"`
	StoreBytes   int64  `json:"store_bytes,omitempty"`
	ChainRecords int64  `json:"chain_records,omitempty"`
	ChainTip     string `json:"chain_tip,omitempty"`
}

// GossipResponse is the GET /v1/gossip payload: the answering node's
// own state plus its current view of every peer. The Peers section is
// what makes one round of polling transitive enough for a small fleet:
// every node learns secondhand what it has not probed firsthand yet.
type GossipResponse struct {
	NodeState
	Peers []PeerView `json:"peers,omitempty"`
}

// PeerConfig names one static peer.
type PeerConfig struct {
	ID  string
	URL string
}

// ParsePeers parses the -peers flag form: comma-separated id=url pairs,
// e.g. "node-b=http://node-b:8080,node-c=http://node-c:8080". An id has
// no whitespace. A url is http(s)://host[:port] with an optional path
// prefix: every peer call appends its endpoint path, so a query or
// fragment would swallow it and a live peer would read dead. Userinfo
// is refused too, because peer URLs are echoed in gossip and /v1/stats.
func ParsePeers(s string) ([]PeerConfig, error) {
	var out []PeerConfig
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, rawURL, ok := strings.Cut(part, "=")
		if !ok || id == "" || rawURL == "" || strings.IndexFunc(id, unicode.IsSpace) >= 0 {
			return nil, fmt.Errorf("cluster: peer %q is not id=url with a space-free id", part)
		}
		u, err := url.Parse(rawURL)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Hostname() == "" ||
			u.User != nil || strings.ContainsAny(rawURL, "?#") {
			return nil, fmt.Errorf("cluster: peer %q: url must be http(s)://host[:port] with no query or fragment", part)
		}
		if port := u.Port(); port != "" || strings.HasSuffix(u.Host, ":") {
			if n, err := strconv.Atoi(port); err != nil || n < 1 || n > 65535 {
				return nil, fmt.Errorf("cluster: peer %q: port %q is not in 1-65535", part, port)
			}
		}
		out = append(out, PeerConfig{ID: id, URL: strings.TrimRight(rawURL, "/")})
	}
	if len(out) == 0 {
		return nil, errors.New("cluster: -peers named no peers")
	}
	return out, nil
}

// Config tunes one Fabric.
type Config struct {
	// NodeID is this node's name in the fleet (required, unique).
	NodeID string
	// SelfURL is the base URL peers can reach this node at; advertised
	// in gossip, informational otherwise.
	SelfURL string
	// Peers is the static membership, excluding this node (required).
	Peers []PeerConfig
	// GossipInterval is the peer-poll period (default 1s; Start only).
	GossipInterval time.Duration
	// FetchTimeout bounds one peer HTTP call — a gossip probe or a
	// FetchFrame request (default 500ms).
	FetchTimeout time.Duration
	// BreakerThreshold / BreakerCooldown tune the per-peer breakers
	// (defaults 3 and 5s) and the gossip dead-peer threshold.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Injector fires at the peer-call boundary (faults.OpPeerFetch).
	Injector *faults.Injector
	// Client overrides the fabric's HTTP client (tests).
	Client *http.Client
}

// peer is one static peer's live state.
type peer struct {
	id, url string
	br      *breaker

	mu          sync.Mutex
	seen        bool // ever gossiped successfully
	lastSeen    time.Time
	gossipFails int // consecutive
	last        NodeState
}

// Fabric is one node's membership in the cluster. Create with New;
// safe for concurrent use. A nil *Fabric is a valid "single node, no
// fabric" value everywhere the server consults it.
type Fabric struct {
	nodeID  string
	selfURL string
	peers   []*peer // config order
	byID    map[string]*peer
	client  *http.Client
	inj     *faults.Injector

	gossipInterval time.Duration
	fetchTimeout   time.Duration
	deadThreshold  int

	// baseCtx is the fabric's lifecycle root: the gossip probes made on
	// the fabric's own behalf derive from it, and Close cancels it —
	// shutdown kills in-flight peer I/O instead of waiting out timeouts.
	baseCtx context.Context
	cancel  context.CancelFunc

	fetchHits, fetchMisses, fetchErrors atomic.Int64
	gossipRounds, gossipErrors          atomic.Int64

	startOnce, closeOnce sync.Once
	done                 chan struct{}
	wg                   sync.WaitGroup
}

// New validates the membership and builds the fabric. The gossip loop
// does not run until Start.
func New(cfg Config) (*Fabric, error) {
	if cfg.NodeID == "" {
		return nil, errors.New("cluster: NodeID is required")
	}
	if len(cfg.Peers) == 0 {
		return nil, errors.New("cluster: at least one peer is required")
	}
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = time.Second
	}
	if cfg.FetchTimeout <= 0 {
		cfg.FetchTimeout = 500 * time.Millisecond
	}
	threshold := cfg.BreakerThreshold
	if threshold < 1 {
		threshold = defaultBreakerThreshold
	}
	f := &Fabric{
		nodeID:         cfg.NodeID,
		selfURL:        strings.TrimRight(cfg.SelfURL, "/"),
		byID:           map[string]*peer{},
		client:         cfg.Client,
		inj:            cfg.Injector,
		gossipInterval: cfg.GossipInterval,
		fetchTimeout:   cfg.FetchTimeout,
		deadThreshold:  threshold,
		done:           make(chan struct{}),
	}
	//dalint:ignore noctxbg -- the fabric's lifecycle root: cancelled in Close, every peer call derives from it
	f.baseCtx, f.cancel = context.WithCancel(context.Background())
	if f.client == nil {
		f.client = &http.Client{}
	}
	for _, pc := range cfg.Peers {
		if pc.ID == "" || pc.URL == "" {
			return nil, errors.New("cluster: peer with empty id or url")
		}
		if pc.ID == cfg.NodeID {
			return nil, fmt.Errorf("cluster: peer %q collides with this node's id", pc.ID)
		}
		if _, dup := f.byID[pc.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", pc.ID)
		}
		p := &peer{id: pc.ID, url: strings.TrimRight(pc.URL, "/"),
			br: newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)}
		f.peers = append(f.peers, p)
		f.byID[pc.ID] = p
	}
	return f, nil
}

// NodeID returns this node's name in the fleet.
func (f *Fabric) NodeID() string {
	if f == nil {
		return ""
	}
	return f.nodeID
}

// SelfURL returns the advertised base URL ("" when not configured).
func (f *Fabric) SelfURL() string {
	if f == nil {
		return ""
	}
	return f.selfURL
}

// Start launches the background gossip loop; idempotent.
func (f *Fabric) Start() {
	if f == nil {
		return
	}
	f.startOnce.Do(func() {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			t := time.NewTicker(f.gossipInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					ctx, cancel := context.WithTimeout(f.baseCtx, f.fetchTimeout)
					f.GossipOnce(ctx)
					cancel()
				case <-f.done:
					return
				}
			}
		}()
	})
}

// Close stops the gossip loop; idempotent.
func (f *Fabric) Close() {
	if f == nil {
		return
	}
	f.closeOnce.Do(func() {
		close(f.done)
		f.cancel()
		f.wg.Wait()
	})
}

// GossipOnce polls every peer's /v1/gossip concurrently and folds the
// answers into the fabric's peer views. Exported (rather than loop-
// only) so tests drive deterministic rounds.
func (f *Fabric) GossipOnce(ctx context.Context) {
	if f == nil {
		return
	}
	f.gossipRounds.Add(1)
	var wg sync.WaitGroup
	for _, p := range f.peers {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			f.gossipPeer(ctx, p)
		}(p)
	}
	wg.Wait()
}

// gossipPeer probes one peer. Probes run even with the peer's breaker
// open — gossip IS the health probe, and a recovered peer must be able
// to close its breaker without waiting out a fetch-path cooldown.
func (f *Fabric) gossipPeer(ctx context.Context, p *peer) {
	ctx, cancel := context.WithTimeout(ctx, f.fetchTimeout)
	defer cancel()
	var gr GossipResponse
	err := f.getJSON(ctx, p.url+"/v1/gossip", &gr)
	p.mu.Lock()
	if err != nil {
		p.gossipFails++
		p.mu.Unlock()
		f.gossipErrors.Add(1)
		p.br.failure()
		return
	}
	p.seen = true
	p.lastSeen = time.Now()
	p.gossipFails = 0
	p.last = gr.NodeState
	p.mu.Unlock()
	p.br.success()
}

// getJSON is one bounded, injectable GET + decode.
func (f *Fabric) getJSON(ctx context.Context, url string, v any) error {
	if err := f.inj.Fire(faults.OpPeerFetch); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s answered %s", url, resp.Status)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, maxPeerBody)).Decode(v)
}

// view snapshots one peer under its lock.
func (f *Fabric) view(p *peer) PeerView {
	p.mu.Lock()
	defer p.mu.Unlock()
	v := PeerView{
		ID: p.id, URL: p.url, State: "unknown",
		Breaker:        p.br.stateName(),
		GossipFailures: p.gossipFails,
		Status:         p.last.Status,
		StoreEntries:   p.last.StoreEntries,
		StoreBytes:     p.last.StoreBytes,
		ChainRecords:   p.last.ChainRecords,
		ChainTip:       p.last.ChainTip,
	}
	if p.seen {
		v.State = "alive"
		v.LastSeenSec = time.Since(p.lastSeen).Seconds()
	}
	if p.gossipFails >= f.deadThreshold {
		v.State = "dead"
	}
	return v
}

// Peers returns this node's current view of every peer, in config
// order.
func (f *Fabric) Peers() []PeerView {
	if f == nil {
		return nil
	}
	out := make([]PeerView, len(f.peers))
	for i, p := range f.peers {
		out[i] = f.view(p)
	}
	return out
}

// PeerTip returns the provenance chain tip (and record count) peer
// peerID last gossiped — the cross-node anchor provenance verification
// checks. ok is false when the peer is unknown or has never gossiped.
func (f *Fabric) PeerTip(peerID string) (tip string, records int64, ok bool) {
	if f == nil {
		return "", 0, false
	}
	p, found := f.byID[peerID]
	if !found {
		return "", 0, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.seen {
		return "", 0, false
	}
	return p.last.ChainTip, p.last.ChainRecords, true
}

// FetchFrame tries to obtain the framed blob at addr from a peer:
// peers are walked in config order, each behind its breaker, each
// bounded by FetchTimeout. Any node that computed the spec holds the
// blob, so a miss at one peer falls through to the next. Returns the
// raw frame bytes and the answering peer's ID. Nothing in the daemon
// calls it; perfbench times the blob export through it.
func (f *Fabric) FetchFrame(ctx context.Context, addr string) ([]byte, string, bool) {
	if f == nil {
		return nil, "", false
	}
	tried := false
	for _, p := range f.peers {
		if !p.br.allow() {
			continue
		}
		tried = true
		data, err := f.fetchBlob(ctx, p, addr)
		if err != nil {
			if errors.Is(err, errPeerMiss) {
				// A clean 404 is healthy transport: the peer just never
				// computed this spec.
				p.br.success()
				continue
			}
			p.br.failure()
			f.fetchErrors.Add(1)
			continue
		}
		p.br.success()
		f.fetchHits.Add(1)
		return data, p.id, true
	}
	if tried {
		f.fetchMisses.Add(1)
	}
	return nil, "", false
}

// errPeerMiss marks a peer's well-formed "I don't have it" answer.
var errPeerMiss = errors.New("cluster: peer does not hold the blob")

// fetchBlob is one bounded GET /v1/blobs/{addr} against one peer.
func (f *Fabric) fetchBlob(ctx context.Context, p *peer, addr string) ([]byte, error) {
	if err := f.inj.Fire(faults.OpPeerFetch); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, f.fetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/v1/blobs/"+addr, nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return nil, errPeerMiss
	default:
		return nil, fmt.Errorf("cluster: blob fetch from %s answered %s", p.id, resp.Status)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerBody+1))
	if err != nil {
		return nil, err
	}
	if len(data) > maxPeerBody {
		return nil, fmt.Errorf("cluster: blob from %s exceeds the %d-byte bound", p.id, maxPeerBody)
	}
	return data, nil
}

// Stats is the fabric's /v1/stats wire form. The counter names mirror
// the /metrics families one to one.
type Stats struct {
	NodeID     string `json:"node_id"`
	SelfURL    string `json:"self_url,omitempty"`
	PeersAlive int    `json:"peers_alive"`
	PeersDead  int    `json:"peers_dead"`
	// FetchFrame counters: hits found the blob on a peer, misses found
	// it on no reachable peer, errors are transport failures. The daemon
	// never calls FetchFrame, so on a serving node all three stay 0.
	PeerFetchHits   int64 `json:"peer_fetch_hits"`
	PeerFetchMisses int64 `json:"peer_fetch_misses"`
	PeerFetchErrors int64 `json:"peer_fetch_errors"`
	// Gossip counters.
	GossipRounds int64      `json:"gossip_rounds"`
	GossipErrors int64      `json:"gossip_errors"`
	Peers        []PeerView `json:"peers"`
}

// Stats snapshots the fabric; nil on a nil receiver (single-node).
func (f *Fabric) Stats() *Stats {
	if f == nil {
		return nil
	}
	st := &Stats{
		NodeID:          f.nodeID,
		SelfURL:         f.selfURL,
		PeerFetchHits:   f.fetchHits.Load(),
		PeerFetchMisses: f.fetchMisses.Load(),
		PeerFetchErrors: f.fetchErrors.Load(),
		GossipRounds:    f.gossipRounds.Load(),
		GossipErrors:    f.gossipErrors.Load(),
		Peers:           f.Peers(),
	}
	for _, v := range st.Peers {
		switch v.State {
		case "alive":
			st.PeersAlive++
		case "dead":
			st.PeersDead++
		}
	}
	return st
}
