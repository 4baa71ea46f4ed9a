package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"dabench/internal/cluster"
	"dabench/internal/experiments"
	"dabench/internal/graph"
	"dabench/internal/platform"
	"dabench/internal/provenance"
	"dabench/internal/rdu"
	"dabench/internal/server"
	"dabench/internal/store"
)

// Direct calls the traced runs make into single layers, on each
// workload's own inputs, after its timed phase.

// graphBuildMs is the mean graph-build cost over a seeded sample of
// RDU points: a bare RDU Compile run twice after graph.ResetCache,
// where the first call builds the graph and the second hits the cache.
// Each pair is repeated and the medians are differenced.
func graphBuildMs(reqs []runReq, seed int64, samples int) float64 {
	var rduReqs []runReq
	for _, r := range reqs {
		if r.Platform == "rdu" {
			rduReqs = append(rduReqs, r)
		}
	}
	if len(rduReqs) == 0 {
		return 0
	}
	const reps = 3
	p := rdu.New()
	var sum float64
	var n int
	for _, i := range sample(newRNG(seed, streamGraph), samples, len(rduReqs)) {
		spec, err := rduReqs[i].spec()
		if err != nil {
			continue
		}
		var first, second []float64
		for r := 0; r < reps; r++ {
			graph.ResetCache()
			t0 := time.Now()
			_, err1 := p.Compile(spec)
			t1 := time.Now()
			_, err2 := p.Compile(spec)
			t2 := time.Now()
			if platform.IsCompileFailure(err1) || platform.IsCompileFailure(err2) {
				err1, err2 = nil, nil // placement failures still lower the graph
			}
			if err1 != nil || err2 != nil {
				break
			}
			first = append(first, float64(t1.Sub(t0).Nanoseconds())/1e6)
			second = append(second, float64(t2.Sub(t1).Nanoseconds())/1e6)
		}
		if len(first) == reps {
			sum += median(first) - median(second)
			n++
		}
	}
	graph.ResetCache()
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// storeWriteMs is the write side's cost per blob: a seeded sample of
// the workload's points computed in-process, then persisted through a
// fresh store wired to a provenance chain exactly as dabenchd wires
// them (marshal, write-behind persist, chain append), timed from the
// first Store call to the flush barrier.
func storeWriteMs(dir string, reqs []runReq, seed int64, samples int) (float64, error) {
	type item struct {
		plat, key string
		st        platform.Stored
	}
	var items []item
	for _, i := range sample(newRNG(seed, streamWrite), samples, len(reqs)) {
		r := reqs[i]
		spec, err := r.spec()
		if err != nil {
			return 0, err
		}
		p, ok := experiments.SharedPlatform(r.Platform)
		if !ok {
			return 0, fmt.Errorf("unknown platform %q", r.Platform)
		}
		cr, err := p.Compile(spec)
		if err != nil {
			if platform.IsCompileFailure(err) {
				items = append(items, item{p.Name(), spec.Key(), platform.Stored{Failed: true, FailReason: err.Error()}})
				continue
			}
			return 0, err
		}
		rr, err := p.Run(cr)
		if err != nil {
			return 0, err
		}
		items = append(items, item{p.Name(), spec.Key(), platform.Stored{Compile: cr, Run: rr}})
	}
	if len(items) == 0 {
		return 0, nil
	}
	prov, err := provenance.Open(filepath.Join(dir, "provenance.log"))
	if err != nil {
		return 0, err
	}
	defer prov.Close()
	st, err := store.OpenOptions(filepath.Join(dir, "store"), store.Options{
		OnWrite: func(ev store.WriteEvent) { prov.Append(ev.Addr, ev.Platform, ev.SpecKey, store.PipelineVersion) }})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	t0 := time.Now()
	for _, it := range items {
		st.Store(it.plat, it.key, it.st)
	}
	st.Snapshot()
	d := time.Since(t0)
	if got := st.Stats().Puts; got != int64(len(items)) {
		return 0, fmt.Errorf("store write sample: %d of %d blobs persisted", got, len(items))
	}
	return float64(d.Nanoseconds()) / 1e6 / float64(len(items)), nil
}

// openMs times store.Open and provenance.Open over a data directory
// (median of repeats), the scan and chain verification a restarting
// daemon does before its first 200.
func openMs(dataDir string, repeats int) (storeMs, provMs float64, err error) {
	var sv, pv []float64
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		st, err := store.Open(filepath.Join(dataDir, "store"), 0)
		if err != nil {
			return 0, 0, err
		}
		sv = append(sv, float64(time.Since(t0).Nanoseconds())/1e6)
		st.Close()
		t0 = time.Now()
		prov, err := provenance.Open(filepath.Join(dataDir, "provenance.log"))
		if err != nil {
			return 0, 0, err
		}
		pv = append(pv, float64(time.Since(t0).Nanoseconds())/1e6)
		if err := prov.Close(); err != nil {
			return 0, 0, err
		}
	}
	return median(sv), median(pv), nil
}

// copyTree copies a data directory (regular files only).
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// fetchMs times cluster.Fabric.FetchFrame from a fabric built against
// the live nodes: held addresses must come back, never-computed ones
// must not. Returns the median hit and miss latencies.
func fetchMs(urls []string, held, absent []string) (hitMs, missMs float64, err error) {
	var peers []cluster.PeerConfig
	for i, u := range urls {
		peers = append(peers, cluster.PeerConfig{ID: fmt.Sprintf("n%d", i), URL: u})
	}
	fab, err := cluster.New(cluster.Config{NodeID: "perfbench", Peers: peers, FetchTimeout: 5 * time.Second})
	if err != nil {
		return 0, 0, err
	}
	defer fab.Close()
	ctx := context.Background()
	var hits, misses []float64
	for _, a := range held {
		t0 := time.Now()
		_, _, ok := fab.FetchFrame(ctx, a)
		if !ok {
			return 0, 0, fmt.Errorf("peer fetch of held blob %s missed", a)
		}
		hits = append(hits, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	for _, a := range absent {
		t0 := time.Now()
		_, _, ok := fab.FetchFrame(ctx, a)
		if ok {
			return 0, 0, fmt.Errorf("peer fetch of never-computed blob %s hit", a)
		}
		misses = append(misses, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	if s := fab.Stats(); s.PeerFetchErrors > 0 {
		return 0, 0, fmt.Errorf("%d peer fetch errors", s.PeerFetchErrors)
	}
	return median(hits), median(misses), nil
}

// reference is the correctness oracle: a fresh in-process server.New
// over cold, RAM-only caches, answering the same requests the daemons
// answered.
type reference struct{ srv *server.Server }

func newReference() (*reference, error) {
	experiments.SetResultStore(nil)
	experiments.ResetCaches()
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	return &reference{srv: srv}, nil
}

func (r *reference) close() { r.srv.Close() }

// post serves one request in-process; the response must be 200.
func (r *reference) post(path string, body []byte) ([]byte, string, error) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	r.srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		return nil, "", fmt.Errorf("reference %s answered %d: %s", path, w.Code, w.Body.Bytes())
	}
	return w.Body.Bytes(), w.Header().Get("Etag"), nil
}
