package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"
)

// servedOp is what the client kept of one timed /v1/run answer.
type servedOp struct {
	spec   int
	status int
	rung   string
	ms     float64 // client latency
	stages map[string]float64
	hash   [32]byte // body hash (200 only)
	etag   string
	err    error
}

// serveZipf runs serve-zipf: populate a seeded share of the spec
// universe across two nodes, then, rep after rep, restart the fleet on
// a pristine copy of the populated data dirs (each restart is set-up)
// and drive the same closed loop of zipfian /v1/run requests at seeded
// nodes.
func serveZipf(e *env) (*outcome, error) {
	cfg := e.p.ServeZipf
	conns := min(cfg.Connections, runtime.NumCPU())
	uni := buildUniverse(cfg.Universe)
	reps := repCount(cfg.OpsPerSecond, e.seconds, cfg.RepOps)
	nOps := cfg.RepOps
	plan := planServe(e.seed, len(uni), cfg.Universe.stratum(), cfg.Nodes, conns, nOps, cfg.ZipfSkew,
		cfg.RespelledShare, cfg.ConditionalShare, cfg.PopulateShare)

	hc := newClient(conns)
	ports := make([]int, cfg.Nodes)
	for i := range ports {
		p, err := freePort()
		if err != nil {
			return nil, err
		}
		ports[i] = p
	}
	// pop computes the populate share on standalone nodes (no peer
	// round trips); f is the fleet the reps run, on copies of their dirs.
	pop, f := &fleet{hc: hc}, &fleet{hc: hc}
	pristine := make([]string, cfg.Nodes)
	dirs := make([]string, cfg.Nodes)
	for i := range ports {
		pristine[i] = filepath.Join(e.work, fmt.Sprintf("pristine%d", i))
		dirs[i] = filepath.Join(e.work, fmt.Sprintf("node%d", i))
		var peers []string
		for j, p := range ports {
			if j != i {
				peers = append(peers, fmt.Sprintf("n%d=http://127.0.0.1:%d", j, p))
			}
		}
		addr := fmt.Sprintf("127.0.0.1:%d", ports[i])
		pop.nodes = append(pop.nodes, &daemon{bin: e.bin, addr: addr, args: []string{"-data-dir", pristine[i]}})
		f.nodes = append(f.nodes, &daemon{bin: e.bin, addr: addr, args: []string{
			"-data-dir", dirs[i], "-node-id", fmt.Sprintf("n%d", i),
			"-peers", strings.Join(peers, ","), "-advertise", "http://" + addr}})
	}
	defer pop.kill()
	defer f.kill()

	// Populate through /v1/run, so the frames carry the pre-marshaled
	// response a later L2 hit serves.
	clock := time.Now()
	if _, err := pop.start(); err != nil {
		return nil, err
	}
	populated := 0
	for n, idx := range plan.Populate {
		populated += len(idx)
		if err := parallel(conns, len(idx), func(k int) error {
			c, err := do(hc, http.MethodPost, pop.nodes[n].url()+"/v1/run", canonicalBody(uni[idx[k]]), "")
			if err == nil && c.status != http.StatusOK {
				err = fmt.Errorf("populate answered %d: %s", c.status, c.body)
			}
			return err
		}); err != nil {
			return nil, err
		}
	}
	if err := pop.stop(); err != nil {
		return nil, err
	}
	fmt.Fprintf(e.log, "serve-zipf: universe %d specs, populated %d, %d reps of %d ops on %d connections\n",
		len(uni), populated, reps, nOps, conns)
	e.phase("populate", &clock)

	o := &outcome{}
	L := map[string]float64{}
	if e.tr != nil {
		// The store scan and chain verification every restart pays.
		var so, po []float64
		for _, d := range pristine {
			s, p, err := openMs(d, cfg.OpenRepeats)
			if err != nil {
				return nil, err
			}
			so, po = append(so, s), append(po, p)
		}
		L["store.open_ms"], L["provenance.open_ms"] = mean(so), mean(po)
	}

	// Bodies are built before the clock starts; the timed loop only
	// sends them.
	bodies := make([][][]byte, conns)
	for c, ops := range plan.Conns {
		for _, op := range ops {
			b := canonicalBody(uni[op.Spec])
			if op.Variant != 0 {
				b = respelledBody(uni[op.Spec], op.Variant)
			}
			bodies[c] = append(bodies[c], b)
		}
	}

	var all []servedOp
	var before, after []map[string]float64
	var selfUsed, wall time.Duration
	workers := 0
	for r := 0; r < reps; r++ {
		for i := range dirs {
			if err := os.RemoveAll(dirs[i]); err != nil {
				return nil, err
			}
			if err := copyTree(pristine[i], dirs[i]); err != nil {
				return nil, err
			}
		}
		// Write the copies (and the last rep's deletions) back now, not
		// in the middle of this rep's timing.
		syscall.Sync()
		restarts := 1
		if r == 0 {
			restarts = cfg.SetupRepeats
		}
		for k := 0; k < restarts; k++ {
			d, err := f.start()
			if err != nil {
				return nil, err
			}
			o.setup = append(o.setup, d.Seconds())
			if k < restarts-1 {
				if err := f.stop(); err != nil {
					return nil, err
				}
			}
		}
		if r == 0 {
			var err error
			if workers, err = f.sweepWorkers(); err != nil {
				return nil, err
			}
		}

		b, err := f.scrape()
		if err != nil {
			return nil, err
		}
		cpu0, err := f.cpu()
		if err != nil {
			return nil, err
		}
		self0, steal0 := selfCPU(), stealTicks()
		served, repWall, err := runServeLoop(e.tr, hc, f, plan, bodies)
		if err != nil {
			return nil, err
		}
		rp := rep{wall: repWall, steal: stealTicks() - steal0}
		selfUsed += selfCPU() - self0
		cpu1, err := f.cpu()
		if err != nil {
			return nil, err
		}
		rp.cpu = cpu1 - cpu0
		if rp.rss, err = f.rss(); err != nil {
			return nil, err
		}
		a, err := f.scrape()
		if err != nil {
			return nil, err
		}
		before, after = append(before, b...), append(after, a...)
		all = append(all, served...)
		wall += rp.wall
		o.reps = append(o.reps, rp)

		if e.tr != nil && r == reps-1 {
			if L["cluster.fetch_hit_ms"], L["cluster.fetch_miss_ms"], err = fetchSample(e, f, uni, plan); err != nil {
				o.fail("serve-zipf: %v", err)
			}
		}
		if err := f.stop(); err != nil {
			return nil, err
		}
	}
	e.phase("reps", &clock)

	// Correctness: every distinct answer against a cold in-process
	// server, every 304 against its spec's ETag.
	want, err := referenceRuns(all, uni)
	if err != nil {
		return nil, err
	}
	for i, s := range all {
		lat := s.ms
		bad := ""
		switch {
		case s.err != nil:
			bad = s.err.Error()
		case s.status != http.StatusOK && s.status != http.StatusNotModified:
			bad = fmt.Sprintf("status %d", s.status)
		case s.etag != want[s.spec].etag:
			bad = fmt.Sprintf("%d carries ETag %s, want %s", s.status, s.etag, want[s.spec].etag)
		case s.status == http.StatusOK && s.hash != want[s.spec].hash:
			bad = "body differs from the cold in-process answer"
		}
		r := &o.reps[i/nOps]
		if bad != "" {
			r.failed++
			lat = math.Inf(1)
			o.fail("serve-zipf spec %d: %s", s.spec, bad)
		}
		r.lats = append(r.lats, lat)
	}
	e.phase("verify", &clock)

	if e.tr == nil {
		return o, nil
	}
	ops := float64(len(all))
	serverLayers(L, all, ops)
	daemonLayers(e.log, L, before, after, after[len(after)-cfg.Nodes:], ops, wall, workers*cfg.Nodes)
	L["bench.cpu_ms_per_op"] = float64(selfUsed.Nanoseconds()) / 1e6 / ops
	var reqs []runReq
	for _, k := range slices.Sorted(maps.Keys(want)) {
		reqs = append(reqs, uni[k])
	}
	L["graph.build_ms"] = graphBuildMs(reqs, e.seed, cfg.GraphSamples)
	if L["store.write_ms"], err = storeWriteMs(filepath.Join(e.work, "write"), reqs, e.seed, cfg.WriteSamples); err != nil {
		return nil, err
	}
	o.layer = L
	return o, nil
}

// runServeLoop drives one rep's closed loop: each connection sends its
// op list in order, one request at a time. It returns the answers in
// connection order and the rep's wall time, which ends once the nodes
// have persisted the writes the rep queued.
func runServeLoop(tr *tracer, hc *http.Client, f *fleet, plan servePlan, bodies [][][]byte) ([]servedOp, time.Duration, error) {
	served := make([][]servedOp, len(plan.Conns))
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := range plan.Conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			etags := map[int]string{}
			out := make([]servedOp, 0, len(plan.Conns[c]))
			for k, op := range plan.Conns[c] {
				inm := ""
				if op.Conditional {
					inm = etags[op.Spec]
				}
				call, err := do(hc, http.MethodPost, f.nodes[op.Node].url()+"/v1/run", bodies[c][k], inm)
				so := servedOp{spec: op.Spec, status: call.status, ms: call.ms(), etag: call.etag, err: err}
				if err == nil {
					so.stages, so.err = parseServerTiming(call.timing)
				}
				if so.err == nil {
					so.rung, so.err = classifyRung(call.status, so.stages)
				}
				if so.err == nil && call.status == http.StatusOK {
					so.hash = sha256.Sum256(call.body)
					etags[op.Spec] = call.etag
				}
				if err == nil {
					traceCall(tr, "http.run", call, so.stages)
				}
				out = append(out, so)
			}
			served[c] = out
		}(c)
	}
	wg.Wait()
	if err := f.flush(); err != nil {
		return nil, 0, err
	}
	wall := time.Since(t0)
	var all []servedOp
	for _, s := range served {
		all = append(all, s...)
	}
	return all, wall, nil
}

// fetchSample times peer fetches from a fabric of the harness's own
// against the live nodes: addresses a node holds, and addresses no
// node ever computed (the same points at a sequence length the
// universe never uses).
func fetchSample(e *env, f *fleet, uni []runReq, plan servePlan) (hitMs, missMs float64, err error) {
	cfg := e.p.ServeZipf
	rng := newRNG(e.seed, streamFetch)
	var held, absent []string
	for n := range plan.Populate {
		idx := plan.Populate[n]
		for _, k := range sample(rng, cfg.FetchSamples/(2*cfg.Nodes), len(idx)) {
			a, err := uni[idx[k]].address()
			if err != nil {
				return 0, 0, err
			}
			held = append(held, a)
		}
	}
	for _, k := range sample(rng, cfg.FetchSamples/2, len(uni)) {
		r := uni[k]
		r.Seq = 512
		a, err := r.address()
		if err != nil {
			return 0, 0, err
		}
		absent = append(absent, a)
	}
	return fetchMs(f.urls(), held, absent)
}

// refAnswer is the cold in-process answer to one spec.
type refAnswer struct {
	hash [32]byte
	etag string
}

// referenceRuns answers every distinct spec the daemons answered, cold
// and in-process.
func referenceRuns(all []servedOp, uni []runReq) (map[int]refAnswer, error) {
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	defer ref.close()
	want := map[int]refAnswer{}
	for _, s := range all {
		want[s.spec] = refAnswer{}
	}
	for _, k := range slices.Sorted(maps.Keys(want)) {
		body, etag, err := ref.post("/v1/run", canonicalBody(uni[k]))
		if err != nil {
			return nil, err
		}
		want[k] = refAnswer{hash: sha256.Sum256(body), etag: etag}
	}
	return want, nil
}

// traceCall records one client span and the server's stages as its
// children. Server-Timing carries durations, not offsets: the server
// span is centred in the client span (transport split evenly) and its
// stages are laid end to end inside it in Server-Timing order.
func traceCall(tr *tracer, name string, c call, stages map[string]float64) {
	if tr == nil {
		return
	}
	op := tr.id()
	tr.record(op, op, 0, name, c.start, c.end)
	total, ok := stages["total"]
	if !ok {
		return
	}
	td := time.Duration(total * 1e6)
	gap := (c.end.Sub(c.start) - td) / 2
	sStart := c.start.Add(max(0, gap))
	sid := tr.add(op, op, "server.total", sStart, sStart.Add(td))
	at := sStart
	for _, st := range serverStages[:len(serverStages)-1] {
		if d, ok := stages[st]; ok {
			dd := time.Duration(d * 1e6)
			tr.add(op, sid, "server."+st, at, at.Add(dd))
			at = at.Add(dd)
		}
	}
}

// serverLayers derives the server, store-read and harness transport
// metrics from the client's per-op view.
func serverLayers(L map[string]float64, all []servedOp, ops float64) {
	byRung := map[string][]float64{}
	stageSum := map[string]float64{}
	stageN := map[string]float64{}
	var transport []float64
	for _, s := range all {
		if s.err != nil {
			continue
		}
		total := s.stages["total"]
		byRung[s.rung] = append(byRung[s.rung], total)
		for st, d := range s.stages {
			stageSum[st] += d
			stageN[st]++
		}
		transport = append(transport, s.ms-total)
	}
	for _, r := range rungs {
		L["server.rung_share."+r] = float64(len(byRung[r])) / ops
		if len(byRung[r]) > 0 {
			L["server.rung_ms."+r] = median(byRung[r])
		}
	}
	for _, st := range []string{"decode", "render", "admission"} {
		L["server."+st+"_ms"] = share(stageSum[st], stageN[st])
	}
	L["store.read_ms"] = share(stageSum["store_read"], stageN["store_read"])
	L["bench.transport_ms"] = mean(transport)
}

// daemonLayers derives the counter metrics from /metrics scraped at the
// timed phase's boundaries.
// before and after hold one snapshot per node per rep; last is the
// final rep's, for gauges.
func daemonLayers(log io.Writer, L map[string]float64, before, after, last []map[string]float64, ops float64, wall time.Duration, workers int) {
	var simSec float64
	for _, p := range []string{"wse", "rdu", "ipu", "gpu"} {
		c := fmt.Sprintf(`dabench_pipeline_stage_seconds_%%s{platform=%q,stage="compile"}`, p)
		r := fmt.Sprintf(`dabench_pipeline_stage_seconds_%%s{platform=%q,stage="run"}`, p)
		L[p+".compiles"] = delta(before, after, fmt.Sprintf(c, "count")) / ops
		L[p+".compile_ms"] = delta(before, after, fmt.Sprintf(c, "sum")) * 1e3 / ops
		L[p+".run_ms"] = delta(before, after, fmt.Sprintf(r, "sum")) * 1e3 / ops
		simSec += delta(before, after, fmt.Sprintf(c, "sum")) + delta(before, after, fmt.Sprintf(r, "sum"))
	}
	L["sweep.busy_share"] = simSec / (wall.Seconds() * float64(workers))
	if simSec == 0 && delta(before, after, `dabench_cache_misses_total{tier="compile"}`) > 0 {
		fmt.Fprintln(log, "perfbench: dabenchd's pipeline stage histograms stayed empty through real compiles; the simulator layers read 0 on this workload")
	}
	tier := func(kind, t string) float64 {
		return delta(before, after, fmt.Sprintf(`dabench_cache_%s_total{tier=%q}`, kind, t))
	}
	L["graph.builds"], L["graph.hits"] = tier("misses", "graph"), tier("hits", "graph")
	L["platform.compile_hits"], L["platform.compile_misses"] = tier("hits", "compile"), tier("misses", "compile")
	L["platform.run_hits"], L["platform.run_misses"] = tier("hits", "run"), tier("misses", "run")
	L["platform.compile_hit_share"] = share(L["platform.compile_hits"], L["platform.compile_hits"]+L["platform.compile_misses"])
	L["server.rejected"] = delta(before, after, "dabench_requests_rejected_total")
	L["memo.l0_evictions"] = delta(before, after, "dabench_resp_cache_evictions_total")
	L["memo.l0_bytes"] = gauge(last, "dabench_resp_cache_bytes") / (1 << 20)
	L["store.raw_hits"] = delta(before, after, "dabench_store_raw_hits_total")
	L["store.raw_misses"] = delta(before, after, "dabench_store_raw_misses_total")
	L["store.puts"] = delta(before, after, "dabench_store_puts_total")
	L["store.evictions"] = delta(before, after, "dabench_store_evictions_total")
	L["provenance.records"] = gauge(last, "dabench_provenance_records")
	L["cluster.fetch_hits"] = delta(before, after, "dabench_peer_fetch_hits_total")
	L["cluster.fetch_misses"] = delta(before, after, "dabench_peer_fetch_misses_total")
	L["cluster.fetch_errors"] = delta(before, after, "dabench_peer_fetch_errors_total")
	L["cluster.adoptions"] = delta(before, after, "dabench_peer_adoptions_total")
	L["cluster.fetch_hit_share"] = share(L["cluster.fetch_hits"], L["cluster.fetch_hits"]+L["cluster.fetch_misses"])
	L["jobs.chunk_retries"] = delta(before, after, "dabench_job_chunk_retries_total")
}

// parallel runs fn(0..n-1) on k goroutines, returning the first error.
func parallel(k, n int, fn func(int) error) error {
	var mu sync.Mutex
	var first error
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
