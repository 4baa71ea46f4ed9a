// Package server puts the cached compile/run pipeline behind a
// long-lived HTTP JSON API — the dabenchd daemon. Where the CLI dies
// with its process, the server's hot state (the graph and compile
// singleflight tiers behind experiments.SharedPlatform) amortizes
// across requests: identical specs coalesce to one compile whether
// they arrive concurrently or hours apart, and a warm experiment
// re-render costs cache lookups, not simulation.
//
// Endpoints (API.md has the full contract):
//
//	GET    /healthz               liveness plus per-component health
//	GET    /metrics               Prometheus exposition
//	GET    /v1/stats              per-tier cache counters + serving counters
//	POST   /v1/run                one compile+run of a TrainSpec-shaped request
//	POST   /v1/sweep              batch sweep (layer × batch × precision cross product)
//	GET    /v1/experiments        list paper artifact IDs
//	GET    /v1/experiments/{id}   rendered artifact (?format=text|csv|trace)
//	GET    /v1/scenarios          list the built-in scenario library
//	GET    /v1/scenarios/{name}   run one library scenario
//	POST   /v1/scenarios          run a posted scenario (an async job over the sweep budget)
//	POST   /v1/jobs               submit a sweep of any size as an async job
//	GET    /v1/jobs               list jobs
//	GET    /v1/jobs/{id}          one job's state and progress
//	GET    /v1/jobs/{id}/result   a finished job's document (?format=csv|table)
//	DELETE /v1/jobs/{id}          cancel a job
//	GET    /v1/provenance/{addr}  one stored result's lineage record
//	GET    /v1/gossip             this node's view, polled by its peers
//	GET    /v1/blobs/{addr}       one stored result frame, raw
//
// A heavy request leaves by one of two doors. An answer given before
// admission (an L0 hit, a 304, an L2 raw read) closes out through
// fastLane; anything else claims a slot through admit — a bounded semaphore sized off the
// sweep worker pool that answers 429 immediately instead of queueing
// unboundedly — and ends with release. There are five compute paths:
// run, sweep, experiment, scenario GET and scenario POST. Each admitted
// request runs under a deadline threaded through every sweep it fans
// out (/v1/sweep points, /v1/experiments runners), so a dropped client
// or a drain stops the worker pool instead of simulating into the
// void; /v1/run's single compile+run is the pipeline's atomic unit,
// with the deadline honored at its stage boundaries. Graceful drain is
// the caller's http.Server Shutdown: in-flight requests finish, new
// ones are refused.
package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"dabench/internal/cachestats"
	"dabench/internal/cluster"
	"dabench/internal/experiments"
	"dabench/internal/faults"
	"dabench/internal/jobs"
	"dabench/internal/memo"
	"dabench/internal/platform"
	"dabench/internal/provenance"
	"dabench/internal/scenario"
	"dabench/internal/store"
	"dabench/internal/sweep"
	"dabench/internal/telemetry"
	"dabench/internal/version"
)

// Config tunes one Server.
type Config struct {
	// MaxInFlight bounds concurrently admitted heavy requests
	// (run/sweep/experiments/scenarios). 0 means twice the sweep
	// worker pool: enough headroom for duplicate specs to coalesce in
	// the singleflight cells while the pool is busy, without unbounded
	// queueing.
	MaxInFlight int
	// RequestTimeout is the per-request deadline threaded into every
	// sweep (default 2m).
	RequestTimeout time.Duration
	// MaxSweepPoints caps one synchronous /v1/sweep request's cross
	// product (default 1024). A request's own budget may only lower
	// it; larger sweeps belong on POST /v1/jobs.
	MaxSweepPoints int

	// RespCacheBudget bounds the in-memory response-byte cache (L0) in
	// bytes: pre-marshaled bodies served without any JSON work on a
	// warm hit. 0 means the 32 MiB default; negative disables the tier
	// entirely (every warm request falls through to the memo tiers and
	// the store's raw path).
	RespCacheBudget int64

	// Store is the persistent result store behind /v1/run's byte lane:
	// a cold run persists its outcome and response bytes there as one
	// frame, and a repeat after a restart is served from it. Sweeps,
	// jobs and scenarios never touch it. Nil when serving RAM-only.
	Store *store.Store

	// JobsDir is the job journal/results directory; "" runs the job
	// subsystem ephemeral (full lifecycle, no restart durability).
	JobsDir string
	// MaxJobPoints caps one job's cross product (default 1<<20). Jobs
	// hold their full result in memory while accumulating, so this is
	// a memory bound, not a latency one.
	MaxJobPoints int

	// Injector is the optional fault injector: fired at the job
	// executor's chunk boundary, handed to the job journal, and snap-
	// shotted into /v1/stats. Nil injects nothing.
	Injector *faults.Injector

	// Provenance is the hash-linked blob lineage log GET
	// /v1/provenance/{addr} answers from (and /metrics gauges). Nil —
	// no data dir — disables the endpoint.
	Provenance *provenance.Log

	// Cluster is the multi-node fabric (nil = single node): gossip and
	// the cluster sections of /v1/stats, /metrics and /healthz. No
	// request path consults it: /v1/run reads only Store and recomputes
	// on a miss, and async jobs run every chunk on this node.
	Cluster *cluster.Fabric
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * sweep.DefaultWorkers()
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Minute
	}
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = 1024
	}
	if c.RespCacheBudget == 0 {
		c.RespCacheBudget = 32 << 20
	}
	if c.MaxJobPoints <= 0 {
		c.MaxJobPoints = 1 << 20
	}
	return c
}

// Stats is the /v1/stats payload: serving counters plus a snapshot of
// every cache tier the pipeline runs on, the persistent store's
// counters (when one is mounted) and the job manager's gauges.
type Stats struct {
	InFlight     int64                          `json:"in_flight"`
	Served       int64                          `json:"served"`
	Rejected     int64                          `json:"rejected"`
	MaxInFlight  int                            `json:"max_in_flight"`
	SweepWorkers int                            `json:"sweep_workers"`
	UptimeSec    float64                        `json:"uptime_sec"`
	Version      string                         `json:"version"`
	Caches       map[string]cachestats.Snapshot `json:"caches"`
	// RespCache is the L0 response-byte tier's counters (absent when
	// the tier is disabled); NotModified counts 304 fast-lane answers.
	RespCache   *cachestats.ByteSnapshot `json:"resp_cache,omitempty"`
	NotModified int64                    `json:"not_modified"`
	Store       *store.Stats             `json:"store,omitempty"`
	Jobs        *jobs.Gauges             `json:"jobs,omitempty"`
	// Faults is the fault injector's fire counts when one is mounted.
	Faults *faults.Stats `json:"faults,omitempty"`
	// Cluster is the fabric's snapshot (absent on a single node):
	// peer liveness views and FetchFrame counters (0 on a serving
	// daemon).
	Cluster *cluster.Stats `json:"cluster,omitempty"`
}

// Server is the dabenchd HTTP handler. Create with New; the zero value
// is not usable.
type Server struct {
	cfg  Config
	mux  *http.ServeMux
	sem  chan struct{}
	jobs *jobs.Manager
	// scenarios is the built-in library's listing payload, resolved
	// once at construction (the library is immutable).
	scenarios []scenarioInfo

	// resp is the L0 response-byte cache (nil when disabled).
	resp *memo.ByteLRU[string, *respEntry]

	// reg is the /metrics registry; stageHist the pre-resolved
	// (endpoint, stage) histogram grid (nil cells are stages that
	// endpoint never records); pipeHist the per-platform simulator-work
	// histograms fed by the platform stage hook.
	reg       *telemetry.Registry
	stageHist [nEndpoints][nStages]*telemetry.Histogram
	pipeHist  map[string]*telemetry.Histogram

	// fabric is the attached cluster fabric (nil single-node); an
	// atomic pointer so tests can attach one after their httptest
	// servers exist (peer URLs are unknowable before Listen).
	fabric atomic.Pointer[cluster.Fabric]

	inFlight    atomic.Int64
	served      atomic.Int64
	rejected    atomic.Int64
	notModified atomic.Int64
	start       time.Time
}

// New builds a Server over the process-wide cached platform set,
// opening (and, when JobsDir is set, replaying) the async job manager.
// Callers own Close.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		mux:   http.NewServeMux(),
		sem:   make(chan struct{}, cfg.MaxInFlight),
		start: time.Now(),
	}
	if cfg.RespCacheBudget > 0 {
		s.resp = memo.NewByteLRU[string, *respEntry](cfg.RespCacheBudget)
	}
	if cfg.Cluster != nil {
		s.SetCluster(cfg.Cluster)
	}
	s.initMetrics()
	jm, err := jobs.Open(jobs.Config{Dir: cfg.JobsDir, Run: s.runJob, Injector: cfg.Injector})
	if err != nil {
		return nil, err
	}
	s.jobs = jm
	if s.scenarios, err = libraryInfos(); err != nil {
		s.Close()
		return nil, err
	}
	// The pipeline stage hook is process-global, like the shared
	// platforms it observes; the last server constructed owns it, and
	// Close unmounts it. One daemon process runs one server, so the
	// global is only contended in tests.
	platform.SetStageHook(s.pipelineStage)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/provenance/{addr}", s.handleProvenance)
	// Cluster fabric endpoints (see cluster.go); registered even on a
	// single node so a fleet can form around a node that booted first.
	s.mux.HandleFunc("GET /v1/gossip", s.handleGossip)
	s.mux.HandleFunc("GET /v1/blobs/{addr}", s.handleBlob)
	// The warm-path endpoints manage admission inline: their ETag/304
	// and response-byte fast lanes answer repeat requests before ever
	// claiming a simulation slot, so only the compute path is gated.
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperimentList)
	s.mux.HandleFunc("GET /v1/experiments/{id}", s.handleExperiment)
	s.mux.HandleFunc("GET /v1/scenarios", s.handleScenarioList)
	s.mux.HandleFunc("GET /v1/scenarios/{name}", s.handleScenarioGet)
	// Scenario submission manages admission itself: a document under
	// the sync budget runs inline on an admission slot, a larger one
	// becomes an async job (submission is cheap, so it must not burn a
	// simulation slot or be shed while slots are busy).
	s.mux.HandleFunc("POST /v1/scenarios", s.handleScenarioSubmit)
	// Job endpoints skip the admission gate on purpose: submission and
	// observation are cheap, and the executor's background pool — not
	// the in-flight semaphore — is the bounded resource.
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	return s, nil
}

// Close stops the job manager (running jobs are interrupted; with a
// JobsDir they revive on the next boot) and unmounts the stage hook.
// The HTTP listener's drain is the caller's http.Server.Shutdown, done
// before this.
func (s *Server) Close() {
	platform.SetStageHook(nil)
	s.jobs.Close()
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// admit claims one admission slot for a compute path, answering 429
// (with a load-derived Retry-After) when every slot is busy — shedding
// load beats queueing it when every slot is a full simulation sweep. On
// success it records the admission wait and returns the request's
// deadline context; the caller must defer release(cancel).
func (s *Server) admit(w http.ResponseWriter, r *http.Request, st *stageTimer) (context.Context, context.CancelFunc, bool) {
	t := time.Now()
	select {
	case s.sem <- struct{}{}:
		s.inFlight.Add(1)
	default:
		s.rejected.Add(1)
		// The backoff signal is all the work already queued ahead of a
		// retry: the busy admission slots plus the async job backlog
		// draining on the same simulation cores (in-flight alone is
		// capped at the slot count and could never scale the advice).
		// Queued is one atomic load — the shed path stays O(1) under a
		// saturation storm.
		s.setRetryAfter(w, int(s.inFlight.Load())+int(s.jobs.Queued()))
		writeError(w, http.StatusTooManyRequests, CodeSaturated,
			"all "+strconv.Itoa(cap(s.sem))+" simulation slots are busy; retry shortly")
		return nil, nil, false
	}
	st.observe(stgAdmission, time.Since(t))
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	return ctx, cancel, true
}

// release ends an admitted request: it cancels the deadline, frees the
// slot and counts the response served, whatever its status.
func (s *Server) release(cancel context.CancelFunc) {
	cancel()
	s.inFlight.Add(-1)
	<-s.sem
	s.served.Add(1)
}

// retryAfterSecs derives a Retry-After hint from the amount of work
// already waiting: one second when lightly loaded, plus one second per
// full admission pool's worth of queued depth, clamped to a minute.
// Both 429 sites (the admission gate and the job queue) derive their
// header from this one function, so clients see consistent backoff
// advice that scales with actual pressure instead of a hardcoded
// constant.
func retryAfterSecs(depth, slots int) int {
	if slots < 1 {
		slots = 1
	}
	if depth < 0 {
		depth = 0
	}
	secs := 1 + depth/slots
	if secs > 60 {
		secs = 60
	}
	return secs
}

// setRetryAfter stamps the Retry-After header for a 429 given the
// current queued-work depth.
func (s *Server) setRetryAfter(w http.ResponseWriter, depth int) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs(depth, cap(s.sem))))
}

// componentHealth is one subsystem's entry in the /healthz body.
type componentHealth struct {
	Status string `json:"status"` // ok | degraded | disabled
	Detail string `json:"detail,omitempty"`
}

// healthResponse is the multi-state /healthz body. The HTTP status is
// always 200 while the process serves — degradation is a body-level
// fact, because a degraded daemon still answers every request (the
// store and journal are optimization/durability tiers, not correctness
// dependencies). Orchestrators that only check the status code see
// liveness; ones that parse the body see the difference.
type healthResponse struct {
	Status     string                     `json:"status"` // ok | degraded
	Components map[string]componentHealth `json:"components"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := healthResponse{Status: "ok", Components: map[string]componentHealth{}}

	storeHealth := componentHealth{Status: "disabled", Detail: "serving RAM-only (no -data-dir)"}
	if s.cfg.Store != nil {
		storeHealth = componentHealth{Status: "ok"}
		if s.cfg.Store.Degraded() {
			storeHealth = componentHealth{Status: "degraded",
				Detail: "a circuit breaker is open; serving from memo tiers and recompute"}
		}
	}
	resp.Components["store"] = storeHealth

	gauges := s.jobs.Stats()
	journalHealth := componentHealth{Status: "disabled", Detail: "ephemeral job manager (no journal)"}
	if gauges.Journal != nil {
		journalHealth = componentHealth{Status: "ok"}
		if gauges.Journal.Degraded {
			journalHealth = componentHealth{Status: "degraded",
				Detail: "journal writes failing; job state is in-memory only"}
		}
	}
	resp.Components["journal"] = journalHealth

	// The cluster component only exists with a fabric attached; a
	// single-node /healthz body is unchanged. Dead peers degrade this
	// node's health honestly, though it still serves everything itself.
	if cs := s.cluster().Stats(); cs != nil {
		clusterHealth := componentHealth{Status: "ok",
			Detail: strconv.Itoa(cs.PeersAlive) + "/" + strconv.Itoa(len(cs.Peers)) + " peers alive"}
		if cs.PeersDead > 0 {
			clusterHealth.Status = "degraded"
			clusterHealth.Detail = strconv.Itoa(cs.PeersDead) + " peer(s) unreachable"
		}
		resp.Components["cluster"] = clusterHealth
	}

	for _, c := range resp.Components {
		if c.Status == "degraded" {
			resp.Status = "degraded"
			break
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := Stats{
		InFlight:     s.inFlight.Load(),
		Served:       s.served.Load(),
		Rejected:     s.rejected.Load(),
		MaxInFlight:  cap(s.sem),
		SweepWorkers: sweep.DefaultWorkers(),
		UptimeSec:    time.Since(s.start).Seconds(),
		Version:      version.Version,
		Caches: map[string]cachestats.Snapshot{
			"compile": experiments.CacheStats().Snapshot(),
			"graph":   experiments.GraphCacheStats().Snapshot(),
		},
	}
	if s.resp != nil {
		snap := s.resp.Stats().Snapshot()
		st.RespCache = &snap
	}
	st.NotModified = s.notModified.Load()
	if s.cfg.Store != nil {
		snap := s.cfg.Store.Stats()
		st.Store = &snap
	}
	gauges := s.jobs.Stats()
	st.Jobs = &gauges
	st.Faults = s.cfg.Injector.Stats()
	st.Cluster = s.cluster().Stats()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	st := newStageTimer(epRun)
	bb, body, err := readBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	defer putBodyBuf(bb)
	inm := r.Header.Get("If-None-Match")

	// L0 by request bytes: the verbatim body is itself a cache key, so
	// a repeat POST is answered before any JSON work — no decode, no
	// resolve, no spec hashing, zero allocations. Valid JSON never
	// contains a raw NUL byte while every canonical L0 key namespace
	// embeds one, so a NUL-free body can only hit entries this lane
	// installed (each recorded after its body decoded successfully).
	bodyKeyed := s.resp != nil && bb != nil && bytes.IndexByte(body, 0) < 0
	if bodyKeyed {
		if e, ok := memo.LookupBytes(s.resp, body); ok {
			s.serveHit(w, &st, e, inm)
			return
		}
	}

	var req RunRequest
	if bb != nil {
		err = decodeBody(bb, body, &req)
	} else {
		err = decode(w, r, &req)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	p, spec, err := req.resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	key := spec.Key()
	st.observe(stgDecode, time.Since(st.t0))

	// alias installs a served entry under the verbatim body bytes, so
	// the next identical POST takes the zero-decode lane above. The
	// entry is shared with its canonical key; only the key is copied.
	alias := func(e *respEntry) {
		if bodyKeyed && e != nil {
			s.resp.Put(string(body), e, int64(len(body))+respEntryOverhead)
		}
	}

	// L0 by canonical key: catches the same spec spelled as different
	// JSON (field order, defaults made explicit). The entry carries its
	// own ETag, so a conditional hit answers 304 without a hash.
	if s.resp != nil {
		if e, ok := s.resp.Get(runRespKey(p.Name(), key)); ok {
			alias(e)
			s.serveHit(w, &st, e, inm)
			return
		}
	}

	// The ETag is the request's identity, not the response's bytes —
	// computable without running anything, which is what lets a 304
	// skip both the admission gate and the pipeline. A client can only
	// hold a matching tag from a prior 200 of this same identity.
	etag := runETag(p.Name(), key)
	if s.conditional(w, &st, inm, etag) {
		return
	}

	// L2 raw: the local store's pre-marshaled response section —
	// servable bytes with zero JSON work, refilling L0 on the way out.
	// A miss goes straight to compute, fleet or not: no peer round trip
	// is cheaper than recomputing.
	if s.cfg.Store != nil {
		t := time.Now()
		raw, ok := s.cfg.Store.LoadRaw(p.Name(), key)
		st.observe(stgStoreRead, time.Since(t))
		if ok {
			s.fastLane(w, &st)
			alias(s.cacheAndServe(w, runRespKey(p.Name(), key), etag, ctJSON, raw))
			return
		}
	}

	ctx, cancel, ok := s.admit(w, r, &st)
	if !ok {
		return
	}
	defer s.release(cancel)
	alias(s.runSlow(w, r.WithContext(ctx), p, spec, etag, &st))
}

// runSlow is /v1/run's compute path: one compile+run under the request
// deadline. A single Compile/Run pair is the pipeline's atomic unit —
// the Platform interface is context-free by design (simulators are
// pure functions, milliseconds each), so the deadline is honored at
// the stage boundaries instead. Returns the cached entry it served, or
// nil on error paths (nothing cacheable was produced).
func (s *Server) runSlow(w http.ResponseWriter, r *http.Request, p platform.CachedPlatform, spec platform.TrainSpec, etag string, st *stageTimer) *respEntry {
	if err := r.Context().Err(); err != nil {
		s.writeRunError(w, err)
		return nil
	}
	t := time.Now()
	cr, err := p.Compile(spec)
	st.observe(stgCompile, time.Since(t))
	if err != nil {
		if ce, ok := err.(*platform.CompileError); ok {
			// A placement failure is a finding — the paper's "Fail"
			// entries — not a request error, and it is as cacheable as
			// a success (the store persists it as a Failed blob).
			res := result(p, spec, nil, nil)
			res.Failed, res.FailReason = true, err.Error()
			return s.finishRun(w, p.Name(), etag, res, platform.Stored{Failed: true, FailReason: ce.Reason}, st)
		}
		// The simulators validate their inputs in Compile; anything
		// that is neither placement nor validation would have failed
		// spec.Validate above.
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return nil
	}
	if err := r.Context().Err(); err != nil {
		s.writeRunError(w, err)
		return nil
	}
	t = time.Now()
	rr, err := p.Run(cr)
	st.observe(stgRun, time.Since(t))
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return nil
	}
	return s.finishRun(w, p.Name(), etag, result(p, spec, cr, rr), platform.Stored{Compile: cr, Run: rr}, st)
}

// finishRun marshals a run outcome exactly once and fans the bytes out
// to every tier: the client, the L0 response cache, and the store,
// where out and the bytes persist as one write-behind frame so the
// next process boots with a byte-warm path. Returns the entry it
// served (nil if encoding failed).
func (s *Server) finishRun(w http.ResponseWriter, platformName, etag string, res RunResult, out platform.Stored, st *stageTimer) *respEntry {
	t := time.Now()
	body, err := marshalJSON(res)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return nil
	}
	st.observe(stgRender, time.Since(t))
	if s.cfg.Store != nil {
		// The framing and enqueue, not the disk write — the store is
		// write-behind, so this is the full store cost the request path
		// pays.
		t = time.Now()
		s.cfg.Store.StoreWithResponse(platformName, res.SpecKey, out, body)
		st.observe(stgStoreWrite, time.Since(t))
	}
	s.finishStages(w, st)
	return s.cacheAndServe(w, runRespKey(platformName, res.SpecKey), etag, ctJSON, body)
}

// SweepResponse is the /v1/sweep payload; Results follows the
// deterministic layer-major point order.
type SweepResponse struct {
	Platform string      `json:"platform"`
	Points   int         `json:"points"`
	Failed   int         `json:"failed"`
	Results  []RunResult `json:"results"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	st := newStageTimer(epSweep)
	var req SweepRequest
	if err := decodeLean(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	p, pts, err := req.syncGrid(s.cfg.MaxSweepPoints)
	if err != nil {
		var be *BudgetError
		if errors.As(err, &be) {
			// Over-budget rejection happens before admission: refusing
			// work must never queue behind work.
			writeBudgetError(w, be)
			return
		}
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	// Decode covers the body read through the grid's resolution —
	// everything before the serve/compute decision.
	st.observe(stgDecode, time.Since(st.t0))

	// The ETag pins (pipeline version, platform, ordered point keys) —
	// the whole response identity — so a revalidation is answered 304
	// before admission. Bodies stay out of L0: no client repeats a
	// sweep unconditionally, and the 304 needs no entry.
	etag := sweepETag(p.Name(), pts)
	if s.conditional(w, &st, r.Header.Get("If-None-Match"), etag) {
		return
	}

	ctx, cancel, ok := s.admit(w, r, &st)
	if !ok {
		return
	}
	defer s.release(cancel)

	t := time.Now()
	resp, err := s.sweepDocument(ctx, p, pts, 0, nil)
	st.observe(stgRun, time.Since(t))
	if err != nil {
		s.writePointError(w, err)
		return
	}

	t = time.Now()
	buf, err := encodeJSON(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	st.observe(stgRender, time.Since(t))
	s.finishStages(w, &st)
	writeBody(w, etag, ctJSON, buf.Bytes())
	putBuf(buf)
}

// sweepDocument runs every point of pts on p and assembles the sweep
// document in the deterministic layer-major point order: the one body
// a /v1/sweep answers and a /v1/jobs job stores, so the two are
// byte-identical by construction. A job passes its pool width and
// progress beat; it then runs in scenario.ChunkSize chunks, firing the
// chunk.run fault op before each and beating after, so it holds at
// most one chunk of outcomes beside its results. A synchronous sweep
// passes 0 and nil and runs whole on the default pool. Placement
// failures are failed points; any other error fails the document: the
// simulators are pure functions of the spec, so a rerun would fail the
// same way.
func (s *Server) sweepDocument(ctx context.Context, p platform.CachedPlatform, pts *scenario.Points, workers int, progress func(done, failed int)) (SweepResponse, error) {
	n := int(pts.Size())
	resp := SweepResponse{Platform: p.Name(), Points: n, Results: make([]RunResult, 0, n)}
	chunk := n
	var opts []sweep.Option
	if workers > 0 {
		opts = append(opts, sweep.Workers(workers))
	}
	if progress != nil {
		chunk = scenario.ChunkSize
	}
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		if progress != nil {
			if err := s.cfg.Injector.Fire(ctx, faults.OpChunkRun); err != nil {
				return resp, err
			}
		}
		outs, err := sweep.MapN(ctx, hi-lo, func(_ context.Context, i int) (RunResult, error) {
			spec := pts.Spec(lo + i)
			cr, err := p.Compile(spec)
			if err != nil {
				return RunResult{}, err // MapN tolerates placement failures
			}
			rr, err := p.Run(cr)
			if err != nil {
				return RunResult{}, err
			}
			return result(p, spec, cr, rr), nil
		}, opts...)
		if err != nil {
			return resp, err
		}
		for i, o := range outs {
			res := o.Value
			if o.Failed() {
				res = result(p, pts.Spec(lo+i), nil, nil)
				res.Failed, res.FailReason = true, o.Err.Error()
				resp.Failed++
			}
			res.Label = pts.Label(lo + i)
			resp.Results = append(resp.Results, res)
		}
		if progress != nil {
			progress(hi, resp.Failed)
		}
	}
	return resp, nil
}

// writeBudgetError answers an over-budget synchronous sweep: 429 with
// the structured envelope naming the cap and the requested size, plus
// the escape hatch for legitimate large sweeps.
func writeBudgetError(w http.ResponseWriter, be *BudgetError) {
	writeJSON(w, http.StatusTooManyRequests, errorEnvelope{Error: ErrorBody{
		Code:            CodeSweepTooLarge,
		Message:         be.Error(),
		Limit:           be.Budget,
		RequestedPoints: be.Points,
		Hint:            "submit large sweeps asynchronously via POST /v1/jobs",
	}})
}

func (s *Server) handleExperimentList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"experiments": experiments.IDs()})
}

// handleExperiment renders one paper artifact. Validation rejects
// answer before admission; the runner executes under the request's
// admission slot and deadline.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	st := newStageTimer(epExperiment)
	id := r.PathValue("id")
	runner, ok := experiments.All()[id]
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "unknown experiment "+strconv.Quote(id))
		return
	}
	format := r.URL.Query().Get("format")
	switch format {
	case "", "text", "csv", "trace":
	default:
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			"unknown format "+strconv.Quote(format)+" (valid: text, csv, trace)")
		return
	}

	ctx, cancel, ok := s.admit(w, r, &st)
	if !ok {
		return
	}
	defer s.release(cancel)

	t := time.Now()
	res, err := runner(ctx)
	st.observe(stgRun, time.Since(t))
	if err != nil {
		s.writeRunError(w, err)
		return
	}

	// The text and CSV bodies go through the same Render path as the
	// CLI's stdout, byte for byte — CI diffs the two.
	t = time.Now()
	buf, contentType, err := render(res.Tables, format, res.Trace)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	st.observe(stgRender, time.Since(t))
	s.finishStages(w, &st)
	writeBody(w, "", contentType, buf.Bytes())
	putBuf(buf)
}

// handleProvenance answers one blob's chain record: where a served
// result came from (platform, spec key, pipeline version) and where it
// sits in the tamper-evident chain. The address is exactly the
// unquoted ETag /v1/run returns for the same outcome.
func (s *Server) handleProvenance(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Provenance == nil {
		writeError(w, http.StatusNotFound, CodeNotFound,
			"no provenance log (the daemon is running without -data-dir)")
		return
	}
	addr := r.PathValue("addr")
	rec, ok := s.cfg.Provenance.Lookup(addr)
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound,
			"no provenance record for "+strconv.Quote(addr))
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// specRejected reports whether err, from compiling or running a point
// whose spec passed validation, rejects that spec. The simulators are
// pure functions of the spec, so an error that is not a placement
// failure (a finding), a poisoned memo cell or a context error is the
// request's fault and recurs on every attempt.
func specRejected(err error) bool {
	return !platform.IsCompileFailure(err) &&
		!errors.Is(err, memo.ErrPanicked) &&
		!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// writePointError answers a request whose points failed: a rejected
// spec is a 400 with the simulator's message, as /v1/run answers it;
// anything else maps as writeRunError does.
func (s *Server) writePointError(w http.ResponseWriter, err error) {
	if specRejected(err) {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	s.writeRunError(w, err)
}

// writeRunError maps a pipeline error to the wire: deadline → 504,
// client gone → nothing useful to send, anything else → 500.
func (s *Server) writeRunError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, CodeTimeout, "request deadline exceeded mid-sweep")
	case errors.Is(err, context.Canceled):
		// The client hung up; 499-style best effort.
		writeError(w, 499, CodeTimeout, "request canceled")
	default:
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
	}
}
