package server

import (
	"net/http"
	"runtime"
	"time"

	"dabench/internal/experiments"
	"dabench/internal/platform"
	"dabench/internal/telemetry"
	"dabench/internal/version"
)

// GET /metrics — the Prometheus face of everything /v1/stats reports,
// plus the latency distributions JSON counters cannot carry. The
// registry owns only the stage histograms; every other series is
// folded in at scrape time by one collector reading the same sources
// /v1/stats reads, so the two surfaces can never disagree about a
// count. /v1/stats stays the JSON view for humans and for CI, which
// reads its fields by name with jq; fleets scrape this.
//
// Naming scheme: every series is dabench_<subsystem>_<what>[_total],
// seconds for durations, bytes for sizes; monotonic counts end in
// _total, point-in-time values are gauges. Multi-instance families
// discriminate by label (tier=, breaker=, state=) instead of minting
// per-instance names.

func lbl(name, value string) telemetry.Label {
	return telemetry.Label{Name: name, Value: value}
}

// initMetrics builds the registry: the full request-stage and
// pipeline-stage histogram grids (pre-created so the exposition shape
// is traffic-independent) plus the scrape-time collector.
func (s *Server) initMetrics() {
	s.reg = telemetry.NewRegistry()
	for ep := 0; ep < nEndpoints; ep++ {
		for _, stg := range endpointStages[ep] {
			s.stageHist[ep][stg] = s.reg.Histogram(
				"dabench_request_stage_seconds",
				"Per-request stage latency by endpoint (served responses only).",
				nil,
				lbl("endpoint", endpointNames[ep]), lbl("stage", stageNames[stg]))
		}
	}
	// The stage hook reports the simulator's Name() ("WSE-2", "RDU",
	// ...); the label keeps the canonical short name. PlatformNames are
	// SharedPlatform's own canonical names, so the lookup cannot miss.
	s.pipeHist = map[string]*telemetry.Histogram{}
	for _, pn := range experiments.PlatformNames() {
		p, _ := experiments.SharedPlatform(pn)
		for _, stg := range []string{platform.StageCompile, platform.StageRun} {
			s.pipeHist[p.Name()+"\x00"+stg] = s.reg.Histogram(
				"dabench_pipeline_stage_seconds",
				"Real simulator work by platform and stage (cache misses only).",
				nil,
				lbl("platform", pn), lbl("stage", stg))
		}
	}
	s.reg.RegisterCollector(s.collect)
}

// pipelineStage is the platform.SetStageHook target: it routes one
// real Compile/Run invocation into its platform histogram. The map is
// read-only after initMetrics, so the hook is lock-free.
func (s *Server) pipelineStage(platformName, stage string, d time.Duration) {
	if h, ok := s.pipeHist[platformName+"\x00"+stage]; ok {
		h.Observe(d.Seconds())
	}
}

// breakerStateValue maps a breaker's state name onto the conventional
// numeric gauge: 0 closed (healthy), 1 open, 2 half-open.
func breakerStateValue(state string) float64 {
	switch state {
	case "open":
		return 1
	case "half-open":
		return 2
	default:
		return 0
	}
}

// collect folds every externally-owned counter into one scrape.
func (s *Server) collect(e *telemetry.Exposition) {
	e.Gauge("dabench_build_info",
		"Build identity; always 1, the labels carry the facts.", 1,
		lbl("version", version.Version), lbl("goversion", runtime.Version()))
	e.Gauge("dabench_uptime_seconds", "Seconds since the server started.",
		time.Since(s.start).Seconds())

	e.Gauge("dabench_requests_in_flight", "Requests currently holding an admission slot.",
		float64(s.inFlight.Load()))
	e.Gauge("dabench_admission_slots", "Total admission slots (MaxInFlight).",
		float64(cap(s.sem)))
	e.Counter("dabench_requests_served_total", "Responses served (any lane).",
		float64(s.served.Load()))
	e.Counter("dabench_requests_rejected_total", "Requests shed with 429 at the admission gate.",
		float64(s.rejected.Load()))
	e.Counter("dabench_not_modified_total", "Conditional requests answered 304 from the ETag lane.",
		float64(s.notModified.Load()))

	tiers := []struct {
		name string
		st   platform.CacheStats
	}{
		{"compile", experiments.CacheStats()},
		{"graph", experiments.GraphCacheStats()},
	}
	for _, t := range tiers {
		e.Counter("dabench_cache_hits_total", "Memo-tier cache hits by tier.",
			float64(t.st.Hits), lbl("tier", t.name))
		e.Counter("dabench_cache_misses_total", "Memo-tier cache misses by tier.",
			float64(t.st.Misses), lbl("tier", t.name))
	}

	if s.resp != nil {
		rs := s.resp.Stats()
		e.Counter("dabench_resp_cache_hits_total", "L0 response-byte cache hits.", float64(rs.Hits))
		e.Counter("dabench_resp_cache_misses_total", "L0 response-byte cache misses.", float64(rs.Misses))
		e.Counter("dabench_resp_cache_evictions_total", "L0 entries evicted by the byte budget.", float64(rs.Evictions))
		e.Gauge("dabench_resp_cache_entries", "L0 entries resident.", float64(rs.Entries))
		e.Gauge("dabench_resp_cache_bytes", "L0 bytes resident.", float64(rs.Bytes))
		e.Gauge("dabench_resp_cache_budget_bytes", "L0 byte budget.", float64(rs.BudgetBytes))
	}

	if s.cfg.Store != nil {
		ss := s.cfg.Store.Stats()
		storeCounters := []struct {
			name, help string
			v          int64
		}{
			{"dabench_store_puts_total", "Blobs persisted.", ss.Puts},
			{"dabench_store_evictions_total", "Blobs evicted by the size budget.", ss.Evictions},
			{"dabench_store_corrupt_total", "Blobs dropped as corrupt.", ss.Corrupt},
			{"dabench_store_write_errors_total", "Blob writes that exhausted their retries.", ss.WriteErrors},
			{"dabench_store_raw_hits_total", "Raw response-byte hits (zero-decode serves).", ss.RawHits},
			{"dabench_store_raw_misses_total", "Raw response-byte misses.", ss.RawMisses},
			{"dabench_store_read_retries_total", "Blob read attempts beyond the first.", ss.ReadRetries},
			{"dabench_store_write_retries_total", "Blob write attempts beyond the first.", ss.WriteRetries},
			{"dabench_store_skipped_reads_total", "Reads skipped with the read breaker open.", ss.SkippedReads},
			{"dabench_store_skipped_writes_total", "Writes dropped with the write breaker open.", ss.SkippedWrites},
			{"dabench_store_evict_errors_total", "Evictions whose unlink failed (re-adopted).", ss.EvictErrors},
		}
		for _, c := range storeCounters {
			e.Counter(c.name, c.help, float64(c.v))
		}
		e.Gauge("dabench_store_entries", "Blobs resident on disk.", float64(ss.Entries))
		e.Gauge("dabench_store_bytes", "Bytes resident on disk.", float64(ss.Bytes))
		e.Gauge("dabench_store_budget_bytes", "On-disk byte budget (0 = unbounded).", float64(ss.BudgetBytes))
		e.Gauge("dabench_store_breaker_state", "Breaker state: 0 closed, 1 open, 2 half-open.",
			breakerStateValue(ss.ReadBreaker.State), lbl("breaker", "read"))
		e.Gauge("dabench_store_breaker_state", "Breaker state: 0 closed, 1 open, 2 half-open.",
			breakerStateValue(ss.WriteBreaker.State), lbl("breaker", "write"))
		e.Counter("dabench_store_breaker_trips_total", "Breaker transitions into open by breaker.",
			float64(ss.ReadBreaker.Trips), lbl("breaker", "read"))
		e.Counter("dabench_store_breaker_trips_total", "Breaker transitions into open by breaker.",
			float64(ss.WriteBreaker.Trips), lbl("breaker", "write"))
	}

	g := s.jobs.Stats()
	jobStates := []struct {
		state string
		v     int64
	}{
		{"queued", g.Queued}, {"running", g.Running}, {"done", g.Done},
		{"failed", g.Failed}, {"cancelled", g.Cancelled},
	}
	for _, j := range jobStates {
		e.Gauge("dabench_jobs", "Jobs by lifecycle state.", float64(j.v), lbl("state", j.state))
	}
	e.Counter("dabench_jobs_replayed_total", "Jobs revived from the journal on boot.", float64(g.Replayed))
	e.Counter("dabench_journal_torn_records_total", "Journal lines dropped as corrupt during replay.", float64(g.Torn))

	// Cluster families are emitted unconditionally — zeros on a single
	// node — so the exposition shape is identical with and without a
	// fabric (dashboards and the golden test never depend on topology).
	cs := s.cluster().Stats()
	var alive, dead float64
	var fetchHits, fetchMisses, fetchErrors float64
	if cs != nil {
		alive, dead = float64(cs.PeersAlive), float64(cs.PeersDead)
		fetchHits, fetchMisses = float64(cs.PeerFetchHits), float64(cs.PeerFetchMisses)
		fetchErrors = float64(cs.PeerFetchErrors)
	}
	e.Gauge("dabench_cluster_peers", "Peers by liveness state.", alive, lbl("state", "alive"))
	e.Gauge("dabench_cluster_peers", "Peers by liveness state.", dead, lbl("state", "dead"))
	e.Counter("dabench_peer_fetch_hits_total", "Peer-fetch rounds answered by a peer's blob export.", fetchHits)
	e.Counter("dabench_peer_fetch_misses_total", "Peer-fetch rounds that found the blob on no reachable peer.", fetchMisses)
	e.Counter("dabench_peer_fetch_errors_total", "Peer-fetch calls that failed in transport.", fetchErrors)

	if fs := s.cfg.Injector.Stats(); fs != nil {
		e.Counter("dabench_faults_fired_total", "Injected faults fired across all rules.", float64(fs.Fired))
	}
	if s.cfg.Provenance != nil {
		ps := s.cfg.Provenance.Stats()
		e.Gauge("dabench_provenance_records", "Length of the provenance hash chain.", float64(ps.Records))
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	buf := getBuf()
	_ = s.reg.WritePrometheus(buf) // a bytes.Buffer write cannot fail
	writeBody(w, "", "text/plain; version=0.0.4; charset=utf-8", buf.Bytes())
	putBuf(buf)
}
