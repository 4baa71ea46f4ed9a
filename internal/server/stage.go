package server

import (
	"net/http"
	"strconv"
	"time"
)

// Per-request stage timing. Every serving endpoint accounts its wall
// clock into named stages — where a request's latency actually went —
// and reports them two ways at once: the per-endpoint histograms on
// /metrics and a Server-Timing response header (so a single curl shows
// the breakdown without a scrape).
//
// Two deliberate asymmetries keep the distributions honest:
//
//   - Fast-lane answers (L0 byte hits, ETag 304s) never touch the
//     admission gate, but they still record an explicit zero
//     admission-wait sample. Without it the admission histogram would
//     only ever see cold requests, and comparing warm vs cold
//     latency against it would overstate what admission costs.
//   - Error responses record nothing: the histograms describe served
//     outcomes, and folding validation rejects into them would drag
//     every percentile toward the cost of parsing garbage.
//
// Stage semantics per endpoint (total is always first-byte latency —
// request arrival to response start; the body write is excluded
// because Server-Timing must be on the wire before it):
//
//	admission    time to acquire a simulation slot (0 on fast lanes;
//	             the gate sheds rather than queues, so nonzero values
//	             are scheduler noise, not queueing)
//	decode       body read + JSON decode + request resolution
//	compile      platform.Compile (memo hits return in ns; the
//	             pipeline histograms isolate real simulator work)
//	run          platform.Run, a sweep's full Map, or an experiment /
//	             scenario execution
//	render       response marshaling
//	store_read   the L2 raw-response probe
//	store_write  framing a cold /v1/run's outcome with its response
//	             bytes and enqueueing the frame to the write-behind
//	             store (the disk write itself is off-path)

// Endpoint indices for the stage grid.
const (
	epRun = iota
	epSweep
	epExperiment
	epScenarioGet
	epScenarioPost
	nEndpoints
)

// Stage indices. Order is the Server-Timing order.
const (
	stgAdmission = iota
	stgDecode
	stgCompile
	stgRun
	stgRender
	stgStoreRead
	stgStoreWrite
	stgTotal
	nStages
)

var endpointNames = [nEndpoints]string{
	epRun:          "/v1/run",
	epSweep:        "/v1/sweep",
	epExperiment:   "/v1/experiments/{id}",
	epScenarioGet:  "/v1/scenarios/{name}",
	epScenarioPost: "/v1/scenarios",
}

var stageNames = [nStages]string{
	stgAdmission:  "admission",
	stgDecode:     "decode",
	stgCompile:    "compile",
	stgRun:        "run",
	stgRender:     "render",
	stgStoreRead:  "store_read",
	stgStoreWrite: "store_write",
	stgTotal:      "total",
}

// endpointStages is the full (endpoint, stage) grid — which stages
// each endpoint can ever record. The histogram series for every cell
// are created at server construction, so the /metrics exposition has
// the same shape whether or not traffic has arrived (what lets a
// golden file pin it).
var endpointStages = [nEndpoints][]int{
	epRun:          {stgAdmission, stgDecode, stgCompile, stgRun, stgRender, stgStoreRead, stgStoreWrite, stgTotal},
	epSweep:        {stgAdmission, stgDecode, stgRun, stgRender, stgTotal},
	epExperiment:   {stgAdmission, stgRun, stgRender, stgTotal},
	epScenarioGet:  {stgAdmission, stgRun, stgRender, stgTotal},
	epScenarioPost: {stgAdmission, stgDecode, stgRun, stgRender, stgTotal},
}

// stageTimer accumulates one request's stage durations on the
// handler's stack — no allocation until the final header build.
type stageTimer struct {
	ep   int
	t0   time.Time
	durs [nStages]time.Duration
	set  uint16 // bitmask of recorded stages
}

func newStageTimer(ep int) stageTimer {
	return stageTimer{ep: ep, t0: time.Now()}
}

// observe records one stage's duration (last write wins).
func (t *stageTimer) observe(stg int, d time.Duration) {
	t.durs[stg] = d
	t.set |= 1 << stg
}

// finishStages closes out a request's timing immediately before the
// response starts: total is stamped, every recorded stage feeds its
// histogram, and the Server-Timing header is set (it must precede
// WriteHeader). Cost on the warm path is two small allocations (the
// header string and its one-element slice).
func (s *Server) finishStages(w http.ResponseWriter, t *stageTimer) {
	t.observe(stgTotal, time.Since(t.t0))
	buf := make([]byte, 0, 160)
	for stg := 0; stg < nStages; stg++ {
		if t.set&(1<<stg) == 0 {
			continue
		}
		s.stageHist[t.ep][stg].Observe(t.durs[stg].Seconds())
		if len(buf) > 0 {
			buf = append(buf, ", "...)
		}
		buf = append(buf, stageNames[stg]...)
		buf = append(buf, ";dur="...)
		// Server-Timing dur is milliseconds (fractional allowed).
		buf = strconv.AppendFloat(buf, float64(t.durs[stg])/float64(time.Millisecond), 'f', 3, 64)
	}
	w.Header()["Server-Timing"] = []string{string(buf)}
}
