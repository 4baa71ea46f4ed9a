package server

import (
	"bufio"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Per-request stage timing. Every serving endpoint accounts its wall
// clock into named stages — where a request's latency actually went —
// and reports them three ways at once: the per-endpoint histograms on
// /metrics, a Server-Timing response header (so a single curl shows
// the breakdown without a scrape), and optionally one CSV row per
// request via -stage-log.
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

// Stage indices. Order is the Server-Timing / CSV column order.
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
// histogram, the Server-Timing header is set (it must precede
// WriteHeader), and the optional CSV row is appended. Cost on the warm
// path is three small allocations (the header bytes, its string, and
// the one-element header slice).
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
	if s.stageLog != nil {
		s.stageLog.record(t)
	}
}

// stageLog appends one CSV row per served request. It is a debugging
// flight recorder, not a durability surface: rows flush per record so
// a tail -f mid-incident sees them, write failures are counted (and
// surfaced on /metrics) but never fail a request.
type stageLog struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	errs atomic.Int64
}

// stageLogHeader is the CSV column row, written once per fresh file.
const stageLogHeader = "unix_ms,endpoint,admission_s,decode_s,compile_s,run_s,render_s,store_read_s,store_write_s,total_s\n"

func openStageLog(path string) (*stageLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	l := &stageLog{f: f, w: bufio.NewWriter(f)}
	if fi, err := f.Stat(); err == nil && fi.Size() == 0 {
		_, _ = l.w.WriteString(stageLogHeader)
		_ = l.w.Flush()
	}
	return l, nil
}

// record appends one row; stages the request never recorded render as
// empty fields, so warm and cold rows stay column-aligned.
func (l *stageLog) record(t *stageTimer) {
	buf := make([]byte, 0, 192)
	buf = strconv.AppendInt(buf, time.Now().UnixMilli(), 10)
	buf = append(buf, ',')
	buf = append(buf, endpointNames[t.ep]...)
	for stg := 0; stg < nStages; stg++ {
		buf = append(buf, ',')
		if t.set&(1<<stg) != 0 {
			buf = strconv.AppendFloat(buf, t.durs[stg].Seconds(), 'f', 9, 64)
		}
	}
	buf = append(buf, '\n')
	l.mu.Lock()
	_, err := l.w.Write(buf)
	if err == nil {
		err = l.w.Flush()
	}
	l.mu.Unlock()
	if err != nil {
		l.errs.Add(1)
	}
}

func (l *stageLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		_ = l.f.Close()
		return err
	}
	return l.f.Close()
}
