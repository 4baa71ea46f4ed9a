package server

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"strconv"
	"strings"

	"dabench/internal/scenario"
	"dabench/internal/store"
)

// The warm serve path. The tiers answer a repeat request before any
// JSON or simulation work happens, checked in cost order:
//
//	L0 body    the verbatim request bytes as the cache key (/v1/run) —
//	           one allocation-free map lookup, no decode at all; the
//	           entry's ETag answers a conditional hit with 304.
//	L0 bytes   the in-process response-byte LRU (s.resp) under the
//	           canonical (platform, spec) key (/v1/run) — one map
//	           lookup, the cached bytes go straight to the socket.
//	ETag/304   If-None-Match matches the request's strong ETag — no
//	           body at all (/v1/run, /v1/sweep, scenario GETs).
//	L2 raw     the framed blob's response section (store.LoadRaw,
//	           /v1/run) — one read, zero JSON decode, refills L0 on the
//	           way out.
//
// Every answer on these rungs goes through fastLane; only a miss on all
// of them claims an admission slot (admit) and computes. /v1/sweep and
// scenario GETs keep no L0 entries: nothing measured repeats either
// unconditionally, and their 304 needs none. Every ETag below is
// derived from the request's identity (pipeline version ⊕ inputs),
// never from response bytes, which is what lets a 304 be answered
// without computing anything.

const ctJSON = "application/json"

// respEntry is one cached response: the exact body bytes plus its
// header values in the pre-canonicalized form http.Header wants, so
// serving assigns ready-made one-element slices into the header map
// instead of allocating per request via Header().Set.
type respEntry struct {
	body []byte
	etag string
	// etagH/ctH/lenH are the header value slices for direct map
	// assignment (ETag, Content-Type, Content-Length of body).
	etagH []string
	ctH   []string
	lenH  []string
}

// respEntryOverhead approximates a respEntry's fixed footprint (struct,
// slice headers, map slot) for the byte budget; the dominant cost is
// the body, this just keeps many tiny entries honest.
const respEntryOverhead = 192

func newRespEntry(etag, contentType string, body []byte) *respEntry {
	return &respEntry{
		body:  body,
		etag:  etag,
		etagH: []string{etag},
		ctH:   []string{contentType},
		lenH:  []string{strconv.Itoa(len(body))},
	}
}

func (e *respEntry) size() int64 {
	return int64(len(e.body)) + int64(len(e.etag)) + respEntryOverhead
}

// runETag is the strong ETag of one /v1/run outcome: exactly the
// store's content address for the (platform, spec) pair, which already
// binds the pipeline version. Quoted per RFC 9110.
func runETag(platformName, specKey string) string {
	return `"` + store.Address(platformName, specKey) + `"`
}

// runRespKey is the L0 cache key of one /v1/run response.
func runRespKey(platformName, specKey string) string {
	return "run\x00" + platformName + "\x00" + specKey
}

// identityTag is a strong ETag over a request identity: one sha256
// over the NUL-joined parts, hex-encoded and quoted per RFC 9110. The
// first part names the entity and, where its bytes depend on the
// simulators, the pipeline version.
func identityTag(parts ...string) string {
	h := sha256.New()
	for i, part := range parts {
		if i > 0 {
			h.Write([]byte{0})
		}
		h.Write([]byte(part))
	}
	return `"` + hex.EncodeToString(h.Sum(nil)) + `"`
}

// sweepETag is the strong ETag of one synchronous sweep response: the
// pipeline version, platform and every point's spec key in order. The
// point labels derive from the specs, so the key set pins the whole
// body.
func sweepETag(platformName string, pts *scenario.Points) string {
	parts := []string{"dabench/sweep/v" + strconv.Itoa(store.PipelineVersion), platformName}
	for i := range int(pts.Size()) {
		parts = append(parts, pts.Spec(i).Key())
	}
	return identityTag(parts...)
}

// scenarioETag is the strong ETag of one built-in library scenario
// rendering. The library is immutable within a build and the engine
// deterministic, so (pipeline version, name, format) pins the bytes.
func scenarioETag(name, format string) string {
	return identityTag("dabench/scenario/v"+strconv.Itoa(store.PipelineVersion), name, format)
}

// jobResultETag is the strong ETag of one finished job's rendered
// result. Job results are immutable once finished, so (id, format)
// pins the bytes — but ephemeral job IDs restart from scratch each
// boot, so without a journal the server's start time joins the key to
// keep a stale client ETag from matching a different job's result.
func (s *Server) jobResultETag(id, format string) string {
	kind := "dabench/job-result"
	if !s.jobs.Durable() {
		kind += "/boot:" + strconv.FormatInt(s.start.UnixNano(), 10)
	}
	return identityTag(kind, id, format)
}

// etagMatches reports whether an If-None-Match header value matches
// etag. The single-tag exact match is first — it is the whole fast
// path; the general form handles "*", tag lists, and weak prefixes
// (weak comparison suffices for If-None-Match per RFC 9110 §13.1.2).
func etagMatches(inm, etag string) bool {
	if inm == etag {
		return true
	}
	if inm == "*" {
		return true
	}
	for inm != "" {
		var tag string
		if i := strings.IndexByte(inm, ','); i >= 0 {
			tag, inm = inm[:i], inm[i+1:]
		} else {
			tag, inm = inm, ""
		}
		tag = strings.TrimSpace(tag)
		tag = strings.TrimPrefix(tag, "W/")
		if tag == etag {
			return true
		}
	}
	return false
}

// fastLane closes out an answer given before admission (an L0 hit, a
// 304, an L2 raw read): an explicit zero admission sample — without it
// the admission histogram would describe only cold requests — then the
// stage timing and the served count.
func (s *Server) fastLane(w http.ResponseWriter, st *stageTimer) {
	st.observe(stgAdmission, 0)
	s.finishStages(w, st)
	s.served.Add(1)
}

// serveHit answers a request from an L0 entry: a bare 304 when inm
// matches the entry's tag, else the cached bytes.
func (s *Server) serveHit(w http.ResponseWriter, st *stageTimer, e *respEntry, inm string) {
	s.fastLane(w, st)
	if inm != "" && etagMatches(inm, e.etag) {
		s.writeNotModified(w, e.etagH)
		return
	}
	serveEntry(w, e)
}

// conditional answers 304 before admission when inm matches etag, the
// request-identity tag, and reports whether it did.
func (s *Server) conditional(w http.ResponseWriter, st *stageTimer, inm, etag string) bool {
	if inm == "" || !etagMatches(inm, etag) {
		return false
	}
	s.fastLane(w, st)
	s.writeNotModified(w, []string{etag})
	return true
}

// writeNotModified answers 304 with etagH as the ETag header value, so
// caches revalidate; per RFC 9110 a 304 carries no body. An L0 hit
// passes its entry's pre-built slice, the conditional lane's only
// allocation otherwise.
func (s *Server) writeNotModified(w http.ResponseWriter, etagH []string) {
	w.Header()["Etag"] = etagH
	w.WriteHeader(http.StatusNotModified)
	s.notModified.Add(1)
}

// serveEntry writes a cached response: three direct header assigns
// (values pre-built at cache time), then the bytes. Content-Length is
// explicit, so the response is never chunked.
func serveEntry(w http.ResponseWriter, e *respEntry) {
	h := w.Header()
	h["Etag"] = e.etagH
	h["Content-Type"] = e.ctH
	h["Content-Length"] = e.lenH
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(e.body)
}

// cacheAndServe builds the respEntry for body (taking ownership of the
// slice), serves it, and installs it in L0 when the tier is enabled.
// The entry is returned so callers can install it under alias keys
// (/v1/run adds the verbatim request bytes).
func (s *Server) cacheAndServe(w http.ResponseWriter, cacheKey, etag, contentType string, body []byte) *respEntry {
	e := newRespEntry(etag, contentType, body)
	serveEntry(w, e)
	if s.resp != nil {
		s.resp.Put(cacheKey, e, e.size())
	}
	return e
}

// writeBody writes a 200 body that L0 does not keep (sweeps, experiment
// renders, scenarios, job results, /metrics) with an explicit
// Content-Length, so it is never chunked, and its ETag when it has one.
func writeBody(w http.ResponseWriter, etag, contentType string, body []byte) {
	h := w.Header()
	if etag != "" {
		h["Etag"] = []string{etag}
	}
	h["Content-Type"] = []string{contentType}
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}
