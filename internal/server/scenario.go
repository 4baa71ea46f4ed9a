package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"dabench/internal/jobs"
	"dabench/internal/scenario"
)

// scenarioInfo is one library entry in the GET /v1/scenarios listing.
type scenarioInfo struct {
	Name        string   `json:"name"`
	Description string   `json:"description,omitempty"`
	Platforms   []string `json:"platforms"`
	// Points is the total compile/run pairs the scenario executes
	// (grid size × platform count).
	Points int `json:"points"`
}

// libraryInfos resolves the immutable built-in library once (at server
// construction) so the listing endpoint is a plain write, not a
// revalidation of every scenario per request.
func libraryInfos() ([]scenarioInfo, error) {
	lib := scenario.Library()
	infos := make([]scenarioInfo, 0, len(lib))
	for _, sc := range lib {
		n, err := sc.Points()
		if err != nil {
			return nil, fmt.Errorf("library scenario %q is invalid: %w", sc.Name, err)
		}
		infos = append(infos, scenarioInfo{
			Name: sc.Name, Description: sc.Description,
			Platforms: sc.Platforms, Points: n,
		})
	}
	return infos, nil
}

func (s *Server) handleScenarioList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]scenarioInfo{"scenarios": s.scenarios})
}

// scenarioFormat validates the ?format= parameter shared by the
// scenario endpoints. dflt is what an empty parameter means: the
// GET endpoint defaults to the CLI's text rendering (CI diffs the
// two), the POST endpoint to the JSON document.
func scenarioFormat(w http.ResponseWriter, r *http.Request, dflt string) (string, bool) {
	format := r.URL.Query().Get("format")
	switch format {
	case "":
		return dflt, true
	case "text", "table":
		return "text", true
	case "csv", "json":
		return format, true
	default:
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			"unknown format "+strconv.Quote(format)+" (valid: text, table, csv, json)")
		return "", false
	}
}

// handleScenarioGet runs one built-in library scenario synchronously.
// The library is immutable within a build and the engine deterministic,
// so (name, format) pins the rendered bytes: a repeat request is
// answered from the ETag/304 or response-byte fast lane before the
// admission gate; only the compute path claims a slot and shares the
// in-flight budget and request deadline with the other heavy endpoints.
func (s *Server) handleScenarioGet(w http.ResponseWriter, r *http.Request) {
	st := newStageTimer(epScenarioGet)
	name := r.PathValue("name")
	sc, ok := scenario.ByName(name)
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "unknown scenario "+strconv.Quote(name))
		return
	}
	format, ok := scenarioFormat(w, r, "text")
	if !ok {
		return
	}
	etag := scenarioETag(name, format)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		st.observe(stgAdmission, 0)
		s.finishStages(w, &st)
		s.writeNotModified(w, etag)
		s.served.Add(1)
		return
	}
	ck := scenarioRespKey(name, format)
	if s.resp != nil {
		if e, ok := s.resp.Get(ck); ok {
			st.observe(stgAdmission, 0)
			s.finishStages(w, &st)
			serveEntry(w, e)
			s.served.Add(1)
			return
		}
	}

	t := time.Now()
	if !s.acquire(w) {
		return
	}
	st.observe(stgAdmission, time.Since(t))
	defer s.release()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	defer s.served.Add(1)
	t = time.Now()
	out, err := scenario.Run(ctx, sc, scenario.RunOptions{})
	st.observe(stgRun, time.Since(t))
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	t = time.Now()
	body, contentType, err := renderScenario(out, format)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	st.observe(stgRender, time.Since(t))
	s.finishStages(w, &st)
	s.cacheAndServe(w, ck, etag, contentType, body)
}

// handleScenarioSubmit executes a posted scenario document: under the
// synchronous point budget it runs inline (admission-gated like every
// heavy request); over it, the document is journaled as an async job
// on the background pool and answered 202 + Location, exactly like
// POST /v1/jobs. The async result document is byte-identical to the
// synchronous response for the same scenario — both paths encode one
// scenario.Outcome with the same encoder.
func (s *Server) handleScenarioSubmit(w http.ResponseWriter, r *http.Request) {
	st := newStageTimer(epScenarioPost)
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "read body: "+err.Error())
		return
	}
	sc, err := scenario.Parse(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	format, ok := scenarioFormat(w, r, "json")
	if !ok {
		return
	}
	total, err := sc.Points()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	st.observe(stgDecode, time.Since(st.t0))

	if total > s.cfg.MaxSweepPoints {
		// Too heavy for a synchronous answer: hand it to the job
		// subsystem. The journaled request wraps the client's exact
		// bytes so replay re-executes what was submitted.
		if total > s.cfg.MaxJobPoints {
			s.writeJobCapExceeded(w, "scenario", int64(total))
			return
		}
		v, err := s.jobs.Submit(scenarioJobRequest(raw), total)
		switch {
		case errors.Is(err, jobs.ErrQueueFull):
			s.writeQueueFull(w)
			return
		case errors.Is(err, jobs.ErrClosed):
			writeError(w, http.StatusServiceUnavailable, CodeInternal, "job manager is shut down")
			return
		case err != nil:
			writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
			return
		}
		w.Header().Set("Location", "/v1/jobs/"+v.ID)
		writeJSON(w, http.StatusAccepted, v)
		return
	}

	t := time.Now()
	if !s.acquire(w) {
		return
	}
	st.observe(stgAdmission, time.Since(t))
	defer s.release()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	t = time.Now()
	out, err := scenario.Run(ctx, sc, scenario.RunOptions{})
	st.observe(stgRun, time.Since(t))
	if err != nil {
		s.writePointError(w, err)
		return
	}
	t = time.Now()
	body, contentType, err := renderScenario(out, format)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	st.observe(stgRender, time.Since(t))
	s.finishStages(w, &st)
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
	s.served.Add(1)
}

// renderScenario materializes one scenario outcome in the requested
// format as (body, content type). Text and CSV go through
// Outcome.Render — the shared experiments.Result.Render path that
// keeps the bytes identical to the CLI's stdout and the async job
// result for the same scenario; JSON goes through the server's one
// encoder configuration for the same reason.
func renderScenario(out *scenario.Outcome, format string) ([]byte, string, error) {
	switch format {
	case "json":
		body, err := marshalJSON(out)
		return body, ctJSON, err
	case "csv":
		var buf bytes.Buffer
		if err := out.Render(&buf, true); err != nil {
			return nil, "", err
		}
		return buf.Bytes(), "text/csv; charset=utf-8", nil
	default: // text
		var buf bytes.Buffer
		if err := out.Render(&buf, false); err != nil {
			return nil, "", err
		}
		return buf.Bytes(), "text/plain; charset=utf-8", nil
	}
}

// jobEnvelope distinguishes journaled job request vocabularies: sweep
// requests are journaled bare (the original /v1/jobs wire form, kept
// for journal compatibility), scenario requests wrapped with a kind
// marker. SweepRequest has no "kind" field and is decoded strictly at
// submission, so no sweep body can alias a scenario envelope.
type jobEnvelope struct {
	Kind     string          `json:"kind"`
	Scenario json.RawMessage `json:"scenario"`
}

// scenarioJobRequest wraps a scenario document's exact client bytes in
// the journal envelope.
func scenarioJobRequest(raw []byte) json.RawMessage {
	buf := make([]byte, 0, len(raw)+len(`{"kind":"scenario","scenario":}`))
	buf = append(buf, `{"kind":"scenario","scenario":`...)
	buf = append(buf, raw...)
	buf = append(buf, '}')
	return buf
}

// runScenarioJob executes one journaled scenario on the background
// pool, reporting chunked progress. The result document is encoded
// exactly as the synchronous handler encodes its response.
func (s *Server) runScenarioJob(ctx context.Context, raw json.RawMessage, progress func(done, failed int)) (json.RawMessage, error) {
	sc, err := scenario.Parse(raw)
	if err != nil {
		return nil, err
	}
	total, err := sc.Points()
	if err != nil {
		return nil, err
	}
	if total > s.cfg.MaxJobPoints {
		// Replayed from a journal written under a larger cap.
		return nil, fmt.Errorf("scenario of %d points exceeds the job cap of %d", total, s.cfg.MaxJobPoints)
	}
	out, err := scenario.Run(ctx, sc, scenario.RunOptions{
		Workers:  jobWorkers(),
		Progress: progress,
	})
	if err != nil {
		return nil, err
	}
	return marshalJSON(out)
}

// isScenarioResult classifies a stored job result by probing the
// "scenario" field alone — a SweepResponse has no such field and can
// never produce a non-empty one, and the one-field probe avoids
// materializing a multi-megabyte result document twice just to
// classify it. Classification is independent of whether the full
// outcome still decodes, so a scenario blob written by an
// incompatible build fails closed (explicit error) instead of falling
// through to the sweep renderer.
func isScenarioResult(raw []byte) bool {
	var probe struct {
		Scenario string `json:"scenario"`
	}
	return json.Unmarshal(raw, &probe) == nil && probe.Scenario != ""
}
