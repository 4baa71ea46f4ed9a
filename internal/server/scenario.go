package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"dabench/internal/experiments"
	"dabench/internal/report"
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
// so (name, format) pins the rendered bytes: a revalidation is answered
// 304 from that identity tag before the admission gate. Bodies stay out
// of L0, as a sweep's do: nothing measured repeats a scenario GET
// unconditionally, and the 304 needs no entry. The compute path claims
// a slot and shares the in-flight budget and request deadline with the
// other heavy endpoints.
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
	if s.conditional(w, &st, r.Header.Get("If-None-Match"), etag) {
		return
	}

	ctx, cancel, ok := s.admit(w, r, &st)
	if !ok {
		return
	}
	defer s.release(cancel)
	t := time.Now()
	out, err := scenario.Run(ctx, sc, scenario.RunOptions{})
	st.observe(stgRun, time.Since(t))
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	t = time.Now()
	buf, contentType, err := render(out.Tables, format, out)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	st.observe(stgRender, time.Since(t))
	s.finishStages(w, &st)
	writeBody(w, etag, contentType, buf.Bytes())
	putBuf(buf)
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
		s.submitJob(w, scenarioJobRequest(raw), total)
		return
	}

	ctx, cancel, ok := s.admit(w, r, &st)
	if !ok {
		return
	}
	defer s.release(cancel)
	t := time.Now()
	out, err := scenario.Run(ctx, sc, scenario.RunOptions{})
	st.observe(stgRun, time.Since(t))
	if err != nil {
		s.writePointError(w, err)
		return
	}
	t = time.Now()
	buf, contentType, err := render(out.Tables, format, out)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	st.observe(stgRender, time.Since(t))
	s.finishStages(w, &st)
	writeBody(w, "", contentType, buf.Bytes())
	putBuf(buf)
}

// render materializes a document in the requested format into a
// pooled buffer, returned with its content type; the caller writes the
// bytes and returns the buffer via putBuf. CSV and text (any other
// format) render tables through experiments.Result.Render — the shared
// path that keeps the bytes identical to the CLI's stdout and to an
// async job's rendered result; "json" and "trace" encode doc through
// the server's one encoder configuration for the same reason.
func render(tables []*report.Table, format string, doc any) (*bytes.Buffer, string, error) {
	if format == "json" || format == "trace" {
		buf, err := encodeJSON(doc)
		return buf, ctJSON, err
	}
	contentType := "text/plain; charset=utf-8"
	if format == "csv" {
		contentType = "text/csv; charset=utf-8"
	}
	buf := getBuf()
	if err := (&experiments.Result{Tables: tables}).Render(buf, format == "csv"); err != nil {
		putBuf(buf)
		return nil, "", err
	}
	return buf, contentType, nil
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
