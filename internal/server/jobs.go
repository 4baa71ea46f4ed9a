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

	"dabench/internal/jobs"
	"dabench/internal/report"
	"dabench/internal/scenario"
	"dabench/internal/sweep"
)

// jobWorkers is the pool width a job's points fan out on: half the
// process sweep pool, at least one. The other half stays with
// interactive requests: on 2 vCPUs the full pool ran RDU jobs 17–22%
// faster but raised the p99 of concurrent /v1/sweep requests by 57–72%
// (DESIGN.md, "The async job subsystem").
func jobWorkers() int {
	return max(1, sweep.DefaultWorkers()/2)
}

// handleJobSubmit accepts a SweepRequest of (nearly) any size for
// asynchronous execution: validation is synchronous and strict — a bad
// request must fail at submission, not hours later in the executor —
// but the cross product is only counted, never materialized.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "read body: "+err.Error())
		return
	}
	req, err := decodeSweepRequest(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	_, pts, err := req.grid()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	n := pts.Size()
	if n > int64(s.cfg.MaxJobPoints) {
		s.writeJobCapExceeded(w, "job", n)
		return
	}

	// Journal the raw body, not a re-marshaled struct: replay must
	// re-execute exactly what the client sent.
	s.submitJob(w, json.RawMessage(raw), int(n))
}

// submitJob journals one validated job request of points points and
// answers 202 with its view and Location, or the queue's refusal: the
// submission path POST /v1/jobs and an over-budget POST /v1/scenarios
// share.
func (s *Server) submitJob(w http.ResponseWriter, req json.RawMessage, points int) {
	v, err := s.jobs.Submit(req, points)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		s.writeQueueFull(w)
	case errors.Is(err, jobs.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, CodeInternal, "job manager is shut down")
	case err != nil:
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
	default:
		w.Header().Set("Location", "/v1/jobs/"+v.ID)
		writeJSON(w, http.StatusAccepted, v)
	}
}

// writeJobCapExceeded answers a submission whose cross product exceeds
// the async job cap: the one structured rejection both the sweep and
// scenario submission paths share.
func (s *Server) writeJobCapExceeded(w http.ResponseWriter, what string, requested int64) {
	writeJSON(w, http.StatusTooManyRequests, errorEnvelope{Error: ErrorBody{
		Code:            CodeSweepTooLarge,
		Message:         fmt.Sprintf("%s of %d points exceeds the job cap of %d", what, requested, s.cfg.MaxJobPoints),
		Limit:           s.cfg.MaxJobPoints,
		RequestedPoints: requested,
	}})
}

// writeQueueFull answers a job submission that found the queue full:
// 429 with a Retry-After derived from how much work is actually
// queued, so a deep backlog pushes clients out further than a blip.
func (s *Server) writeQueueFull(w http.ResponseWriter) {
	s.setRetryAfter(w, int(s.jobs.Queued()))
	writeError(w, http.StatusTooManyRequests, CodeQueueFull, "job queue is full; retry later")
}

// decodeSweepRequest parses raw as strictly as the synchronous path.
func decodeSweepRequest(raw []byte) (SweepRequest, error) {
	var req SweepRequest
	err := decodeStrict(bytes.NewReader(raw), &req)
	return req, err
}

func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]jobs.View{"jobs": s.jobs.List()})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, ok := s.jobs.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "unknown job "+strconv.Quote(id))
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	format := r.URL.Query().Get("format")
	switch format {
	case "", "csv", "table":
	default:
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			"unknown format "+strconv.Quote(format)+" (valid: csv, table, or empty for JSON)")
		return
	}
	raw, err := s.jobs.Result(id)
	switch {
	case errors.Is(err, jobs.ErrUnknownJob):
		writeError(w, http.StatusNotFound, CodeNotFound, "unknown job "+strconv.Quote(id))
		return
	case errors.Is(err, jobs.ErrNotFinished):
		writeError(w, http.StatusConflict, CodeNotReady, err.Error())
		return
	case errors.Is(err, jobs.ErrNoResult):
		// Terminal: unlike not_ready, polling will never change it.
		writeError(w, http.StatusConflict, CodeConflict, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	// A finished job's result is immutable, so its ETag only exists
	// once Result succeeds — an unfinished job must keep answering 409,
	// not 304. The check sits after the (cheap) result fetch but before
	// any rendering.
	etag := s.jobResultETag(id, format)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		s.writeNotModified(w, []string{etag})
		return
	}
	if format == "" {
		// The stored document is the /v1/sweep encoder's exact output;
		// serving the bytes untouched keeps async results byte-identical
		// to their synchronous equivalents.
		writeBody(w, etag, ctJSON, raw)
		return
	}

	// A scenario job's tables render through the same shared path as
	// the synchronous endpoint and the CLI, byte for byte; a sweep job's
	// through a results table of its own.
	var tables []*report.Table
	if isScenarioResult(raw) {
		// A blob that classifies as a scenario but no longer decodes
		// (written by an incompatible build) is an explicit error, not
		// a silent fall-through to the sweep renderer.
		var out scenario.Outcome
		if err := json.Unmarshal(raw, &out); err != nil || len(out.Tables) == 0 {
			writeError(w, http.StatusInternalServerError, CodeInternal,
				"stored scenario result for "+strconv.Quote(id)+" does not decode (written by an incompatible version?)")
			return
		}
		tables = out.Tables
	} else {
		var resp SweepResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			writeError(w, http.StatusInternalServerError, CodeInternal, "stored result corrupt: "+err.Error())
			return
		}
		tbl := report.New(fmt.Sprintf("Job %s — %s, %d points, %d failed", id, resp.Platform, resp.Points, resp.Failed),
			"Label", "Status", "Step time s", "Tokens/s", "TFLOPS", "Efficiency")
		for _, res := range resp.Results {
			if res.Failed {
				tbl.Add(res.Label, "Fail", "-", "-", "-", "-")
				continue
			}
			tbl.Add(res.Label, "ok", report.F(res.StepTimeSec), report.F(res.TokensPerSec),
				report.F(res.TFLOPS), report.F(res.Efficiency))
		}
		tables = []*report.Table{tbl}
	}
	buf, contentType, err := render(tables, format, nil) // "csv" or "table" (rendered as text) here
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	writeBody(w, etag, contentType, buf.Bytes())
	putBuf(buf)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, err := s.jobs.Cancel(id)
	switch {
	case errors.Is(err, jobs.ErrUnknownJob):
		writeError(w, http.StatusNotFound, CodeNotFound, "unknown job "+strconv.Quote(id))
		return
	case errors.Is(err, jobs.ErrFinished):
		writeError(w, http.StatusConflict, CodeConflict,
			fmt.Sprintf("job %s already finished (%s)", id, v.State))
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// runJob is the jobs.RunFunc: execute one journaled SweepRequest on
// the background pool through sweepDocument, chunk by chunk at
// jobWorkers' width, reporting cumulative progress. Every chunk runs on
// this node, fleet or not: the manager runs one job at a time, so a
// chunk shipped to a peer would only add a round trip to it.
func (s *Server) runJob(ctx context.Context, raw json.RawMessage, progress func(done, failed int)) (json.RawMessage, error) {
	// Scenario jobs are journaled inside a kind-marked envelope; bare
	// bodies are the original sweep vocabulary. A sweep request can
	// never alias the envelope: its strict submission decode rejects a
	// "kind" field.
	var env jobEnvelope
	if err := json.Unmarshal(raw, &env); err == nil && env.Kind == "scenario" {
		return s.runScenarioJob(ctx, env.Scenario, progress)
	}

	req, err := decodeSweepRequest(raw)
	if err != nil {
		return nil, err
	}
	p, pts, err := req.grid()
	if err != nil {
		return nil, err
	}
	if n := pts.Size(); n > int64(s.cfg.MaxJobPoints) {
		// Replayed from a journal written under a larger cap.
		return nil, fmt.Errorf("job of %d points exceeds the job cap of %d", n, s.cfg.MaxJobPoints)
	}
	// The manager turns cancellation and shutdown into
	// cancelled/revived; any other error fails the job with its
	// message, as the same request fails a synchronous sweep.
	resp, err := s.sweepDocument(ctx, p, pts, jobWorkers(), progress)
	if err != nil {
		return nil, err
	}
	return marshalJSON(resp)
}
