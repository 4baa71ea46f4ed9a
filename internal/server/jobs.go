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

	"dabench/internal/faults"
	"dabench/internal/jobs"
	"dabench/internal/platform"
	"dabench/internal/report"
	"dabench/internal/scenario"
	"dabench/internal/sweep"
)

// jobChunk is how many points one journal/progress beat covers: large
// enough to amortize the bookkeeping, small enough that progress and
// cancellation stay responsive. It is also the retry/quarantine unit:
// a failing chunk is retried whole and, past the budget, quarantined
// whole.
const jobChunk = 256

// The chunk retry budget: chunkAttempts tries in all, the waits between
// them doubling from chunkRetryBackoff. Only injected faults are
// retried, so the budget serves the fault harness.
const (
	chunkAttempts     = 3
	chunkRetryBackoff = 50 * time.Millisecond
)

// jobWorkers is the pool width a job's points fan out on: half the
// process sweep pool, at least one. The other half stays with
// interactive requests: on 2 vCPUs the full pool ran RDU jobs 17–22%
// faster but raised the p99 of concurrent /v1/sweep requests by 57–72%
// (DESIGN.md, "The async job subsystem").
func jobWorkers() int {
	return max(1, sweep.DefaultWorkers()/2)
}

// runChunk executes one job chunk [lo, hi) under the chunk retry
// policy: an injected fault backs off and retries the whole chunk up
// to chunkAttempts times. Point compiles are memoized, so a retry only
// re-runs what actually failed. Any other hard error is returned at
// once: the simulators are pure functions of the spec, so it would
// recur on every attempt, and context errors must stay prompt. Returns
// the outcomes, the attempts consumed, and the final error.
func (s *Server) runChunk(ctx context.Context, a *sweepAxes, lo, hi int) ([]sweep.Outcome[RunResult], int, error) {
	var lastErr error
	for attempt := 1; ; attempt++ {
		err := s.cfg.Injector.Fire(faults.OpChunkRun)
		var outs []sweep.Outcome[RunResult]
		if err == nil {
			outs, err = sweep.MapN(ctx, hi-lo, func(_ context.Context, i int) (RunResult, error) {
				spec, _, err := a.point(lo + i)
				if err != nil {
					return RunResult{}, err
				}
				return runPoint(a.p, spec)
			}, sweep.Workers(jobWorkers()), sweep.Tolerating(platform.IsCompileFailure))
		}
		if err == nil {
			return outs, attempt, nil
		}
		lastErr = err
		if !faults.IsInjected(err) || ctx.Err() != nil || attempt >= chunkAttempts {
			return nil, attempt, lastErr
		}
		s.chunkRetries.Add(1)
		select {
		case <-time.After(chunkRetryBackoff << (attempt - 1)):
		case <-ctx.Done():
			return nil, attempt, lastErr
		}
	}
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
	a, err := req.axes()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	n := a.product()
	if n > int64(s.cfg.MaxJobPoints) {
		s.writeJobCapExceeded(w, "job", n)
		return
	}

	// Journal the raw body, not a re-marshaled struct: replay must
	// re-execute exactly what the client sent.
	v, err := s.jobs.Submit(json.RawMessage(raw), int(n))
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
		s.writeNotModified(w, etag)
		return
	}
	if format == "" {
		// The stored document is the /v1/sweep encoder's exact output;
		// serving the bytes untouched keeps async results byte-identical
		// to their synchronous equivalents.
		serveWithETag(w, etag, ctJSON, raw)
		return
	}

	if isScenarioResult(raw) {
		// A scenario job: its tables render through the same shared
		// path as the synchronous endpoint and the CLI, byte for byte.
		// A blob that classifies as a scenario but no longer decodes
		// (written by an incompatible build) is an explicit error, not
		// a silent fall-through to the sweep renderer.
		var out scenario.Outcome
		if err := json.Unmarshal(raw, &out); err != nil || len(out.Tables) == 0 {
			writeError(w, http.StatusInternalServerError, CodeInternal,
				"stored scenario result for "+strconv.Quote(id)+" does not decode (written by an incompatible version?)")
			return
		}
		body, contentType, rerr := renderScenario(&out, format) // "csv" or "table" (rendered as text) here
		if rerr != nil {
			writeError(w, http.StatusInternalServerError, CodeInternal, rerr.Error())
			return
		}
		serveWithETag(w, etag, contentType, body)
		return
	}

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
	var buf bytes.Buffer
	var rerr error
	contentType := "text/plain; charset=utf-8"
	if format == "csv" {
		contentType = "text/csv; charset=utf-8"
		rerr = tbl.WriteCSV(&buf)
	} else {
		rerr = tbl.WriteText(&buf)
	}
	if rerr != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, rerr.Error())
		return
	}
	serveWithETag(w, etag, contentType, buf.Bytes())
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
// the background pool, chunk by chunk. Each chunk re-derives its specs
// from the axes (the full product is never materialized), fans out on
// sweep.MapN at jobWorkers' width, and reports cumulative progress.
// Every chunk runs on this node, fleet or not: the manager runs one job
// at a time, so a chunk shipped to a peer would only add a round trip
// to it. The assembled result is encoded exactly as the synchronous
// sweep handler encodes its response.
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
	a, err := req.axes()
	if err != nil {
		return nil, err
	}
	n := int(a.product())
	if n > s.cfg.MaxJobPoints {
		// Replayed from a journal written under a larger cap.
		return nil, fmt.Errorf("job of %d points exceeds the job cap of %d", n, s.cfg.MaxJobPoints)
	}

	resp := SweepResponse{Platform: a.p.Name(), Points: n}
	resp.Results = make([]RunResult, 0, n)
	for lo := 0; lo < n; lo += jobChunk {
		hi := min(lo+jobChunk, n)
		outs, attempts, err := s.runChunk(ctx, a, lo, hi)
		if err != nil {
			if ctx.Err() != nil || specRejected(err) {
				// Cancellation and shutdown keep their wholesale semantics:
				// the manager turns them into cancelled/revived, and a
				// quarantine entry would misclassify them as poison. A
				// rejected spec fails the job with the simulator's message,
				// as the same request fails a synchronous sweep.
				return nil, err
			}
			// Poison chunk: quarantine it and keep going. The job finishes
			// done with the surviving chunks' results plus this manifest —
			// partial data beats losing an hours-long sweep to one chunk.
			s.chunksQuarantined.Add(1)
			resp.FailedChunks = append(resp.FailedChunks, ChunkFailure{
				Chunk: lo / jobChunk, Start: lo, End: hi,
				Attempts: attempts, Error: err.Error(),
			})
			progress(hi, resp.Failed)
			continue
		}
		for i, o := range outs {
			spec, label, _ := a.point(lo + i)
			res := o.Value
			if o.Failed() {
				res = result(a.p, spec, nil, nil)
				res.Failed, res.FailReason = true, o.Err.Error()
				resp.Failed++
			}
			res.Label = label
			resp.Results = append(resp.Results, res)
		}
		progress(hi, resp.Failed)
	}

	// The stored bytes equal a synchronous response body for the same
	// points (a clean run omits failed_chunks, so the envelopes stay
	// identical).
	return marshalJSON(resp)
}
