package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
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

// runChunk executes one job chunk [lo, hi) under the chunk retry
// policy: an injected fault backs off and retries the whole chunk up
// to Config.ChunkRetries attempts. Point compiles are memoized, so a
// retry only re-runs what actually failed. Any other hard error is
// returned at once: the simulators are pure functions of the spec, so
// it would recur on every attempt, and context errors must stay
// prompt. Returns the outcomes, the attempts consumed, and the final
// error.
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
			}, sweep.Workers(s.cfg.JobSweepWorkers), sweep.Tolerating(platform.IsCompileFailure))
		}
		if err == nil {
			return outs, attempt, nil
		}
		lastErr = err
		if !faults.IsInjected(err) || ctx.Err() != nil || attempt >= s.cfg.ChunkRetries {
			return nil, attempt, lastErr
		}
		s.chunkRetries.Add(1)
		select {
		case <-time.After(s.cfg.ChunkRetryBackoff << (attempt - 1)):
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

// decodeSweepRequest parses raw strictly (unknown fields and trailing
// data are client errors), mirroring the synchronous path's decode.
func decodeSweepRequest(raw []byte) (SweepRequest, error) {
	var req SweepRequest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("decode body: %w", err)
	}
	if dec.More() {
		return req, errors.New("decode body: trailing data after JSON value")
	}
	return req, nil
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
// sweep.MapN with the dedicated job pool size, and reports cumulative
// progress. The assembled result is encoded exactly as the synchronous
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

	// With a fabric attached, chunks shard across the fleet: the job key
	// (a digest of the raw body — journal-stable, so a replayed job
	// shards identically) places the job on the ring, and the rotation in
	// ChunkNodes spreads consecutive chunks across its owners. The raw
	// body travels with each dispatch so the remote node re-derives the
	// same axes this node validated.
	var jobKey string
	if s.cluster() != nil {
		sum := sha256.Sum256(raw)
		jobKey = hex.EncodeToString(sum[:])
	}

	resp := SweepResponse{Platform: a.p.Name(), Points: n}
	resp.Results = make([]RunResult, 0, n)
	for lo := 0; lo < n; lo += jobChunk {
		hi := min(lo+jobChunk, n)
		if rr, ok := s.runRemoteChunk(ctx, jobKey, raw, lo/jobChunk, lo, hi); ok {
			resp.Results = append(resp.Results, rr.Results...)
			resp.Failed += rr.Failed
			progress(hi, resp.Failed)
			continue
		}
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

	// Encode with the same settings writeJSON uses so the stored bytes
	// equal a synchronous response body for the same points (a clean run
	// omits failed_chunks, so the envelopes stay identical).
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(resp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// runRemoteChunk offers chunk [lo, hi) to its ring-assigned owner when
// that owner is a live remote peer. Only the rotation's first choice is
// consulted: when it is this node, the chunk is local by assignment (no
// reassignment counted); when it is a dead or breaker-open peer, or the
// dispatch fails, the chunk is reassigned to local execution — the same
// recompute fallback every other peer interaction has. The peer's
// ChunkResponse carries fully-labeled results produced by the exact
// code path the local chunk loop runs, so sharded job results stay
// byte-identical to single-node ones.
func (s *Server) runRemoteChunk(ctx context.Context, jobKey string, raw json.RawMessage, chunk, lo, hi int) (ChunkResponse, bool) {
	f := s.cluster()
	if f == nil {
		return ChunkResponse{}, false
	}
	nodes := f.ChunkNodes(jobKey, chunk)
	if len(nodes) == 0 || nodes[0] == f.NodeID() {
		return ChunkResponse{}, false
	}
	owner := nodes[0]
	if !f.ChunkEligible(owner) {
		f.NoteReassigned()
		return ChunkResponse{}, false
	}
	// Assemble the wire body around the raw journaled bytes — no
	// re-marshal of the request, so the remote decodes exactly what this
	// node validated.
	body := make([]byte, 0, len(raw)+64)
	body = append(body, `{"request":`...)
	body = append(body, raw...)
	body = append(body, `,"start":`...)
	body = strconv.AppendInt(body, int64(lo), 10)
	body = append(body, `,"end":`...)
	body = strconv.AppendInt(body, int64(hi), 10)
	body = append(body, '}')
	data, err := f.ExecuteChunk(ctx, owner, body)
	if err != nil {
		f.NoteReassigned()
		return ChunkResponse{}, false
	}
	var rr ChunkResponse
	if err := json.Unmarshal(data, &rr); err != nil || len(rr.Results) != hi-lo {
		// A peer answer that does not decode to exactly this range is
		// discarded, not patched: recomputing locally is cheap and always
		// right.
		f.NoteReassigned()
		return ChunkResponse{}, false
	}
	return rr, true
}
