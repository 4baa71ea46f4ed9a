package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"dabench/internal/experiments"
	"dabench/internal/model"
	"dabench/internal/platform"
	"dabench/internal/precision"
)

// maxBodyBytes bounds request bodies; specs are tiny and anything
// larger is a client bug or abuse.
const maxBodyBytes = 1 << 20

// RunRequest is the wire form of a TrainSpec plus its target platform:
// the same knobs the paper's "training configuration" input category
// and the CLI's profile flags expose. Zero-valued fields take the
// CLI's defaults (batch 512, seq 1024, FP16).
type RunRequest struct {
	Platform string `json:"platform"`
	Model    string `json:"model"`
	// Layers overrides the preset's decoder-layer count when > 0.
	Layers    int    `json:"layers,omitempty"`
	Batch     int    `json:"batch,omitempty"`
	Seq       int    `json:"seq,omitempty"`
	Precision string `json:"precision,omitempty"`
	// Mode is the RDU compile mode: "O0", "O1" or "O3".
	Mode             string `json:"mode,omitempty"`
	DataParallel     int    `json:"data_parallel,omitempty"`
	TensorParallel   int    `json:"tensor_parallel,omitempty"`
	PipelineParallel int    `json:"pipeline_parallel,omitempty"`
	LayerAssignment  []int  `json:"layer_assignment,omitempty"`
	WeightStreaming  bool   `json:"weight_streaming,omitempty"`
}

// SweepRequest is a RunRequest base point plus the axes to fan out:
// the cross product of layer counts, batch sizes and precision formats
// (an empty axis holds the base value fixed). Budget caps the point
// count for this request; the server clamps it to its own maximum.
type SweepRequest struct {
	RunRequest
	LayerCounts []int    `json:"layer_counts,omitempty"`
	Batches     []int    `json:"batches,omitempty"`
	Precisions  []string `json:"precisions,omitempty"`
	Budget      int      `json:"budget,omitempty"`
}

// RunResult is one compile+run outcome. A placement failure (the
// paper's "Fail" table entries) is a finding, not an error: it comes
// back with 200, Failed set, and the compiler's reason.
type RunResult struct {
	Label    string `json:"label,omitempty"`
	Platform string `json:"platform"`
	// SpecKey is the canonical spec fingerprint — the singleflight
	// compile-cache key this request coalesced on.
	SpecKey          string             `json:"spec_key"`
	Failed           bool               `json:"failed,omitempty"`
	FailReason       string             `json:"fail_reason,omitempty"`
	StepTimeSec      float64            `json:"step_time_sec,omitempty"`
	TokensPerSec     float64            `json:"tokens_per_sec,omitempty"`
	SamplesPerSec    float64            `json:"samples_per_sec,omitempty"`
	TFLOPS           float64            `json:"tflops,omitempty"`
	Efficiency       float64            `json:"efficiency,omitempty"`
	AI               float64            `json:"arithmetic_intensity,omitempty"`
	Allocation       map[string]float64 `json:"allocation,omitempty"`
	MemoryUsedMB     float64            `json:"memory_used_mb,omitempty"`
	MemoryCapacityMB float64            `json:"memory_capacity_mb,omitempty"`
	Notes            []string           `json:"notes,omitempty"`
}

// ErrorBody is the uniform error envelope payload. Limit and
// RequestedPoints are populated on sweep-budget rejections so clients
// learn the cap and their overshoot without parsing the message.
type ErrorBody struct {
	Code            string `json:"code"`
	Message         string `json:"message"`
	Limit           int    `json:"limit,omitempty"`
	RequestedPoints int64  `json:"requested_points,omitempty"`
	Hint            string `json:"hint,omitempty"`
}

type errorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// Error codes of the envelope.
const (
	CodeBadRequest    = "bad_request"
	CodeNotFound      = "not_found"
	CodeSaturated     = "saturated"
	CodeTimeout       = "timeout"
	CodeInternal      = "internal"
	CodeSweepTooLarge = "sweep_too_large"
	CodeNotReady      = "not_ready"
	CodeConflict      = "conflict"
	CodeQueueFull     = "queue_full"
)

// BudgetError is a sweep cross product over the request's point
// budget: a structured rejection, so the response can name both the
// limit and the requested size (and point at /v1/jobs, which has no
// synchronous cap).
type BudgetError struct {
	Points int64
	Budget int
}

// Error implements the error interface.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("sweep of %d points exceeds the budget of %d", e.Points, e.Budget)
}

// jsonBufPool recycles the encode buffers every response marshals
// through. Buffers that grew past maxPooledBuf are dropped instead of
// pinned — one multi-megabyte sweep response must not turn the pool
// into a leak.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuf = 1 << 20

// encodeJSON marshals v into a pooled buffer with the server's one
// encoder configuration (HTML escaping off, trailing newline — every
// byte-identity guarantee in this package rides on all paths using
// exactly this). The caller returns the buffer via putBuf.
func encodeJSON(v any) (*bytes.Buffer, error) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		jsonBufPool.Put(buf)
		return nil, err
	}
	return buf, nil
}

func putBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuf {
		jsonBufPool.Put(buf)
	}
}

// marshalJSON is encodeJSON for bytes that outlive the call: it returns
// an owned copy and recycles the pooled buffer.
func marshalJSON(v any) ([]byte, error) {
	buf, err := encodeJSON(v)
	if err != nil {
		return nil, err
	}
	b := append([]byte(nil), buf.Bytes()...)
	putBuf(buf)
	return b, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := encodeJSON(v)
	if err != nil {
		// Marshal failed before any header went out; answer a manual
		// envelope (writeError would recurse into this same path).
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write([]byte(`{"error":{"code":"internal","message":` +
			strconv.Quote("encode response: "+err.Error()) + "}}\n"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	putBuf(buf)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorEnvelope{Error: ErrorBody{Code: code, Message: msg}})
}

// decodeStrict decodes exactly one JSON value from rd: unknown fields
// and trailing data are client errors, never silently ignored. Every
// request decoder in the package goes through it.
func decodeStrict(rd io.Reader, v any) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode body: %w", err)
	}
	if dec.More() {
		return errors.New("decode body: trailing data after JSON value")
	}
	return nil
}

// decode parses a streamed JSON body strictly; an oversized body is a
// client error too.
func decode(w http.ResponseWriter, r *http.Request, v any) error {
	return decodeStrict(http.MaxBytesReader(w, r.Body, maxBodyBytes), v)
}

// bodyBuf is one pooled request-read buffer plus the bytes.Reader that
// re-reads it — both recycled together so the lean decode path costs
// zero steady-state allocations for the transport plumbing.
type bodyBuf struct {
	b  []byte
	rd bytes.Reader
}

var bodyBufPool = sync.Pool{New: func() any { return &bodyBuf{b: make([]byte, 4096)} }}

// readBody reads a Content-Length-framed body whole into a pooled
// buffer, returning the pooled holder plus the filled slice (which
// aliases the holder's storage). A chunked body — no Content-Length —
// returns a nil holder so callers fall back to the streaming decode.
// The caller must return the holder via putBodyBuf once the bytes are
// no longer referenced.
func readBody(r *http.Request) (*bodyBuf, []byte, error) {
	n := r.ContentLength
	if n < 0 {
		return nil, nil, nil
	}
	if n > maxBodyBytes {
		return nil, nil, fmt.Errorf("decode body: request body of %d bytes exceeds the %d-byte limit", n, maxBodyBytes)
	}
	bb := bodyBufPool.Get().(*bodyBuf)
	if int64(cap(bb.b)) < n {
		bb.b = make([]byte, n)
	}
	buf := bb.b[:n]
	if _, err := io.ReadFull(r.Body, buf); err != nil {
		bodyBufPool.Put(bb)
		return nil, nil, fmt.Errorf("decode body: %w", err)
	}
	return bb, buf, nil
}

// putBodyBuf recycles a readBody holder; a nil holder is a no-op.
func putBodyBuf(bb *bodyBuf) {
	if bb != nil {
		bodyBufPool.Put(bb)
	}
}

// decodeBody decodes one strict JSON value from buf through bb's pooled
// reader.
func decodeBody(bb *bodyBuf, buf []byte, v any) error {
	bb.rd.Reset(buf)
	return decodeStrict(&bb.rd, v)
}

// decodeLean is decode for the hot endpoints: when the client sent a
// Content-Length (every real client does), the body is read whole into
// a pooled buffer and decoded from memory — no bufio allocation per
// request. Chunked bodies fall back to the streaming decode. Strictness
// is identical: unknown fields, trailing data and oversized bodies are
// client errors.
func decodeLean(w http.ResponseWriter, r *http.Request, v any) error {
	bb, buf, err := readBody(r)
	if err != nil {
		return err
	}
	if bb == nil {
		return decode(w, r, v)
	}
	defer bodyBufPool.Put(bb)
	return decodeBody(bb, buf, v)
}

// resolve maps the request onto the process-wide cached platform set
// and a validated TrainSpec. All errors are client errors.
func (req RunRequest) resolve() (platform.CachedPlatform, platform.TrainSpec, error) {
	var spec platform.TrainSpec
	if req.Platform == "" {
		return nil, spec, errors.New("platform is required (wse, rdu, ipu, gpu)")
	}
	p, ok := experiments.SharedPlatform(req.Platform)
	if !ok {
		return nil, spec, fmt.Errorf("unknown platform %q (valid: %s)",
			req.Platform, strings.Join(experiments.PlatformNames(), ", "))
	}
	if req.Model == "" {
		return nil, spec, errors.New("model is required (run `dabench list` for the preset names)")
	}
	cfg, ok := model.ByName(req.Model)
	if !ok {
		return nil, spec, fmt.Errorf("unknown model %q", req.Model)
	}
	if req.Layers < 0 {
		return nil, spec, fmt.Errorf("layers %d must be >= 0", req.Layers)
	}
	if req.Layers > 0 {
		cfg = cfg.WithLayers(req.Layers)
	}

	spec = platform.TrainSpec{Model: cfg, Batch: req.Batch, Seq: req.Seq}
	if spec.Batch == 0 {
		spec.Batch = 512
	}
	if spec.Seq == 0 {
		spec.Seq = 1024
	}
	prec := req.Precision
	if prec == "" {
		prec = "FP16"
	}
	f, err := precision.Parse(prec)
	if err != nil {
		return nil, spec, err
	}
	spec.Precision = f

	spec.Par = platform.Parallelism{
		DataParallel:     req.DataParallel,
		TensorParallel:   req.TensorParallel,
		PipelineParallel: req.PipelineParallel,
		LayerAssignment:  req.LayerAssignment,
		WeightStreaming:  req.WeightStreaming,
	}
	mode, err := platform.ParseMode(req.Mode)
	if err != nil {
		return nil, spec, err
	}
	spec.Par.Mode = mode

	if err := spec.Validate(); err != nil {
		return nil, spec, err
	}
	return p, spec, nil
}

// sweepAxes is a validated sweep cross product in unexpanded form:
// the i-th point is derived on demand, so arbitrarily large products
// (async jobs walk them chunk by chunk) never materialize whole.
type sweepAxes struct {
	p       platform.CachedPlatform
	base    platform.TrainSpec
	layers  []int
	batches []int
	formats []precision.Format
}

// axes validates the request and its axis values without expanding the
// cross product. All errors are client errors.
func (req SweepRequest) axes() (*sweepAxes, error) {
	p, base, err := req.RunRequest.resolve()
	if err != nil {
		return nil, err
	}
	a := &sweepAxes{p: p, base: base, layers: req.LayerCounts, batches: req.Batches}
	if len(a.layers) == 0 {
		a.layers = []int{base.Model.NumLayers}
	}
	if len(a.batches) == 0 {
		a.batches = []int{base.Batch}
	}
	for _, l := range a.layers {
		if l <= 0 {
			return nil, fmt.Errorf("sweep axes must be positive (layer %d)", l)
		}
		if l > model.MaxLayers {
			return nil, fmt.Errorf("layer count %d exceeds the maximum of %d", l, model.MaxLayers)
		}
	}
	for _, b := range a.batches {
		if b <= 0 {
			return nil, fmt.Errorf("sweep axes must be positive (batch %d)", b)
		}
	}
	if len(req.Precisions) == 0 {
		a.formats = []precision.Format{base.Precision}
	} else {
		a.formats = make([]precision.Format, 0, len(req.Precisions))
		for _, s := range req.Precisions {
			f, err := precision.Parse(s)
			if err != nil {
				return nil, err
			}
			a.formats = append(a.formats, f)
		}
	}
	return a, nil
}

// product is the cross-product size. Axis lengths are bounded by the
// body cap (~1e5 each), so the 3-way product cannot overflow int64.
func (a *sweepAxes) product() int64 {
	return int64(len(a.layers)) * int64(len(a.batches)) * int64(len(a.formats))
}

// point derives the i-th spec and label in deterministic layer-major →
// batch → precision order (the order every results array follows).
func (a *sweepAxes) point(i int) (platform.TrainSpec, string, error) {
	nf, nb := len(a.formats), len(a.batches)
	l := a.layers[i/(nb*nf)]
	b := a.batches[(i/nf)%nb]
	f := a.formats[i%nf]
	spec := a.base
	spec.Model = spec.Model.WithLayers(l)
	spec.Batch = b
	spec.Precision = f
	if err := spec.Validate(); err != nil {
		return spec, "", err
	}
	return spec, fmt.Sprintf("L=%d/B=%d/%s", l, b, f), nil
}

// points expands the sweep into specs and labels after checking the
// product against budget arithmetically — one request with three
// large axes must fail cheaply, not materialize the product and take
// the process down with it. Over-budget requests return a *BudgetError
// so the handler can answer with the structured rejection.
func (req SweepRequest) points(budget int) (platform.CachedPlatform, []platform.TrainSpec, []string, error) {
	a, err := req.axes()
	if err != nil {
		return nil, nil, nil, err
	}
	n := a.product()
	if n > int64(budget) {
		return nil, nil, nil, &BudgetError{Points: n, Budget: budget}
	}
	specs := make([]platform.TrainSpec, 0, n)
	labels := make([]string, 0, n)
	for i := 0; i < int(n); i++ {
		spec, label, err := a.point(i)
		if err != nil {
			return nil, nil, nil, err
		}
		specs = append(specs, spec)
		labels = append(labels, label)
	}
	return a.p, specs, labels, nil
}

// result assembles the wire form of one compile+run outcome.
func result(p platform.Platform, spec platform.TrainSpec, cr *platform.CompileReport, rr *platform.RunReport) RunResult {
	res := RunResult{Platform: p.Name(), SpecKey: spec.Key()}
	if cr != nil {
		res.Allocation = make(map[string]float64, len(cr.Capacity))
		for r := range cr.Capacity {
			res.Allocation[string(r)] = cr.AllocationRatio(r)
		}
		res.MemoryUsedMB = cr.Memory.Used().MB()
		res.MemoryCapacityMB = cr.Memory.Capacity.MB()
		res.Notes = cr.Notes
	}
	if rr != nil {
		res.StepTimeSec = float64(rr.StepTime)
		res.TokensPerSec = rr.TokensPerSec
		res.SamplesPerSec = rr.SamplesPerSec
		res.TFLOPS = rr.Achieved.TFLOPS()
		res.Efficiency = rr.Efficiency
		res.AI = rr.AI
	}
	return res
}
