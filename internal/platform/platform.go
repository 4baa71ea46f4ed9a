// Package platform defines the cross-vendor abstraction at the heart of
// DABench-LLM: every accelerator backend exposes the same two-step
// Compile/Run contract, producing reports with enough per-task detail
// for the Tier-1 metrics (allocation ratio, load imbalance, utilization
// efficiency) and enough end-to-end detail for the Tier-2 scalability
// and deployment analyses.
//
// The paper stresses that its framework needs only three inputs —
// hardware specifications, runtime information, and the training
// configuration — and that most metrics come from compile-time data
// with a few (throughput, TFLOPs) from runtime. CompileReport and
// RunReport mirror that split.
package platform

import (
	"cmp"
	"errors"
	"fmt"
	"strings"

	"dabench/internal/metrics"
	"dabench/internal/model"
	"dabench/internal/precision"
	"dabench/internal/units"
)

// Resource names a class of allocatable on-chip units.
type Resource string

// Resource classes of the paper's platforms.
const (
	ResPE   Resource = "PE"   // Cerebras processing elements
	ResPCU  Resource = "PCU"  // SambaNova pattern compute units
	ResPMU  Resource = "PMU"  // SambaNova pattern memory units
	ResTile Resource = "Tile" // Graphcore tiles
	ResSM   Resource = "SM"   // GPU streaming multiprocessors
)

// CompileMode selects the RDU graph-partitioning strategy. Platforms
// without compile modes ignore it.
type CompileMode int

// RDU compilation modes (Section III-B of the paper).
const (
	ModeDefault CompileMode = iota
	ModeO0                  // operator mode: one operator per section
	ModeO1                  // module mode: operator fusion into modules
	ModeO3                  // full-graph mode: decoder-by-decoder sections
)

// String returns the mode name.
func (m CompileMode) String() string {
	switch m {
	case ModeO0:
		return "O0"
	case ModeO1:
		return "O1"
	case ModeO3:
		return "O3"
	default:
		return "default"
	}
}

// ParseMode converts a mode name ("O0", "O1", "O3", case-insensitive;
// "" means ModeDefault) into a CompileMode. Every mode-accepting wire
// surface (CLI flags, server requests, scenario documents) parses
// through this one function so the vocabulary cannot drift.
func ParseMode(s string) (CompileMode, error) {
	switch strings.ToUpper(s) {
	case "":
		return ModeDefault, nil
	case "O0":
		return ModeO0, nil
	case "O1":
		return ModeO1, nil
	case "O3":
		return ModeO3, nil
	default:
		return ModeDefault, fmt.Errorf("platform: unknown mode %q (valid: O0, O1, O3)", s)
	}
}

// Parallelism captures the multi-chip (Tier-2) deployment choices.
type Parallelism struct {
	// DataParallel is the replica count (WSE-2 intra-chip DP). 0 or 1
	// means no replication.
	DataParallel int
	// TensorParallel is the RDU TP degree across chips.
	TensorParallel int
	// PipelineParallel is the number of pipeline devices (IPUs).
	PipelineParallel int
	// LayerAssignment optionally pins decoder layers to pipeline
	// devices (Figure 11c); when empty, layers are balanced.
	LayerAssignment []int
	// WeightStreaming enables the WSE-2 mode that streams weights for
	// models too large for on-chip residence.
	WeightStreaming bool
	// Mode is the RDU compile mode.
	Mode CompileMode
}

// MaxParallelism bounds each parallelism degree and the length of a
// layer assignment. The paper never exceeds 64 devices per degree, and
// 1024 matches model.MaxLayers. The IPU simulator allocates one stage
// per pipeline device, so without a bound one request could make it
// allocate an arbitrary amount of memory.
const MaxParallelism = 1024

// TrainSpec is one training workload: the framework's "training
// configuration" input category.
type TrainSpec struct {
	Model     model.Config
	Batch     int
	Seq       int
	Precision precision.Format
	Par       Parallelism
}

// ParseSpec resolves the training-configuration knobs every entry point
// accepts (the CLI's profile flags, the server's run and sweep
// requests, a scenario's base) into a TrainSpec, so the defaults and
// the vocabulary cannot drift between them. Layers 0 keeps the preset's
// depth; zero batch and seq and an empty precision take the defaults
// 512, 1024 and FP16. The parallelism degrees stay zero and the spec is
// not validated, so callers set parallelism before Validate.
func ParseSpec(modelName string, layers, batch, seq int, prec, mode string) (TrainSpec, error) {
	if modelName == "" {
		return TrainSpec{}, errors.New("model is required (run `dabench list` for the preset names)")
	}
	cfg, ok := model.ByName(modelName)
	if !ok {
		return TrainSpec{}, fmt.Errorf("unknown model %q (try: dabench list)", modelName)
	}
	if layers < 0 {
		return TrainSpec{}, fmt.Errorf("layers %d must be >= 0", layers)
	}
	if layers > 0 {
		cfg = cfg.WithLayers(layers)
	}
	f, err := precision.Parse(cmp.Or(prec, "FP16"))
	if err != nil {
		return TrainSpec{}, err
	}
	m, err := ParseMode(mode)
	if err != nil {
		return TrainSpec{}, err
	}
	return TrainSpec{Model: cfg, Batch: cmp.Or(batch, 512), Seq: cmp.Or(seq, 1024),
		Precision: f, Par: Parallelism{Mode: m}}, nil
}

// Validate rejects inconsistent specs.
func (s TrainSpec) Validate() error {
	if err := s.Model.Validate(); err != nil {
		return err
	}
	if s.Batch <= 0 {
		return fmt.Errorf("platform: batch %d must be positive", s.Batch)
	}
	if s.Seq <= 0 {
		return fmt.Errorf("platform: sequence length %d must be positive", s.Seq)
	}
	if s.Seq > s.Model.MaxSeqLen {
		return fmt.Errorf("platform: sequence length %d exceeds model max %d", s.Seq, s.Model.MaxSeqLen)
	}
	p := s.Par
	if p.DataParallel < 0 || p.TensorParallel < 0 || p.PipelineParallel < 0 {
		return fmt.Errorf("platform: negative parallelism degree")
	}
	if p.DataParallel > MaxParallelism || p.TensorParallel > MaxParallelism || p.PipelineParallel > MaxParallelism {
		return fmt.Errorf("platform: parallelism degrees (data %d, tensor %d, pipeline %d) exceed the maximum of %d",
			p.DataParallel, p.TensorParallel, p.PipelineParallel, MaxParallelism)
	}
	if n := len(p.LayerAssignment); n > MaxParallelism {
		return fmt.Errorf("platform: layer assignment of %d entries exceeds the maximum of %d", n, MaxParallelism)
	}
	return nil
}

// Tokens returns tokens per step.
func (s TrainSpec) Tokens() float64 { return float64(s.Batch) * float64(s.Seq) }

// Units is a task's allocation per resource class: one field per
// Resource constant, named after it. It is a value, so a report's task
// rows carry their allocations inline rather than in a map each. The
// fields are declared in the sorted order of their names, the order
// encoding/json writes map keys in, and zero fields are omitted, so a
// row encodes as a map of its non-zero classes would.
type Units struct {
	PCU  float64 `json:",omitempty"`
	PE   float64 `json:",omitempty"`
	PMU  float64 `json:",omitempty"`
	SM   float64 `json:",omitempty"`
	Tile float64 `json:",omitempty"`
}

// Sum totals the allocation over all resource classes, in field order.
func (u Units) Sum() float64 { return u.PCU + u.PE + u.PMU + u.SM + u.Tile }

// Task is one schedulable unit the compiler produced: a kernel on the
// WSE, a section on the RDU, a pipeline stage on the IPU.
type Task struct {
	Name string
	// Kind labels the task granularity ("kernel", "section", "stage").
	Kind string
	// Units is the allocation per resource class.
	Units Units
	// Throughput is the task's isolated processing rate in samples/s.
	Throughput float64
	// Runtime is the wall time per invocation, the Lᵢ weight of the
	// paper's Eq. 2 and Eq. 4.
	Runtime units.Seconds
	// Invocations per training step (RDU sections run once per layer
	// in O0/O1).
	Invocations int
	FLOPs       units.FLOPs
	Traffic     units.Bytes
	// Ops optionally carries the operator rows inside the task, the
	// Eq. 3 input of the RDU's operator-level LI. Reports may share
	// one Ops slice between tasks; it is read-only.
	Ops []metrics.TaskSample
}

// MemoryUse breaks down on-chip memory at compile time (Figure 9a).
type MemoryUse struct {
	Capacity units.Bytes
	// Config is compiler metadata: kernel configuration, routing
	// tables (the component that crowds out training memory on WSE-2).
	Config  units.Bytes
	Weights units.Bytes
	// Activations at the compiled batch shape.
	Activations units.Bytes
	// Other covers optimizer state and scratch.
	Other units.Bytes
}

// Used sums the non-capacity fields.
func (m MemoryUse) Used() units.Bytes {
	return m.Config + m.Weights + m.Activations + m.Other
}

// Fits reports whether the usage is within capacity.
func (m MemoryUse) Fits() bool { return m.Used() <= m.Capacity }

// CompileReport is the compile-time output: allocations, task list,
// memory map.
type CompileReport struct {
	Platform string
	Spec     TrainSpec
	Tasks    []Task
	// Allocated and Capacity are per resource class, per chip.
	Allocated map[Resource]float64
	Capacity  map[Resource]float64
	Memory    MemoryUse
	// Notes carries compiler commentary (partitioning decisions,
	// shard counts) surfaced in reports.
	Notes []string
}

// AllocationRatio returns Allocated/Capacity for resource r.
func (c *CompileReport) AllocationRatio(r Resource) float64 {
	cap, ok := c.Capacity[r]
	if !ok || cap <= 0 {
		return 0
	}
	return units.Clamp(c.Allocated[r]/cap, 0, 1)
}

// RunReport is the runtime output of executing a compiled workload.
type RunReport struct {
	Compile *CompileReport
	// StepTime is the wall time of one optimizer step.
	StepTime units.Seconds
	// TokensPerSec and SamplesPerSec are the training throughput.
	TokensPerSec  float64
	SamplesPerSec float64
	// Achieved is the sustained compute rate.
	Achieved units.FLOPSRate
	// Efficiency is Achieved over the platform peak.
	Efficiency float64
	// AI is the platform-level arithmetic intensity at the global
	// memory tier (the x-coordinate on Figure 10).
	AI float64
}

// Spec is the framework's "hardware specifications" input category.
type Spec struct {
	Name string
	// Resources lists per-chip unit capacities.
	Resources map[Resource]float64
	// Peak16 is the peak 16-bit compute rate per chip.
	Peak16 units.FLOPSRate
	// OnChipMemory and OnChipBW describe the shared-memory tier.
	OnChipMemory units.Bytes
	OnChipBW     units.Bandwidth
	// GlobalMemory and GlobalBW describe the global tier (DDR for RDU
	// and IPU; the WSE's unified SRAM serves both roles).
	GlobalMemory units.Bytes
	GlobalBW     units.Bandwidth
}

// Platform is one accelerator backend.
type Platform interface {
	// Name identifies the platform ("WSE-2", "RDU", "IPU", "GPU").
	Name() string
	// HardwareSpec returns the static chip description.
	HardwareSpec() Spec
	// Compile maps the workload onto the chip. A *CompileError return
	// indicates the workload cannot be placed (the "Fail" entries of
	// Table I and Figure 9d).
	Compile(TrainSpec) (*CompileReport, error)
	// Run executes a compiled workload and reports throughput.
	Run(*CompileReport) (*RunReport, error)
}

// CompileError reports a workload that cannot be mapped onto the chip.
type CompileError struct {
	Platform string
	Reason   string
}

// Error implements the error interface.
func (e *CompileError) Error() string {
	return fmt.Sprintf("%s: compile failed: %s", e.Platform, e.Reason)
}

// IsCompileFailure reports whether err is a placement failure (as
// opposed to an invalid-input error).
func IsCompileFailure(err error) bool {
	_, ok := err.(*CompileError)
	return ok
}
