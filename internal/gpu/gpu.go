// Package gpu provides the von-Neumann / BSP reference baseline used in
// the paper's Table III: an A100-class 8-GPU node running Megatron-style
// tensor, pipeline and data parallelism. It exists only as a comparison
// row — the paper explicitly avoids cross-platform ranking — so the
// model is a standard analytic Megatron cost model rather than a
// microarchitectural simulator.
package gpu

import (
	"fmt"
	"math"

	"dabench/internal/platform"
	"dabench/internal/precision"
	"dabench/internal/units"
)

// Hardware constants (A100-80GB SXM node).
const (
	// GPUsPerNode is the node width.
	GPUsPerNode = 8
	// Peak16 is the per-GPU BF16 tensor-core peak.
	Peak16 = 312e12
	// HBMBytes and HBMBW describe the per-GPU memory.
	HBMBytes = 80e9
	HBMBW    = 2.0e12
	// NVLinkBW is the intra-node all-reduce bandwidth per GPU.
	NVLinkBW = 600e9
	// IBBW is the cross-node InfiniBand bandwidth per GPU.
	IBBW = 25e9
)

// Calibration constants. Anchor: Table III's GPU reference rows for the
// GPT-2 XL workload (155.3 samples/s at T8P1D1 down to 120.4 at T1P8D1,
// with large-scale runs slightly ahead per node).
const (
	baseEff        = 0.62  // kernel efficiency of the BSP execution model
	tpPenaltySlope = 0.008 // per-rank all-reduce exposure within a node
	microbatches   = 16.0  // in-flight microbatches per pipeline
	dpBatchBoost   = 0.02  // large-batch kernel-efficiency gain per log2(DP)
	dpCommPenalty  = 0.004 // gradient all-reduce exposure per log2(DP)
)

func precFactor(f precision.Format) float64 {
	switch f {
	case precision.FP32:
		return 0.5
	case precision.Mixed:
		return 0.95
	default:
		return 1.0
	}
}

// Sim is the GPU-node reference model. The zero value is ready to use.
type Sim struct{}

// New returns a GPU baseline simulator.
func New() *Sim { return &Sim{} }

// Name implements platform.Platform.
func (*Sim) Name() string { return "GPU" }

// HardwareSpec implements platform.Platform.
func (*Sim) HardwareSpec() platform.Spec {
	return platform.Spec{
		Name:         "NVIDIA A100 node (reference)",
		Resources:    map[platform.Resource]float64{platform.ResSM: 108 * GPUsPerNode},
		Peak16:       Peak16,
		OnChipMemory: 40e6 * GPUsPerNode, // SM shared memory + L2, per node
		OnChipBW:     19e12,
		GlobalMemory: HBMBytes * GPUsPerNode,
		GlobalBW:     HBMBW,
	}
}

// Compile implements platform.Platform. The GPU baseline has no
// dataflow compiler; Compile validates the deployment and records the
// parallel decomposition.
func (s *Sim) Compile(spec platform.TrainSpec) (*platform.CompileReport, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	tp, pp, dp := degrees(spec.Par)
	if tp*pp > GPUsPerNode && tp > 1 && tp*pp%GPUsPerNode != 0 {
		return nil, fmt.Errorf("gpu: TP×PP=%d must tile %d-GPU nodes", tp*pp, GPUsPerNode)
	}
	// Per-GPU memory: the model shard plus optimizer state must fit.
	p := float64(spec.Model.Params())
	perGPU := p * 18 / float64(tp*pp) // mixed-precision Megatron bytes/param
	if perGPU > HBMBytes {
		return nil, &platform.CompileError{
			Platform: s.Name(),
			Reason: fmt.Sprintf("model shard %s exceeds HBM %s at TP%d·PP%d",
				units.Bytes(perGPU), units.Bytes(float64(HBMBytes)), tp, pp),
		}
	}
	gpus := float64(tp * pp * dp)
	return &platform.CompileReport{
		Platform: s.Name(),
		Spec:     spec,
		Tasks: []platform.Task{{
			Name: fmt.Sprintf("T%dP%dD%d", tp, pp, dp), Kind: "decomposition",
			Units: platform.Units{SM: 108 * gpus},
		}},
		Allocated: map[platform.Resource]float64{platform.ResSM: 108 * gpus},
		Capacity:  map[platform.Resource]float64{platform.ResSM: 108 * gpus},
		Memory: platform.MemoryUse{
			Capacity: units.Bytes(HBMBytes),
			Weights:  units.Bytes(perGPU),
		},
		Notes: []string{fmt.Sprintf("tp=%d pp=%d dp=%d gpus=%.0f", tp, pp, dp, gpus)},
	}, nil
}

func degrees(p platform.Parallelism) (tp, pp, dp int) {
	tp, pp, dp = p.TensorParallel, p.PipelineParallel, p.DataParallel
	if tp < 1 {
		tp = 1
	}
	if pp < 1 {
		pp = 1
	}
	if dp < 1 {
		dp = 1
	}
	return
}

// Run implements platform.Platform: the Megatron efficiency model.
// Reported throughput is per 8-GPU node, matching Table III's
// normalization.
func (s *Sim) Run(cr *platform.CompileReport) (*platform.RunReport, error) {
	if cr == nil || cr.Platform != s.Name() {
		return nil, fmt.Errorf("gpu: run requires a GPU compile report")
	}
	spec := cr.Spec
	tp, pp, dp := degrees(spec.Par)

	// Tensor parallelism exposes all-reduce latency per rank.
	tpEff := 1 / (1 + tpPenaltySlope*float64(tp-1))
	// Pipeline bubble: (pp-1)/(m+pp-1); data parallelism enlarges the
	// global batch, deepening the microbatch stream.
	m := microbatches * math.Max(1, float64(dp))
	ppEff := 1.0
	if pp > 1 {
		ppEff = 1 - float64(pp-1)/(m+float64(pp-1))
	}
	// Data parallelism: gradient all-reduce exposure, offset by the
	// kernel-efficiency gain of larger per-step batches.
	dpEff := (1 + dpBatchBoost*math.Log2(math.Max(1, float64(dp)))) /
		(1 + dpCommPenalty*math.Log2(math.Max(1, float64(dp))))

	eff := baseEff * tpEff * ppEff * dpEff * precFactor(spec.Precision)
	perGPU := Peak16 * eff
	nodeRate := perGPU * GPUsPerNode // Table III normalizes per node

	flopsPerSample := float64(spec.Model.TrainFLOPsPerToken(spec.Seq)) * float64(spec.Seq)
	samplesPerSec := nodeRate / flopsPerSample
	ai := flopsPerSample / (float64(spec.Model.Params()) * 6 / float64(spec.Batch) * 4)

	return &platform.RunReport{
		Compile:       cr,
		StepTime:      units.Seconds(float64(spec.Batch) / samplesPerSec),
		TokensPerSec:  samplesPerSec * float64(spec.Seq),
		SamplesPerSec: samplesPerSec,
		Achieved:      units.FLOPSRate(nodeRate),
		Efficiency:    eff,
		AI:            ai,
	}, nil
}
