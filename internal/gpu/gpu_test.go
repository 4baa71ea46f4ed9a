package gpu

import (
	"fmt"
	"testing"

	"dabench/internal/model"
	"dabench/internal/platform"
	"dabench/internal/precision"
)

func xl(tp, pp, dp int) platform.TrainSpec {
	return platform.TrainSpec{
		Model: model.GPT2XL(), Batch: 64, Seq: 1024, Precision: precision.BF16,
		Par: platform.Parallelism{TensorParallel: tp, PipelineParallel: pp, DataParallel: dp},
	}
}

func run(t *testing.T, s platform.TrainSpec) *platform.RunReport {
	t.Helper()
	sim := New()
	cr, err := sim.Compile(s)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	rr, err := sim.Run(cr)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rr
}

// Table III GPU reference ordering: within a node, TP-heavy beats
// PP-heavy (155.3 > 145.2 > 135.8 > 120.4 samples/s for GPT-2 XL), and
// large-scale DP runs land slightly ahead per node.
func TestTableIIIOrdering(t *testing.T) {
	t8p1 := run(t, xl(8, 1, 1)).SamplesPerSec
	t4p2 := run(t, xl(4, 2, 1)).SamplesPerSec
	t2p4 := run(t, xl(2, 4, 1)).SamplesPerSec
	t1p8 := run(t, xl(1, 8, 1)).SamplesPerSec
	if !(t8p1 > t4p2 && t4p2 > t2p4 && t2p4 > t1p8) {
		t.Errorf("ordering violated: %v %v %v %v", t8p1, t4p2, t2p4, t1p8)
	}
	// Magnitudes in the paper's 120–165 samples/s band.
	if t8p1 < 130 || t8p1 > 185 {
		t.Errorf("T8P1D1 = %v samples/s, want ≈155", t8p1)
	}
	if t1p8 < 100 || t1p8 > 140 {
		t.Errorf("T1P8D1 = %v samples/s, want ≈120", t1p8)
	}
	// PP-heavy loses ≈20–25% to the pipeline bubble.
	if r := t1p8 / t8p1; r < 0.70 || r > 0.90 {
		t.Errorf("T1P8/T8P1 = %v, want ≈0.78", r)
	}
	// Scale-out runs slightly ahead per node (163.2 vs 155.3).
	big := run(t, xl(8, 8, 16)).SamplesPerSec
	if big <= t1p8 {
		t.Errorf("T8P8D16 = %v should beat PP-only single node %v", big, t1p8)
	}
}

func TestHBMCapacityGate(t *testing.T) {
	s := platform.TrainSpec{
		Model: model.LLaMA2_70B(), Batch: 8, Seq: 4096, Precision: precision.Mixed,
		Par: platform.Parallelism{TensorParallel: 1, PipelineParallel: 1},
	}
	if _, err := New().Compile(s); !platform.IsCompileFailure(err) {
		t.Errorf("70B on one GPU should fail: %v", err)
	}
	s.Par = platform.Parallelism{TensorParallel: 8, PipelineParallel: 4}
	if _, err := New().Compile(s); err != nil {
		t.Errorf("70B on 32 GPUs should fit: %v", err)
	}
}

func TestPrecisionAndForeignReport(t *testing.T) {
	fp32 := run(t, func() platform.TrainSpec { s := xl(8, 1, 1); s.Precision = precision.FP32; return s }())
	bf16 := run(t, xl(8, 1, 1))
	if fp32.SamplesPerSec >= bf16.SamplesPerSec {
		t.Error("FP32 should be slower than BF16")
	}
	if _, err := New().Run(&platform.CompileReport{Platform: "IPU"}); err == nil {
		t.Error("foreign report accepted")
	}
}

// TestDecompositionTextMatchesSprintf: the task name and note built
// with strconv read exactly as the fmt.Sprintf forms they replace.
func TestDecompositionTextMatchesSprintf(t *testing.T) {
	for tp := 1; tp <= 64; tp++ {
		for pp := 1; pp <= 64; pp++ {
			for dp := 1; dp <= 64; dp++ {
				if got, want := decompositionName(tp, pp, dp), fmt.Sprintf("T%dP%dD%d", tp, pp, dp); got != want {
					t.Fatalf("decompositionName(%d, %d, %d) = %q, want %q", tp, pp, dp, got, want)
				}
				gpus := float64(tp * pp * dp)
				if got, want := decompositionNote(tp, pp, dp, gpus), fmt.Sprintf("tp=%d pp=%d dp=%d gpus=%.0f", tp, pp, dp, gpus); got != want {
					t.Fatalf("decompositionNote(%d, %d, %d) = %q, want %q", tp, pp, dp, got, want)
				}
			}
		}
	}
}
