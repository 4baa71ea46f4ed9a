package ipu

import (
	"math"
	"testing"
	"testing/quick"

	"dabench/internal/model"
	"dabench/internal/platform"
	"dabench/internal/precision"
)

func spec(layers int) platform.TrainSpec {
	return platform.TrainSpec{
		Model: model.GPT2Small().WithLayers(layers), Batch: 2048, Seq: 1024,
		Precision: precision.FP16,
	}
}

func mustRun(t *testing.T, s platform.TrainSpec) *platform.RunReport {
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

// Figure 9d: memory grows linearly with layers and execution fails
// near 10 layers (HS 768); TFLOPs plateau by ≈4 layers.
func TestFigure9dMemoryWall(t *testing.T) {
	sim := New()
	var prev float64
	for _, l := range []int{1, 2, 4, 6, 8} {
		cr, err := sim.Compile(spec(l))
		if err != nil {
			t.Fatalf("L=%d: %v", l, err)
		}
		used := float64(cr.Memory.Used())
		if used <= prev {
			t.Errorf("memory should grow with layers: %v at L=%d", used, l)
		}
		prev = used
	}
	// ≈65 MB at 8 layers.
	cr8, _ := sim.Compile(spec(8))
	if mb := cr8.Memory.Used().MB(); mb < 55 || mb > 75 {
		t.Errorf("memory at 8 layers = %v MB, want ≈65", mb)
	}
	// Failure at 10 layers.
	if _, err := sim.Compile(spec(10)); !platform.IsCompileFailure(err) {
		t.Errorf("10 layers should fail to place: %v", err)
	}
}

func TestFigure9dComputePlateau(t *testing.T) {
	t1 := mustRun(t, spec(1)).Achieved.TFLOPS()
	t4 := mustRun(t, spec(4)).Achieved.TFLOPS()
	t8 := mustRun(t, spec(8)).Achieved.TFLOPS()
	if !(t1 < t4 && t4 <= t8) {
		t.Fatalf("TFLOPs should rise then plateau: %v %v %v", t1, t4, t8)
	}
	if (t8-t4)/t4 > 0.1 {
		t.Errorf("plateau missing: %v -> %v", t4, t8)
	}
	// Paper band: 91–143 TFLOPs at 41% peak efficiency.
	if t8 < 91 || t8 > 150 {
		t.Errorf("TFLOPs at 8 layers = %v, want 91–143", t8)
	}
	eff := mustRun(t, spec(8)).Efficiency
	if eff < 0.30 || eff > 0.45 {
		t.Errorf("efficiency = %v, want ≈0.41", eff)
	}
}

// Figure 11c / Table III: pipeline throughput is set by the most
// heavily loaded IPU.
func TestFigure11cMaxLayersDominates(t *testing.T) {
	run := func(assign []int) float64 {
		total := 0
		for _, v := range assign {
			total += v
		}
		s := platform.TrainSpec{
			Model: model.GPT2Small().WithLayers(total), Batch: 2048, Seq: 1024,
			Precision: precision.FP16,
			Par: platform.Parallelism{
				PipelineParallel: len(assign) + 1,
				LayerAssignment:  assign,
			},
		}
		return mustRun(t, s).SamplesPerSec
	}
	// Same total layers, different balance: the balanced assignment
	// wins, and equal max-layers configurations tie approximately.
	balanced := run([]int{2, 2, 2})
	skewed := run([]int{4, 1, 1})
	if balanced <= skewed {
		t.Errorf("balanced %v should beat skewed %v", balanced, skewed)
	}
	a := run([]int{4, 4, 4})
	b := run([]int{4, 4, 2, 2})
	if math.Abs(a-b)/a > 0.05 {
		t.Errorf("equal max layers should tie: %v vs %v", a, b)
	}
	// Throughput roughly inversely proportional to max layers once
	// TFLOPs saturate.
	r2 := run([]int{2, 2, 2})
	r4 := run([]int{4, 4, 4})
	ratio := r2 / r4
	if ratio < 1.3 || ratio > 2.2 {
		t.Errorf("2-vs-4 layer stage ratio = %v, want ≈2 (sub-linear from overhead)", ratio)
	}
}

func TestBalancedDefaultAssignment(t *testing.T) {
	s := platform.TrainSpec{
		Model: model.GPT2Small().WithLayers(12), Batch: 256, Seq: 128,
		Precision: precision.FP16,
		Par:       platform.Parallelism{PipelineParallel: 4},
	}
	cr, err := New().Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	// 12 layers over 3 decoder IPUs: 4 each; stages = embed + 3.
	if len(cr.Tasks) != 4 {
		t.Fatalf("stages = %d, want 4", len(cr.Tasks))
	}
}

// Pipeline parallelism unlocks depths a single IPU cannot hold.
func TestPPRescuesDeepModels(t *testing.T) {
	sim := New()
	deep := spec(24)
	if _, err := sim.Compile(deep); !platform.IsCompileFailure(err) {
		t.Fatalf("24 layers on one IPU should fail: %v", err)
	}
	deep.Par.PipelineParallel = 8
	if _, err := sim.Compile(deep); err != nil {
		t.Errorf("24 layers over 8 IPUs should place: %v", err)
	}
}

// Figure 12c: batch scaling is near-linear across the paper's range.
func TestFigure12cBatch(t *testing.T) {
	at := func(b int) float64 {
		s := spec(4)
		s.Batch = b
		return mustRun(t, s).SamplesPerSec
	}
	t50, t100, t200 := at(50), at(100), at(200)
	if !(t50 < t100 && t100 < t200) {
		t.Fatalf("batch scaling broken: %v %v %v", t50, t100, t200)
	}
	// Near-linear: doubling batch gains at least 1.6×.
	if t100/t50 < 1.6 || t200/t100 < 1.5 {
		t.Errorf("batch curve should be near-linear: %v %v %v", t50, t100, t200)
	}
}

// Table IV: mixed precision gains ≈22% over full precision.
func TestTableIVPrecision(t *testing.T) {
	s := spec(2) // FP32 activations are twice as large; 2 layers fit
	s.Precision = precision.FP32
	full := mustRun(t, s).SamplesPerSec
	s.Precision = precision.Mixed
	mixed := mustRun(t, s).SamplesPerSec
	gain := mixed/full - 1
	if math.Abs(gain-0.22) > 0.02 {
		t.Errorf("mixed gain = %v, want ≈0.22", gain)
	}
}

// Figure 10c: AI sits in the 20–42 band, below the ≈44 FLOPs/byte
// ridge (memory-bound, near the boundary).
func TestFigure10cAI(t *testing.T) {
	ridge := Peak16 / ExchangeBW
	a1 := mustRun(t, spec(1)).AI
	a8 := mustRun(t, spec(8)).AI
	if a1 < 15 || a1 > 30 {
		t.Errorf("AI(1) = %v, want ≈22", a1)
	}
	if a8 <= a1 || a8 > ridge {
		t.Errorf("AI(8) = %v, want rising but below ridge %v", a8, ridge)
	}
}

func TestAssignmentValidation(t *testing.T) {
	s := spec(4)
	s.Par.PipelineParallel = 3
	s.Par.LayerAssignment = []int{2, 1} // covers 3 of 4 layers
	if _, err := New().Compile(s); err == nil {
		t.Error("short assignment accepted")
	}
	s.Par.LayerAssignment = []int{2, 2, 1}
	if _, err := New().Compile(s); err == nil {
		t.Error("assignment/PP mismatch accepted")
	}
	s.Par.LayerAssignment = []int{5, -1}
	if _, err := New().Compile(s); err == nil {
		t.Error("negative assignment accepted")
	}
}

// TestPipelineAtTheParallelismBound: the largest pipeline
// TrainSpec.Validate accepts (one embedding IPU plus MaxParallelism-1
// decoder IPUs, most of them holding no layer) and the longest accepted
// explicit assignment still compile and run.
func TestPipelineAtTheParallelismBound(t *testing.T) {
	s := spec(4)
	s.Par.PipelineParallel = platform.MaxParallelism
	rr := mustRun(t, s)
	if n := len(rr.Compile.Tasks); n != platform.MaxParallelism {
		t.Errorf("stage tasks = %d, want %d", n, platform.MaxParallelism)
	}

	s = spec(4)
	s.Par.LayerAssignment = make([]int, platform.MaxParallelism)
	s.Par.LayerAssignment[0] = 4
	mustRun(t, s)
}

func TestRejectsUnsupportedParallelism(t *testing.T) {
	s := spec(4)
	s.Par.TensorParallel = 2
	if _, err := New().Compile(s); err == nil {
		t.Error("TP accepted")
	}
	s = spec(4)
	s.Par.DataParallel = 2
	if _, err := New().Compile(s); err == nil {
		t.Error("DP accepted")
	}
}

func TestRunRejectsForeignReport(t *testing.T) {
	if _, err := New().Run(nil); err == nil {
		t.Error("nil report accepted")
	}
	if _, err := New().Run(&platform.CompileReport{Platform: "RDU"}); err == nil {
		t.Error("foreign report accepted")
	}
}

// Property: for any assignment of a fixed total, throughput never
// exceeds the perfectly balanced assignment's.
func TestBalancedIsOptimalProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		x, y, z := int(a%5)+1, int(b%5)+1, int(c%5)+1
		total := x + y + z
		run := func(assign []int) float64 {
			s := platform.TrainSpec{
				Model: model.GPT2Small().WithLayers(total), Batch: 512, Seq: 1024,
				Precision: precision.FP16,
				Par: platform.Parallelism{
					PipelineParallel: 4, LayerAssignment: assign,
				},
			}
			sim := New()
			cr, err := sim.Compile(s)
			if err != nil {
				return -1
			}
			rr, err := sim.Run(cr)
			if err != nil {
				return -1
			}
			return rr.SamplesPerSec
		}
		arbitrary := run([]int{x, y, z})
		bal := total / 3
		rem := total % 3
		assign := []int{bal, bal, bal}
		for i := 0; i < rem; i++ {
			assign[i]++
		}
		balanced := run(assign)
		if arbitrary < 0 || balanced < 0 {
			return true // placement failure path is covered elsewhere
		}
		return arbitrary <= balanced*1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
