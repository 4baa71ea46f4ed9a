package wse

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dabench/internal/metrics"
	"dabench/internal/model"
	"dabench/internal/platform"
	"dabench/internal/precision"
)

func spec(layers int) platform.TrainSpec {
	return platform.TrainSpec{
		Model:     model.GPT2Small().WithLayers(layers),
		Batch:     512,
		Seq:       1024,
		Precision: precision.FP16,
	}
}

func compile(t *testing.T, s platform.TrainSpec) *platform.CompileReport {
	t.Helper()
	cr, err := New().Compile(s)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return cr
}

func run(t *testing.T, s platform.TrainSpec) *platform.RunReport {
	t.Helper()
	sim := New()
	cr := compile(t, s)
	rr, err := sim.Run(cr)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rr
}

// Table I: allocation rises with depth, saturates at 92–93%, and the
// 78-layer configuration fails to compile.
func TestTableIAllocationCurve(t *testing.T) {
	anchors := []struct {
		layers  int
		lo, hi  float64
		failure bool
	}{
		{1, 0.28, 0.38, false},
		{6, 0.55, 0.67, false},
		{12, 0.80, 0.88, false},
		{24, 0.85, 0.93, false},
		{36, 0.88, 0.93, false},
		{72, 0.90, 0.93, false},
		{78, 0, 0, true},
	}
	for _, a := range anchors {
		cr, err := New().Compile(spec(a.layers))
		if a.failure {
			if err == nil {
				t.Errorf("L=%d: expected compile failure", a.layers)
			} else if !platform.IsCompileFailure(err) {
				t.Errorf("L=%d: want CompileError, got %v", a.layers, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("L=%d: %v", a.layers, err)
		}
		got := cr.AllocationRatio(platform.ResPE)
		if got < a.lo || got > a.hi {
			t.Errorf("L=%d: allocation %.3f outside [%v,%v]", a.layers, got, a.lo, a.hi)
		}
	}
}

func TestAllocationMonotoneUntilSaturation(t *testing.T) {
	prev := 0.0
	for _, l := range []int{1, 3, 6, 9, 12} {
		cr := compile(t, spec(l))
		got := cr.AllocationRatio(platform.ResPE)
		if got < prev {
			t.Errorf("allocation not monotone at L=%d: %.3f < %.3f", l, got, prev)
		}
		prev = got
	}
}

// Figure 6: per-attention-kernel PEs are stable below 12 layers and
// shrink elastically beyond; computation and transmission totals rise.
func TestFigure6ElasticAllocation(t *testing.T) {
	attnPE := func(cr *platform.CompileReport) float64 {
		for _, task := range cr.Tasks {
			if task.Name == "L0/attention" {
				return task.Units.PE
			}
		}
		t.Fatal("no attention kernel")
		return 0
	}
	txPE := func(cr *platform.CompileReport) float64 {
		for _, task := range cr.Tasks {
			if task.Kind == "transmission" {
				return task.Units.PE
			}
		}
		t.Fatal("no transmission task")
		return 0
	}

	at1 := attnPE(compile(t, spec(1)))
	at6 := attnPE(compile(t, spec(6)))
	if math.Abs(at1-at6)/at1 > 0.05 {
		t.Errorf("attention PEs should be stable below 12 layers: %v vs %v", at1, at6)
	}
	if at1 < 18_000 || at1 > 28_000 {
		t.Errorf("attention kernel PEs = %v, want ≈2.2×10⁴", at1)
	}
	at24 := attnPE(compile(t, spec(24)))
	at72 := attnPE(compile(t, spec(72)))
	if !(at72 < at24 && at24 < at6) {
		t.Errorf("attention PEs should shrink with depth: %v, %v, %v", at6, at24, at72)
	}
	if tx6, tx36 := txPE(compile(t, spec(6))), txPE(compile(t, spec(36))); tx36 <= tx6 {
		t.Errorf("transmission PEs should grow with depth: %v vs %v", tx6, tx36)
	}
}

// Figure 8a: kernel-level load imbalance over decoder kernels stays in
// the 0.96–1.0 band.
func TestFigure8KernelLI(t *testing.T) {
	for _, l := range []int{6, 12, 24, 36, 48} {
		cr := compile(t, spec(l))
		var tasks []metrics.TaskSample
		for _, task := range cr.Tasks {
			if task.Kind == "kernel" && strings.HasPrefix(task.Name, "L") {
				tasks = append(tasks, metrics.TaskSample{
					Name:       task.Name,
					Resources:  task.Units.PE,
					Throughput: task.Throughput,
				})
			}
		}
		li, err := metrics.LoadImbalance(tasks)
		if err != nil {
			t.Fatalf("L=%d: %v", l, err)
		}
		if li < 0.9 || li > 1.0 {
			t.Errorf("L=%d: kernel LI = %.3f, want 0.9–1.0", l, li)
		}
	}
}

// Figure 9a: TFLOPs rise into the high-200s/low-300s around 18–36
// layers (≈20% efficiency) and collapse near the memory wall.
func TestFigure9aComputeCurve(t *testing.T) {
	tf := map[int]float64{}
	for _, l := range []int{6, 12, 18, 24, 36, 60, 72} {
		tf[l] = run(t, spec(l)).Achieved.TFLOPS()
	}
	if !(tf[6] < tf[12] && tf[12] < tf[18]) {
		t.Errorf("TFLOPs should rise up to 18 layers: %v", tf)
	}
	if tf[18] < 270 || tf[18] > 360 {
		t.Errorf("peak TFLOPs = %v, want ≈300-340", tf[18])
	}
	if math.Abs(tf[36]-tf[18])/tf[18] > 0.12 {
		t.Errorf("TFLOPs should be stable 18–36 layers: %v vs %v", tf[18], tf[36])
	}
	if !(tf[60] < 0.8*tf[36] && tf[72] < 0.5*tf[36]) {
		t.Errorf("TFLOPs should collapse past the memory wall: %v", tf)
	}
	eff := run(t, spec(24)).Efficiency
	if eff < 0.15 || eff > 0.25 {
		t.Errorf("peak efficiency = %v, want ≈0.20", eff)
	}
}

// Figure 10a: arithmetic intensity spans ≈9–28 FLOPs/byte over 1–42
// layers, all deep in the compute-bound region of the 20 PB/s roofline.
func TestFigure10aAIBand(t *testing.T) {
	ai1 := run(t, spec(1)).AI
	ai42 := run(t, spec(42)).AI
	if ai1 < 7 || ai1 > 12 {
		t.Errorf("AI(1) = %v, want ≈9", ai1)
	}
	if ai42 < 24 || ai42 > 32 {
		t.Errorf("AI(42) = %v, want ≈28", ai42)
	}
	ridge := Peak16 / OnChipBW
	if ai1 < ridge*10 {
		t.Errorf("workloads must be far above the ridge %v", ridge)
	}
}

// Table III / Figure 11a: intra-chip data parallelism scales small
// models; the communication gap grows with replica count.
func TestDataParallelScaling(t *testing.T) {
	mini := platform.TrainSpec{
		Model: model.GPTMini(), Batch: 512, Seq: 1024, Precision: precision.FP16,
	}
	base := run(t, mini).TokensPerSec
	dp2 := mini
	dp2.Par.DataParallel = 2
	t2 := run(t, dp2).TokensPerSec
	dp4 := mini
	dp4.Par.DataParallel = 4
	t4 := run(t, dp4).TokensPerSec
	if !(base < t2 && t2 < t4) {
		t.Errorf("DP should scale: %v, %v, %v", base, t2, t4)
	}
	if t2 > 2.05*base {
		t.Errorf("DP2 superlinear: %v vs %v", t2, base)
	}
	// Per-replica efficiency declines beyond 2 replicas (placement
	// distance): speedup(4)/4 < speedup(2)/2.
	if t4/4 >= t2/2 {
		t.Errorf("replica efficiency should decline: t4/4=%v t2/2=%v", t4/4, t2/2)
	}
}

// Table III: weight streaming costs ≈20%.
func TestWeightStreamingPenalty(t *testing.T) {
	s := spec(12)
	base := run(t, s).TokensPerSec
	s.Par.WeightStreaming = true
	streamed := run(t, s).TokensPerSec
	ratio := streamed / base
	if ratio < 0.75 || ratio > 0.85 {
		t.Errorf("streaming ratio = %v, want ≈0.8", ratio)
	}
}

// Weight streaming rescues models that otherwise fail to compile.
func TestWeightStreamingRescuesLargeModels(t *testing.T) {
	s := spec(78)
	if _, err := New().Compile(s); err == nil {
		t.Fatal("78 layers should fail without streaming")
	}
	s.Par.WeightStreaming = true
	if _, err := New().Compile(s); err != nil {
		t.Fatalf("78 layers with streaming: %v", err)
	}
}

// Figure 12a: throughput gains are steep below batch 200 and flatten
// beyond.
func TestFigure12aBatchCurve(t *testing.T) {
	at := func(b int) float64 {
		s := spec(12)
		s.Batch = b
		return run(t, s).TokensPerSec
	}
	t50, t200, t400, t800 := at(50), at(200), at(400), at(800)
	if !(t50 < t200 && t200 < t400 && t400 < t800) {
		t.Fatalf("throughput must rise with batch: %v %v %v %v", t50, t200, t400, t800)
	}
	gainLow := t200 / t50   // 4× batch below the knee
	gainHigh := t800 / t200 // 4× batch above the knee
	if gainLow < 1.5 || gainHigh > 1.25 {
		t.Errorf("knee missing: low gain %v (want >1.5), high gain %v (want <1.25)", gainLow, gainHigh)
	}
}

// Table IV: CB16 beats FP16 by ≈10.7%.
func TestTableIVPrecision(t *testing.T) {
	s := spec(12)
	fp16 := run(t, s).TokensPerSec
	s.Precision = precision.CB16
	cb16 := run(t, s).TokensPerSec
	gain := cb16/fp16 - 1
	if math.Abs(gain-0.107) > 0.02 {
		t.Errorf("CB16 gain = %v, want ≈0.107", gain)
	}
}

func TestUnsupportedParallelism(t *testing.T) {
	s := spec(12)
	s.Par.TensorParallel = 2
	if _, err := New().Compile(s); err == nil {
		t.Error("TP accepted")
	}
	s = spec(12)
	s.Par.PipelineParallel = 4
	if _, err := New().Compile(s); err == nil {
		t.Error("PP accepted")
	}
}

func TestRunRejectsForeignReport(t *testing.T) {
	if _, err := New().Run(nil); err == nil {
		t.Error("nil report accepted")
	}
	if _, err := New().Run(&platform.CompileReport{Platform: "IPU"}); err == nil {
		t.Error("foreign report accepted")
	}
}

func TestHardwareSpec(t *testing.T) {
	hs := New().HardwareSpec()
	if hs.Resources[platform.ResPE] != TotalPEs {
		t.Errorf("PE capacity = %v", hs.Resources[platform.ResPE])
	}
	if hs.OnChipMemory != MemBytes || hs.GlobalBW != OnChipBW {
		t.Error("spec fields wrong")
	}
}

// Property: allocation ratio is always within (0, usableMax] and memory
// use never exceeds capacity for any compiling depth.
func TestCompileInvariants(t *testing.T) {
	f := func(n uint8) bool {
		l := int(n%72) + 1
		cr, err := New().Compile(spec(l))
		if err != nil {
			return platform.IsCompileFailure(err)
		}
		ratio := cr.AllocationRatio(platform.ResPE)
		return ratio > 0 && ratio <= usableMax+1e-9 && cr.Memory.Fits()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: throughput is monotone non-decreasing in batch size.
func TestBatchMonotoneProperty(t *testing.T) {
	f := func(n uint8) bool {
		b := int(n) + 1
		s1 := spec(12)
		s1.Batch = b
		s2 := spec(12)
		s2.Batch = b + 16
		sim := New()
		c1, err1 := sim.Compile(s1)
		c2, err2 := sim.Compile(s2)
		if err1 != nil || err2 != nil {
			return false
		}
		r1, err1 := sim.Run(c1)
		r2, err2 := sim.Run(c2)
		if err1 != nil || err2 != nil {
			return false
		}
		return r2.TokensPerSec >= r1.TokensPerSec-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
