package platform

import (
	"errors"
	"testing"

	"dabench/internal/model"
)

func TestTrainSpecValidate(t *testing.T) {
	good := TrainSpec{Model: model.GPT2Small(), Batch: 4, Seq: 1024}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []TrainSpec{
		{Model: model.GPT2Small(), Batch: 0, Seq: 1},
		{Model: model.GPT2Small(), Batch: 1, Seq: 0},
		{Model: model.GPT2Small(), Batch: 1, Seq: 4096}, // beyond GPT-2 max
		{Model: model.GPT2Small(), Batch: 1, Seq: 1, Par: Parallelism{DataParallel: -1}},
		{Model: model.GPT2Small(), Batch: 1, Seq: 1, Par: Parallelism{DataParallel: MaxParallelism + 1}},
		{Model: model.GPT2Small(), Batch: 1, Seq: 1, Par: Parallelism{TensorParallel: MaxParallelism + 1}},
		{Model: model.GPT2Small(), Batch: 1, Seq: 1, Par: Parallelism{PipelineParallel: MaxParallelism + 1}},
		{Model: model.GPT2Small(), Batch: 1, Seq: 1, Par: Parallelism{PipelineParallel: 1 << 62}},
		{Model: model.GPT2Small(), Batch: 1, Seq: 1, Par: Parallelism{LayerAssignment: make([]int, MaxParallelism+1)}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	atBound := good
	atBound.Par = Parallelism{DataParallel: MaxParallelism, TensorParallel: MaxParallelism,
		PipelineParallel: MaxParallelism, LayerAssignment: make([]int, MaxParallelism)}
	if err := atBound.Validate(); err != nil {
		t.Errorf("spec at the parallelism bound rejected: %v", err)
	}
	if got := good.Tokens(); got != 4096 {
		t.Errorf("Tokens = %v", got)
	}
}

func TestCompileModeString(t *testing.T) {
	cases := map[CompileMode]string{
		ModeDefault: "default", ModeO0: "O0", ModeO1: "O1", ModeO3: "O3",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q", int(m), got)
		}
	}
}

func TestMemoryUse(t *testing.T) {
	m := MemoryUse{Capacity: 100, Config: 30, Weights: 40, Activations: 20, Other: 5}
	if m.Used() != 95 {
		t.Errorf("Used = %v", m.Used())
	}
	if !m.Fits() {
		t.Error("95 of 100 should fit")
	}
	m.Other = 15
	if m.Fits() {
		t.Error("105 of 100 should not fit")
	}
}

func TestAllocationRatio(t *testing.T) {
	cr := &CompileReport{
		Allocated: map[Resource]float64{ResPE: 722_000},
		Capacity:  map[Resource]float64{ResPE: 850_000},
	}
	if got := cr.AllocationRatio(ResPE); got < 0.849 || got > 0.851 {
		t.Errorf("ratio = %v", got)
	}
	if got := cr.AllocationRatio(ResPCU); got != 0 {
		t.Errorf("missing resource ratio = %v", got)
	}
}

func TestCompileError(t *testing.T) {
	var err error = &CompileError{Platform: "WSE-2", Reason: "OOM"}
	if !IsCompileFailure(err) {
		t.Error("CompileError not detected")
	}
	if IsCompileFailure(errors.New("other")) {
		t.Error("plain error misclassified")
	}
	if err.Error() != "WSE-2: compile failed: OOM" {
		t.Errorf("message = %q", err.Error())
	}
}
