package platform

import (
	"errors"
	"reflect"
	"testing"

	"dabench/internal/model"
	"dabench/internal/precision"
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

// TestParseSpec pins the one training-configuration resolver: zero
// values take the defaults, a positive depth overrides the preset's,
// and every unknown or missing name is an error, not a default.
func TestParseSpec(t *testing.T) {
	cases := []struct {
		name               string
		model              string
		layers, batch, seq int
		prec, mode         string
		wantLayers         int
		wantBatch, wantSeq int
		wantPrec           precision.Format
		wantMode           CompileMode
	}{
		{"defaults", "gpt2-small", 0, 0, 0, "", "", 12, 512, 1024, precision.FP16, ModeDefault},
		{"depth override", "gpt2-small", 4, 0, 0, "", "", 4, 512, 1024, precision.FP16, ModeDefault},
		{"explicit", "gpt2-small", 2, 8, 256, "bf16", "o3", 2, 8, 256, precision.BF16, ModeO3},
	}
	for _, c := range cases {
		spec, err := ParseSpec(c.model, c.layers, c.batch, c.seq, c.prec, c.mode)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if spec.Model.NumLayers != c.wantLayers || spec.Batch != c.wantBatch || spec.Seq != c.wantSeq ||
			spec.Precision != c.wantPrec {
			t.Errorf("%s: got %d layers, batch %d, seq %d, %s", c.name,
				spec.Model.NumLayers, spec.Batch, spec.Seq, spec.Precision)
		}
		if !reflect.DeepEqual(spec.Par, Parallelism{Mode: c.wantMode}) {
			t.Errorf("%s: parallelism %+v, want only the mode set", c.name, spec.Par)
		}
	}
	if spec, _ := ParseSpec("gpt2-small", 0, 0, 0, "", ""); spec.Model.Name != model.GPT2Small().Name {
		t.Errorf("depth 0 renamed the preset: %q", spec.Model.Name)
	}

	for name, args := range map[string]struct {
		model      string
		layers     int
		prec, mode string
	}{
		"negative depth":    {"gpt2-small", -1, "", ""},
		"empty model":       {"", 0, "", ""},
		"unknown model":     {"gpt5", 0, "", ""},
		"unknown precision": {"gpt2-small", 0, "int4", ""},
		"unknown mode":      {"gpt2-small", 0, "", "O7"},
	} {
		if _, err := ParseSpec(args.model, args.layers, 0, 0, args.prec, args.mode); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
