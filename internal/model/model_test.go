package model

import (
	"math"
	"testing"
	"testing/quick"

	"dabench/internal/precision"
)

func TestGPT2SmallParamCount(t *testing.T) {
	// GPT-2 small is the canonical 124M-parameter model.
	p := GPT2Small().Params()
	if p < 120e6 || p > 130e6 {
		t.Errorf("GPT-2 small params = %d, want ≈124M", p)
	}
}

func TestGPT2XLParamCount(t *testing.T) {
	p := GPT2XL().Params()
	if p < 1.4e9 || p > 1.7e9 {
		t.Errorf("GPT-2 XL params = %d, want ≈1.5B", p)
	}
}

func TestLLaMA7BParamCount(t *testing.T) {
	p := LLaMA2_7B().Params()
	if p < 6.5e9 || p > 7.0e9 {
		t.Errorf("LLaMA-2 7B params = %d, want ≈6.7B", p)
	}
}

func TestLLaMA70BParamCount(t *testing.T) {
	p := LLaMA2_70B().Params()
	if p < 65e9 || p > 72e9 {
		t.Errorf("LLaMA-2 70B params = %d, want ≈69B", p)
	}
}

func TestSwiGLUWidth(t *testing.T) {
	if got := swigluWidth(4096); got != 11008 {
		t.Errorf("swigluWidth(4096) = %d, want 11008", got)
	}
}

func TestValidate(t *testing.T) {
	good := GPT2Small()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		func() Config { c := good; c.HiddenSize = 0; return c }(),
		func() Config { c := good; c.NumLayers = -1; return c }(),
		func() Config { c := good; c.NumLayers = MaxLayers + 1; return c }(),
		func() Config { c := good; c.NumHeads = 5; return c }(), // 768 % 5 != 0
		func() Config { c := good; c.KVHeads = 7; return c }(),  // 12 % 7 != 0
		func() Config { c := good; c.FFNHidden = 0; return c }(),
		func() Config { c := good; c.VocabSize = 0; return c }(),
		func() Config { c := good; c.MaxSeqLen = 0; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	for _, c := range Presets() {
		if err := c.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", c.Name, err)
		}
	}
	if err := good.WithLayers(MaxLayers).Validate(); err != nil {
		t.Errorf("config at the layer bound rejected: %v", err)
	}
}

func TestWithLayers(t *testing.T) {
	c := GPT2Small().WithLayers(36)
	if c.NumLayers != 36 {
		t.Fatalf("layers = %d", c.NumLayers)
	}
	if c.Name != "gpt2-small-L36" {
		t.Errorf("name = %q", c.Name)
	}
	// Repeated application must not stack suffixes.
	c2 := c.WithLayers(48)
	if c2.Name != "gpt2-small-L48" {
		t.Errorf("stacked name = %q", c2.Name)
	}
	// Params scale approximately linearly in layers for fixed width.
	p12 := float64(GPT2Small().Params())
	p24 := float64(GPT2Small().WithLayers(24).Params())
	layer := float64(GPT2Small().LayerParams())
	if math.Abs((p24-p12)-12*layer) > 1 {
		t.Errorf("params not linear in layers: delta=%v want %v", p24-p12, 12*layer)
	}
}

func TestWithHidden(t *testing.T) {
	c := GPT2Small().WithHidden(1024)
	if c.HiddenSize != 1024 {
		t.Fatalf("hidden = %d", c.HiddenSize)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("WithHidden produced invalid config: %v", err)
	}
	if c.FFNHidden != 4096 {
		t.Errorf("FFN = %d, want 4096", c.FFNHidden)
	}
	l := LLaMA2_7B().WithHidden(8192)
	if err := l.Validate(); err != nil {
		t.Fatalf("LLaMA WithHidden invalid: %v", err)
	}
	if l.FFNHidden != swigluWidth(8192) {
		t.Errorf("LLaMA FFN = %d, want %d", l.FFNHidden, swigluWidth(8192))
	}
}

func TestWithHiddenAwkwardWidths(t *testing.T) {
	// The paper sweeps HS 480..1600 on the RDU; all must validate.
	for _, h := range []int{480, 768, 1024, 1280, 1600, 3072, 4096, 5120, 6656, 8192} {
		c := GPT2Small().WithHidden(h)
		if err := c.Validate(); err != nil {
			t.Errorf("WithHidden(%d): %v", h, err)
		}
	}
}

func TestGQAShrinksKV(t *testing.T) {
	mha := LLaMA2Config("x", 8192, 1, 64, 64)
	gqa := LLaMA2Config("x", 8192, 1, 64, 8)
	if gqa.AttentionParams() >= mha.AttentionParams() {
		t.Errorf("GQA params %d should be < MHA params %d",
			gqa.AttentionParams(), mha.AttentionParams())
	}
}

func TestTiedHeadHasNoExtraParams(t *testing.T) {
	tied := GPT2Small()
	untied := tied
	untied.TiedEmbeddings = false
	diff := untied.Params() - tied.Params()
	want := int64(tied.VocabSize) * int64(tied.HiddenSize)
	if diff != want {
		t.Errorf("untied-tied = %d, want %d", diff, want)
	}
}

func TestTrainFLOPsMatches6P(t *testing.T) {
	// For wide-short models the 6·P·token approximation should be close
	// to the operator-level count (attention quadratic term is small).
	c := LLaMA2_7B()
	seq := 512
	perTok := float64(c.TrainFLOPsPerToken(seq))
	approx := 6 * float64(c.Params())
	ratio := perTok / approx
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("train FLOPs/token = %.3g, 6P = %.3g, ratio %.2f out of band", perTok, approx, ratio)
	}
}

func TestTrainFLOPsScalesWithBatch(t *testing.T) {
	c := GPT2Small()
	f1 := float64(c.TrainFLOPs(1, 1024))
	f8 := float64(c.TrainFLOPs(8, 1024))
	if math.Abs(f8-8*f1) > 1e-6*f8 {
		t.Errorf("FLOPs not linear in batch: %v vs %v", f8, 8*f1)
	}
}

func TestTrainingMemoryBreakdown(t *testing.T) {
	c := GPT2Small()
	m := c.TrainingMemory(8, 1024, precision.Mixed)
	if m.Weights <= 0 || m.Gradients <= 0 || m.Optimizer <= 0 || m.Activations <= 0 {
		t.Fatalf("non-positive component: %+v", m)
	}
	// Mixed keeps a 4-byte master copy: optimizer = 12 bytes/param.
	wantOpt := 12 * float64(c.Params())
	if math.Abs(float64(m.Optimizer)-wantOpt) > 1 {
		t.Errorf("optimizer bytes = %v, want %v", m.Optimizer, wantOpt)
	}
	if m.Total() != m.Weights+m.Gradients+m.Optimizer+m.Activations {
		t.Error("Total() does not sum components")
	}
	// FP32 training needs more weight+grad memory than mixed.
	full := c.TrainingMemory(8, 1024, precision.FP32)
	if full.Weights <= m.Weights {
		t.Error("FP32 weights should exceed 16-bit weights")
	}
}

func TestArithmeticIntensityGrowsWithBatch(t *testing.T) {
	// Eq.5: larger batch amortizes the weight traffic term.
	c := GPT2Small()
	a1 := c.ArithmeticIntensity(1, 1024, precision.FP16)
	a8 := c.ArithmeticIntensity(8, 1024, precision.FP16)
	if a8 <= a1 {
		t.Errorf("AI should grow with batch: B1=%v B8=%v", a1, a8)
	}
}

func TestArithmeticIntensityBand(t *testing.T) {
	// Eq.5 with stored-activation traffic yields AI in the hundreds for
	// GPT-2 sweeps; the per-platform rooflines rescale this with their
	// calibrated traffic factors (see the simulators' calib.go files).
	c := GPT2Small().WithLayers(24)
	ai := c.ArithmeticIntensity(4, 1024, precision.FP16)
	if ai < 100 || ai > 2000 {
		t.Errorf("AI = %v, want O(100-1000)", ai)
	}
}

func TestByName(t *testing.T) {
	c, ok := ByName("llama2-7b")
	if !ok || c.HiddenSize != 4096 {
		t.Errorf("ByName(llama2-7b) = %+v, %v", c, ok)
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) should fail")
	}
}

func TestDecoderBlock(t *testing.T) {
	for _, h := range []int{256, 480, 768, 1600, 4096} {
		b := DecoderBlock(GPT2, h)
		if err := b.Validate(); err != nil {
			t.Errorf("GPT2 block h=%d: %v", h, err)
		}
		if b.NumLayers != 1 {
			t.Errorf("block layers = %d", b.NumLayers)
		}
		lb := DecoderBlock(LLaMA2, h)
		if err := lb.Validate(); err != nil {
			t.Errorf("LLaMA block h=%d: %v", h, err)
		}
	}
}

func TestBaseName(t *testing.T) {
	cases := map[string]string{
		"gpt2-small":         "gpt2-small",
		"gpt2-small-L36":     "gpt2-small",
		"gpt2-small-H1024":   "gpt2-small",
		"weird-L":            "weird-L",
		"trailing-Lx":        "trailing-Lx",
		"gpt2-small-L36-H64": "gpt2-small-L36",
	}
	for in, want := range cases {
		if got := baseName(in); got != want {
			t.Errorf("baseName(%q) = %q, want %q", in, got, want)
		}
	}
}

// Property: parameter count is strictly monotone in layer count.
func TestParamsMonotoneInLayers(t *testing.T) {
	f := func(n uint8) bool {
		l := int(n%64) + 1
		a := GPT2Small().WithLayers(l).Params()
		b := GPT2Small().WithLayers(l + 1).Params()
		return b > a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: training memory total is monotone in batch size.
func TestMemoryMonotoneInBatch(t *testing.T) {
	f := func(n uint8) bool {
		b := int(n%128) + 1
		m1 := GPT2Small().TrainingMemory(b, 1024, precision.FP16).Total()
		m2 := GPT2Small().TrainingMemory(b+1, 1024, precision.FP16).Total()
		return m2 > m1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
