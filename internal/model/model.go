// Package model describes decoder-only transformer language models at
// the level of detail the DABench-LLM framework needs: exact parameter
// counts, per-operator FLOP counts, and training memory footprints.
//
// The paper bases all experiments on two canonical families — GPT-2
// (learned absolute positions, GELU, LayerNorm, tied embeddings) and
// LLaMA-2 (RoPE, SwiGLU, RMSNorm, untied head, optional grouped-query
// attention) — varied along the hidden-size and layer-count axes to probe
// the compute/memory spectrum.
package model

import (
	"fmt"
	"strconv"

	"dabench/internal/precision"
	"dabench/internal/units"
)

// Family distinguishes the two architecture templates used in the paper.
type Family int

// Supported architecture families.
const (
	GPT2 Family = iota
	LLaMA2
)

// String returns the family name.
func (f Family) String() string {
	switch f {
	case GPT2:
		return "GPT-2"
	case LLaMA2:
		return "LLaMA-2"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// Norm identifies the normalization operator.
type Norm int

// Normalization kinds.
const (
	LayerNorm Norm = iota
	RMSNorm
)

// Activation identifies the feed-forward nonlinearity.
type Activation int

// Activation kinds.
const (
	GELU Activation = iota
	SwiGLU
)

// Config is a complete architectural description of a decoder-only
// transformer. All sizes are in elements, not bytes.
type Config struct {
	Name       string
	Family     Family
	HiddenSize int // model width H
	NumLayers  int // decoder block count L
	NumHeads   int // attention heads
	KVHeads    int // key/value heads (< NumHeads means GQA)
	FFNHidden  int // feed-forward inner width
	VocabSize  int
	MaxSeqLen  int

	TiedEmbeddings bool // LM head shares the input embedding matrix
	LearnedPos     bool // learned absolute positions (GPT-2) vs RoPE
	Norm           Norm
	Activation     Activation
}

// MaxLayers bounds a model's decoder-layer count, about 10× the
// deepest preset (80 layers). Simulation time and memory grow linearly
// with depth, so without a bound one request body could exhaust a
// daemon's memory.
const MaxLayers = 1024

// Validate reports a descriptive error for an inconsistent config.
func (c Config) Validate() error {
	switch {
	case c.HiddenSize <= 0:
		return fmt.Errorf("model %q: hidden size %d must be positive", c.Name, c.HiddenSize)
	case c.NumLayers <= 0:
		return fmt.Errorf("model %q: layer count %d must be positive", c.Name, c.NumLayers)
	case c.NumLayers > MaxLayers:
		return fmt.Errorf("model %q: layer count %d exceeds the maximum of %d", c.Name, c.NumLayers, MaxLayers)
	case c.NumHeads <= 0:
		return fmt.Errorf("model %q: head count %d must be positive", c.Name, c.NumHeads)
	case c.HiddenSize%c.NumHeads != 0:
		return fmt.Errorf("model %q: hidden size %d not divisible by %d heads", c.Name, c.HiddenSize, c.NumHeads)
	case c.KVHeads <= 0 || c.NumHeads%c.KVHeads != 0:
		return fmt.Errorf("model %q: KV heads %d must divide %d heads", c.Name, c.KVHeads, c.NumHeads)
	case c.FFNHidden <= 0:
		return fmt.Errorf("model %q: FFN width %d must be positive", c.Name, c.FFNHidden)
	case c.VocabSize <= 0:
		return fmt.Errorf("model %q: vocab size %d must be positive", c.Name, c.VocabSize)
	case c.MaxSeqLen <= 0:
		return fmt.Errorf("model %q: max sequence length %d must be positive", c.Name, c.MaxSeqLen)
	}
	return nil
}

// HeadDim returns the per-head dimension.
func (c Config) HeadDim() int { return c.HiddenSize / c.NumHeads }

// WithLayers returns a copy of c with the layer count replaced — the
// primary sweep axis of the paper's Tier-1 experiments.
func (c Config) WithLayers(n int) Config {
	c.NumLayers = n
	c.Name = baseName(c.Name) + "-L" + strconv.Itoa(n)
	return c
}

// WithHidden returns a copy of c rescaled to hidden size h, preserving
// the family's head-dim and FFN conventions — the paper's second sweep
// axis.
func (c Config) WithHidden(h int) Config {
	headDim := c.HeadDim()
	if headDim <= 0 || h%headDim != 0 {
		headDim = 64
		for h%headDim != 0 && headDim > 1 {
			headDim /= 2
		}
	}
	c.HiddenSize = h
	c.NumHeads = h / headDim
	if c.KVHeads > c.NumHeads {
		c.KVHeads = c.NumHeads
	}
	if c.KVHeads == 0 || c.NumHeads%c.KVHeads != 0 {
		c.KVHeads = c.NumHeads
	}
	switch c.Family {
	case LLaMA2:
		c.FFNHidden = swigluWidth(h)
	default:
		c.FFNHidden = 4 * h
	}
	c.Name = fmt.Sprintf("%s-H%d", baseName(c.Name), h)
	return c
}

// baseName strips prior -L%d / -H%d suffixes so repeated With* calls do
// not pile up.
func baseName(s string) string {
	for i := len(s) - 1; i > 0; i-- {
		if s[i] == '-' && i+1 < len(s) && (s[i+1] == 'L' || s[i+1] == 'H') {
			digits := s[i+2:]
			if len(digits) == 0 {
				return s
			}
			for _, r := range digits {
				if r < '0' || r > '9' {
					return s
				}
			}
			return s[:i]
		}
	}
	return s
}

// swigluWidth reproduces LLaMA's FFN sizing: 2/3 · 4H rounded up to a
// multiple of 256 (11008 at H=4096).
func swigluWidth(h int) int {
	w := 8 * h / 3
	const mult = 256
	return (w + mult - 1) / mult * mult
}

// --- Parameter accounting -------------------------------------------------

// EmbeddingParams counts input embedding (+ learned positions) weights.
func (c Config) EmbeddingParams() int64 {
	p := int64(c.VocabSize) * int64(c.HiddenSize)
	if c.LearnedPos {
		p += int64(c.MaxSeqLen) * int64(c.HiddenSize)
	}
	return p
}

// HeadParams counts the LM head projection (0 when tied).
func (c Config) HeadParams() int64 {
	if c.TiedEmbeddings {
		return 0
	}
	return int64(c.VocabSize) * int64(c.HiddenSize)
}

// AttentionParams counts one layer's attention weights (Q,K,V,O).
// With GQA the K and V projections shrink by NumHeads/KVHeads.
func (c Config) AttentionParams() int64 {
	h := int64(c.HiddenSize)
	kv := h * int64(c.KVHeads) / int64(c.NumHeads)
	params := h*h + 2*h*kv + h*h // Q + K,V + O
	if c.Family == GPT2 {
		params += 3*kv + h + h // biases on QKV and O (kv==h for MHA)
	}
	return params
}

// FFNParams counts one layer's feed-forward weights.
func (c Config) FFNParams() int64 {
	h, f := int64(c.HiddenSize), int64(c.FFNHidden)
	switch c.Activation {
	case SwiGLU:
		return 3 * h * f // gate, up, down
	default:
		p := 2 * h * f // fc1, fc2
		if c.Family == GPT2 {
			p += f + h // biases
		}
		return p
	}
}

// NormParams counts one norm operator's weights.
func (c Config) NormParams() int64 {
	if c.Norm == RMSNorm {
		return int64(c.HiddenSize)
	}
	return 2 * int64(c.HiddenSize) // scale + bias
}

// LayerParams counts one full decoder block.
func (c Config) LayerParams() int64 {
	return c.AttentionParams() + c.FFNParams() + 2*c.NormParams()
}

// Params counts all trainable parameters.
func (c Config) Params() int64 {
	return c.EmbeddingParams() + int64(c.NumLayers)*c.LayerParams() +
		c.NormParams() + c.HeadParams() // final norm + head
}

// --- FLOP accounting --------------------------------------------------------

// ForwardFLOPsPerToken estimates forward-pass FLOPs for one token at
// sequence length seq: 2 FLOPs per matmul parameter plus the
// sequence-quadratic attention term (2·S·H for scores and 2·S·H for the
// context product, per layer).
func (c Config) ForwardFLOPsPerToken(seq int) units.FLOPs {
	matmulParams := int64(c.NumLayers)*(c.AttentionParams()+c.FFNParams()) +
		c.EmbeddingHeadMatmulParams()
	attn := 4 * int64(c.NumLayers) * int64(seq) * int64(c.HiddenSize)
	return units.FLOPs(2*matmulParams + attn)
}

// EmbeddingHeadMatmulParams returns the matmul parameter count of the LM
// head (the input embedding is a lookup, not a matmul; tied or not, the
// output projection is a V×H matmul).
func (c Config) EmbeddingHeadMatmulParams() int64 {
	return int64(c.VocabSize) * int64(c.HiddenSize)
}

// TrainFLOPsPerToken applies the paper's 6×P convention (2× forward,
// 4× backward) via a 3× multiplier on the forward pass.
func (c Config) TrainFLOPsPerToken(seq int) units.FLOPs {
	return 3 * c.ForwardFLOPsPerToken(seq)
}

// TrainFLOPs returns total FLOPs for one optimizer step over batch
// shape (batch, seq).
func (c Config) TrainFLOPs(batch, seq int) units.FLOPs {
	return units.FLOPs(float64(batch*seq)) * c.TrainFLOPsPerToken(seq)
}

// --- Memory accounting ------------------------------------------------------

// MemoryBreakdown partitions a training step's footprint.
type MemoryBreakdown struct {
	Weights     units.Bytes
	Gradients   units.Bytes
	Optimizer   units.Bytes // Adam moments (+ FP32 master copy in mixed)
	Activations units.Bytes
}

// Total sums the breakdown.
func (m MemoryBreakdown) Total() units.Bytes {
	return m.Weights + m.Gradients + m.Optimizer + m.Activations
}

// WeightBytes is the storage for one copy of the parameters.
func (c Config) WeightBytes(f precision.Format) units.Bytes {
	return units.Bytes(float64(c.Params()) * f.BytesPerElement())
}

// ActivationBytesPerToken estimates the activations retained for the
// backward pass, per token, following the Megatron-LM estimate
// (Korthikanti et al.): roughly 17·H elements of pointwise state plus
// 2.5·heads·S elements of attention state per layer, plus the logits.
func (c Config) ActivationBytesPerToken(seq int, f precision.Format) units.Bytes {
	perLayer := 17*float64(c.HiddenSize) + 2.5*float64(c.NumHeads)*float64(seq)
	logits := float64(c.VocabSize)
	elems := float64(c.NumLayers)*perLayer + logits
	return units.Bytes(elems * f.BytesPerElement())
}

// TrainingMemory estimates the full footprint of one training step.
func (c Config) TrainingMemory(batch, seq int, f precision.Format) MemoryBreakdown {
	p := float64(c.Params())
	return MemoryBreakdown{
		Weights:   c.WeightBytes(f),
		Gradients: units.Bytes(p * f.BytesPerElement()),
		// Adam: two FP32 moments; mixed adds the FP32 master copy.
		Optimizer:   units.Bytes(p * (8 + f.MasterWeightBytes())),
		Activations: units.Bytes(float64(batch*seq)) * c.ActivationBytesPerToken(seq, f),
	}
}

// ArithmeticIntensity implements the paper's Eq. 5:
//
//	AI = 6·P·B·S / (4·P + ActivationMemory)
//
// in FLOPs per byte, using 6·P FLOPs per token and 4-byte weight traffic.
func (c Config) ArithmeticIntensity(batch, seq int, f precision.Format) float64 {
	p := float64(c.Params())
	flops := 6 * p * float64(batch) * float64(seq)
	actBytes := float64(units.Bytes(float64(batch*seq)) * c.ActivationBytesPerToken(seq, f))
	denom := 4*p + actBytes
	return units.ArithmeticIntensity(units.FLOPs(flops), units.Bytes(denom))
}
