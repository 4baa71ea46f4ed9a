package graph

import (
	"fmt"
	"strconv"

	"dabench/internal/model"
	"dabench/internal/precision"
	"dabench/internal/units"
)

// BuildOptions control graph construction.
type BuildOptions struct {
	Batch     int
	Seq       int
	Precision precision.Format
	// Backward adds the backward pass (2× forward FLOPs per operator,
	// mirrored dependencies) and per-layer optimizer updates, matching
	// the training graphs the paper benchmarks.
	Backward bool
}

// LayerPrefix returns the canonical "L<l>/" operator-name prefix for
// decoder block l. The first prefixes are served from a precomputed
// table so per-layer loops don't re-format the same small integers.
func LayerPrefix(l int) string {
	if l >= 0 && l < len(layerPrefixes) {
		return layerPrefixes[l]
	}
	return "L" + strconv.Itoa(l) + "/"
}

// layerPrefixes covers every layer count the paper sweeps (≤ 128).
var layerPrefixes = func() [128]string {
	var t [128]string
	for i := range t {
		t[i] = "L" + strconv.Itoa(i) + "/"
	}
	return t
}()

// nodeCountHint is the built graph's node count, for preallocation:
// the forward pass has 12 operators per decoder block plus 4 shared
// ones; backward mirrors every forward node but the loss and adds an
// optimizer node per parameterized operator (6 per block + 3 shared).
func nodeCountHint(layers int, backward bool) int {
	fwd := 12*layers + 4
	if !backward {
		return fwd
	}
	return 2*fwd - 1 + 6*layers + 3
}

// edgeCountHint is the built graph's edge count: 15 forward
// dependencies per decoder block plus 3 shared; backward reverses each
// of them and adds one activation edge per backward node and one edge
// per optimizer node.
func edgeCountHint(layers int, backward bool) int {
	fwd := 15*layers + 3
	if !backward {
		return fwd
	}
	return 2*fwd + (12*layers + 3) + (6*layers + 3)
}

// Build lowers a model configuration to its training (or inference)
// computation graph at the given batch shape. The returned graph is
// immutable (see the package comment's immutability contract).
func Build(cfg model.Config, opts BuildOptions) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.Batch <= 0 || opts.Seq <= 0 {
		return nil, fmt.Errorf("graph: batch shape (%d,%d) must be positive", opts.Batch, opts.Seq)
	}
	g := NewSized(nodeCountHint(cfg.NumLayers, opts.Backward))
	g.edges = make([]edge, 0, edgeCountHint(cfg.NumLayers, opts.Backward))
	b := builder{
		g:      g,
		cfg:    cfg,
		tokens: float64(opts.Batch) * float64(opts.Seq),
		seq:    float64(opts.Seq),
		elem:   opts.Precision.BytesPerElement(),
	}
	b.buildForward()
	if opts.Backward {
		b.buildBackward()
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

type builder struct {
	g      *Graph
	cfg    model.Config
	tokens float64 // B·S
	seq    float64
	elem   float64 // bytes per element
}

// actBytes converts a per-token element count to activation bytes.
func (b *builder) actBytes(elemsPerToken float64) units.Bytes {
	return units.Bytes(b.tokens * elemsPerToken * b.elem)
}

// add appends a forward node wired after the given predecessors.
func (b *builder) add(n Node, preds ...*Node) *Node {
	p := b.g.AddNode(n)
	for _, pr := range preds {
		b.g.MustEdge(pr, p)
	}
	return p
}

func (b *builder) buildForward() {
	cfg := b.cfg
	h := float64(cfg.HiddenSize)
	f := float64(cfg.FFNHidden)
	v := float64(cfg.VocabSize)
	kvFrac := float64(cfg.KVHeads) / float64(cfg.NumHeads)
	heads := float64(cfg.NumHeads)

	embed := b.add(Node{
		Name: "embedding", Kind: OpEmbedding, Phase: Forward, Layer: -1,
		FLOPs:       units.FLOPs(2 * b.tokens * h), // gather + position add
		ParamBytes:  units.Bytes(float64(cfg.EmbeddingParams()) * b.elem),
		InputBytes:  units.Bytes(b.tokens * 4), // token ids
		OutputBytes: b.actBytes(h),
	})

	prev := embed
	for l := 0; l < cfg.NumLayers; l++ {
		prev = b.buildDecoder(l, prev, h, f, v, kvFrac, heads)
	}

	finalNorm := b.add(Node{
		Name: "final-norm", Kind: OpNorm, Phase: Forward, Layer: -1,
		FLOPs:       units.FLOPs(5 * b.tokens * h),
		ParamBytes:  units.Bytes(float64(cfg.NormParams()) * b.elem),
		InputBytes:  b.actBytes(h),
		OutputBytes: b.actBytes(h),
	}, prev)

	head := b.add(Node{
		Name: "lm-head", Kind: OpMatMul, Phase: Forward, Layer: -1,
		FLOPs:       units.FLOPs(2 * b.tokens * h * v),
		ParamBytes:  units.Bytes(float64(cfg.EmbeddingHeadMatmulParams()) * b.elem),
		InputBytes:  b.actBytes(h),
		OutputBytes: b.actBytes(v),
	}, finalNorm)

	b.add(Node{
		Name: "loss", Kind: OpLoss, Phase: Forward, Layer: -1,
		FLOPs:       units.FLOPs(5 * b.tokens * v),
		InputBytes:  b.actBytes(v),
		OutputBytes: units.Bytes(8),
	}, head)
}

// buildDecoder appends one decoder block's forward operators and
// returns the block output node.
func (b *builder) buildDecoder(l int, in *Node, h, f, v, kvFrac, heads float64) *Node {
	cfg := b.cfg
	prefix := LayerPrefix(l)
	name := func(op string) string { return prefix + op }
	elems := b.elem
	normBytes := units.Bytes(float64(cfg.NormParams()) * elems)

	norm1 := b.add(Node{
		Name: name("norm1"), Kind: OpNorm, Phase: Forward, Layer: l,
		FLOPs:      units.FLOPs(5 * b.tokens * h),
		ParamBytes: normBytes, InputBytes: b.actBytes(h), OutputBytes: b.actBytes(h),
	}, in)

	qkvParams := h*h + 2*h*h*kvFrac
	qkv := b.add(Node{
		Name: name("qkv"), Kind: OpMatMul, Phase: Forward, Layer: l,
		FLOPs:      units.FLOPs(2 * b.tokens * qkvParams),
		ParamBytes: units.Bytes(qkvParams * elems),
		InputBytes: b.actBytes(h), OutputBytes: b.actBytes(h * (1 + 2*kvFrac)),
	}, norm1)

	score := b.add(Node{
		Name: name("attn-score"), Kind: OpAttnScore, Phase: Forward, Layer: l,
		FLOPs:      units.FLOPs(2 * b.tokens * b.seq * h),
		InputBytes: b.actBytes(h * (1 + kvFrac)), OutputBytes: b.actBytes(b.seq * heads),
	}, qkv)

	softmax := b.add(Node{
		Name: name("softmax"), Kind: OpSoftmax, Phase: Forward, Layer: l,
		FLOPs:      units.FLOPs(5 * b.tokens * b.seq * heads),
		InputBytes: b.actBytes(b.seq * heads), OutputBytes: b.actBytes(b.seq * heads),
	}, score)

	context := b.add(Node{
		Name: name("attn-context"), Kind: OpAttnContext, Phase: Forward, Layer: l,
		FLOPs:      units.FLOPs(2 * b.tokens * b.seq * h),
		InputBytes: b.actBytes(b.seq*heads + h*kvFrac), OutputBytes: b.actBytes(h),
	}, softmax, qkv)

	proj := b.add(Node{
		Name: name("attn-proj"), Kind: OpMatMul, Phase: Forward, Layer: l,
		FLOPs:      units.FLOPs(2 * b.tokens * h * h),
		ParamBytes: units.Bytes(h * h * elems),
		InputBytes: b.actBytes(h), OutputBytes: b.actBytes(h),
	}, context)

	res1 := b.add(Node{
		Name: name("residual1"), Kind: OpResidual, Phase: Forward, Layer: l,
		FLOPs:      units.FLOPs(b.tokens * h),
		InputBytes: b.actBytes(2 * h), OutputBytes: b.actBytes(h),
	}, proj, in)

	norm2 := b.add(Node{
		Name: name("norm2"), Kind: OpNorm, Phase: Forward, Layer: l,
		FLOPs:      units.FLOPs(5 * b.tokens * h),
		ParamBytes: normBytes, InputBytes: b.actBytes(h), OutputBytes: b.actBytes(h),
	}, res1)

	// Feed-forward: GELU MLP has fc1/act/fc2; SwiGLU has a fused
	// gate+up projection (2·h·f params) before the down projection.
	upParams := h * f
	if cfg.Activation == model.SwiGLU {
		upParams = 2 * h * f
	}
	fc1 := b.add(Node{
		Name: name("mlp-up"), Kind: OpMatMul, Phase: Forward, Layer: l,
		FLOPs:      units.FLOPs(2 * b.tokens * upParams),
		ParamBytes: units.Bytes(upParams * elems),
		InputBytes: b.actBytes(h), OutputBytes: b.actBytes(upParams / h),
	}, norm2)

	act := b.add(Node{
		Name: name("mlp-act"), Kind: OpActivation, Phase: Forward, Layer: l,
		FLOPs:      units.FLOPs(8 * b.tokens * f),
		InputBytes: b.actBytes(upParams / h), OutputBytes: b.actBytes(f),
	}, fc1)

	fc2 := b.add(Node{
		Name: name("mlp-down"), Kind: OpMatMul, Phase: Forward, Layer: l,
		FLOPs:      units.FLOPs(2 * b.tokens * f * h),
		ParamBytes: units.Bytes(f * h * elems),
		InputBytes: b.actBytes(f), OutputBytes: b.actBytes(h),
	}, act)

	res2 := b.add(Node{
		Name: name("residual2"), Kind: OpResidual, Phase: Forward, Layer: l,
		FLOPs:      units.FLOPs(b.tokens * h),
		InputBytes: b.actBytes(2 * h), OutputBytes: b.actBytes(h),
	}, fc2, res1)

	return res2
}

// buildBackward mirrors the forward graph: one backward node per
// forward node (except the loss, which seeds the chain) with twice the
// FLOPs, edges reversed, plus an optimizer node per parameterized
// operator. It runs after buildForward, so the graph's nodes so far are
// the forward pass in construction (topological) order, and its edges
// the forward dependencies.
func (b *builder) buildBackward() {
	fwd := b.g.nodes
	off, succ := successorIndex(len(fwd), b.g.edges)
	bwd := make([]*Node, len(fwd)) // by forward node ID

	// Walk forward nodes in reverse construction order so every
	// backward node's consumers already exist.
	for i := len(fwd) - 1; i >= 0; i-- {
		fn := fwd[i]
		if fn.Kind == OpLoss {
			bwd[i] = fn // gradient chain starts at the loss itself
			continue
		}
		bn := b.g.AddNode(Node{
			Name: fn.Name + ".bwd", Kind: fn.Kind, Phase: Backward, Layer: fn.Layer,
			FLOPs:      2 * fn.FLOPs,
			ParamBytes: fn.ParamBytes,
			// Backward reads the upstream gradient and the saved
			// forward activations, writes the downstream gradient
			// (and the weight gradient, folded into output traffic).
			InputBytes:  fn.OutputBytes + fn.InputBytes,
			OutputBytes: fn.InputBytes + fn.ParamBytes,
		})
		bwd[i] = bn
		// Activation dependency on the forward node.
		b.g.MustEdge(fn, bn)
		// Reversed data dependencies: grad flows consumer → producer.
		for _, s := range succ[off[i]:off[i+1]] {
			if sb := bwd[s]; sb != nil {
				b.g.MustEdge(sb, bn)
			}
		}
		if fn.ParamBytes > 0 {
			opt := b.g.AddNode(Node{
				Name: fn.Name + ".opt", Kind: OpOptimizer, Phase: Update, Layer: fn.Layer,
				// Adam: ~10 FLOPs per parameter.
				FLOPs:       units.FLOPs(10 * float64(fn.ParamBytes) / b.elem),
				InputBytes:  2 * fn.ParamBytes,
				OutputBytes: fn.ParamBytes,
			})
			b.g.MustEdge(bn, opt)
		}
	}
}
