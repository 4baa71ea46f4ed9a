package rdu

import (
	"iter"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"dabench/internal/graph"
	"dabench/internal/metrics"
	"dabench/internal/model"
	"dabench/internal/platform"
	"dabench/internal/precision"
)

// section is one schedulable unit of the RDU execution plan. Sections
// execute strictly sequentially on a chip; a section may be invoked
// several times per training step (once per decoder layer in the
// merged O0/O1 modes).
type section struct {
	name        string
	kind        string // "matmul", "pointwise", "shard", "decoder", "nondecoder"
	pcus        float64
	pmus        float64
	flops       float64 // per invocation
	ddrBytes    float64 // per invocation
	invocations int
	// ops are the operator-level subtasks for the LI metric.
	ops []metrics.TaskSample
}

// opPCUs returns the PCU demand of one operator instance.
func opPCUs(kind graph.OpKind, hidden int) float64 {
	h := float64(hidden)
	switch kind {
	case graph.OpMatMul:
		return clampF(matmulPCUBase+h*matmulPCUSlope, minMatmulPCUs, maxSectionPCUs)
	case graph.OpAttnScore, graph.OpAttnContext:
		return clampF(attentionPCUs+h/64, minMatmulPCUs, maxSectionPCUs)
	case graph.OpOptimizer:
		return clampF(32+h/64, minMatmulPCUs, maxSectionPCUs)
	default:
		return clampF(pointwisePCUs+h/256, pointwisePCUs, maxSectionPCUs)
	}
}

// opPMUs returns the PMU demand accompanying a PCU allocation.
func opPMUs(kind graph.OpKind, pcus float64) float64 {
	switch kind {
	case graph.OpMatMul, graph.OpAttnScore, graph.OpAttnContext, graph.OpOptimizer:
		return clampF(pmuMatmulFactor*pcus+pmuMatmulBase, 16, maxSectionPCUs)
	default:
		return clampF(pmuPointwiseFactor*pcus, 16, maxSectionPCUs)
	}
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func isMatmulKind(k graph.OpKind) bool {
	return k == graph.OpMatMul || k == graph.OpAttnScore || k == graph.OpAttnContext
}

// templateKey strips the layer prefix so per-layer operator instances
// collapse onto one merged section (O0/O1 "decoders merged" semantics).
func templateKey(name string) string {
	if i := strings.Index(name, "/"); i > 0 && strings.HasPrefix(name, "L") {
		return name[i+1:]
	}
	return name
}

// layerGraph lowers one decoder layer of the spec's model through the
// process-wide build cache. Decoder layers are structurally identical —
// every layer's operators carry the same FLOPs and traffic — so the
// O0/O1 builders walk this single layer and count each decoder node L
// times instead of lowering L copies. The cache key is the
// depth-normalised config (layer count and name fixed), so every depth
// of one model shape, every compile mode and every TP degree share one
// small lowering. The returned graph is immutable — section builders
// only read it.
func layerGraph(spec platform.TrainSpec) (*graph.Graph, error) {
	cfg := spec.Model
	cfg.Name, cfg.NumLayers = "", 1
	return graph.Cached(cfg, graph.BuildOptions{
		Batch: spec.Batch, Seq: spec.Seq, Precision: spec.Precision, Backward: true,
	})
}

// naming is what the O0 and O1 builders derive from a one-layer
// lowering's node names and phases alone: section names, O0's name
// order, and O1's fused groups. graph.Build names nodes from a fixed
// operator vocabulary that never contains a model name, so every
// model's one-layer lowering names its nodes alike, and one naming
// computed per process serves every compile (see namingOf).
type naming struct {
	node  []string // per node: its graph name and phase, to match a lowering
	phase []graph.Phase
	// name is each node's section name, templateKey(node)+"."+phase: its
	// O0 section, and its O1 section when the node stays solo.
	name []string
	// o0Order lists the node indices in name order, equal names in
	// graph order: the order of O0's sections in the report.
	o0Order []int
	// group is each node's fused O1 group, or soloNode or headNode.
	group  []int
	groups []fusedGroup // in order of first appearance
	heads  int          // LM-head nodes
}

// Shared-node classes in naming.group.
const (
	soloNode = -1 // a shared node O1 leaves in a section of its own
	headNode = -2 // an LM-head node O1 shards (shardHead)
)

// fusedGroup is one O1 (module, phase) group of decoder operators.
type fusedGroup struct {
	mod   string
	phase graph.Phase
	name  string // mod+"."+phase: the group's section name
	ops   int    // operators per layer
}

func newNaming(g *graph.Graph) *naming {
	nodes := g.Nodes()
	nm := &naming{
		node:  make([]string, len(nodes)),
		phase: make([]graph.Phase, len(nodes)),
		name:  make([]string, len(nodes)),
		group: make([]int, len(nodes)),
	}
	for k, n := range nodes {
		nm.node[k], nm.phase[k] = n.Name, n.Phase
		nm.name[k] = templateKey(n.Name) + "." + n.Phase.String()
		switch {
		case n.Layer >= 0:
			mod := moduleOf(templateKey(n.Name))
			i := 0
			for i < len(nm.groups) && (nm.groups[i].mod != mod || nm.groups[i].phase != n.Phase) {
				i++
			}
			if i == len(nm.groups) {
				nm.groups = append(nm.groups, fusedGroup{mod: mod, phase: n.Phase, name: mod + "." + n.Phase.String()})
			}
			nm.groups[i].ops++
			nm.group[k] = i
		case strings.HasPrefix(n.Name, "lm-head"):
			nm.group[k] = headNode
			nm.heads++
		default:
			nm.group[k] = soloNode
		}
	}
	nm.o0Order = make([]int, len(nodes))
	for k := range nm.o0Order {
		nm.o0Order[k] = k
	}
	slices.SortStableFunc(nm.o0Order, func(a, b int) int { return strings.Compare(nm.name[a], nm.name[b]) })
	return nm
}

// matches reports whether nm was computed from a lowering whose nodes
// carry g's names and phases, in g's order.
func (nm *naming) matches(g *graph.Graph) bool {
	if len(nm.node) != g.Len() {
		return false
	}
	for k, n := range g.Nodes() {
		if nm.node[k] != n.Name || nm.phase[k] != n.Phase {
			return false
		}
	}
	return true
}

// oneLayerNaming is the naming of graph.Build's one-layer training
// lowering, computed on first use.
var oneLayerNaming = sync.OnceValue(func() *naming {
	cfg := model.GPT2Small()
	cfg.Name, cfg.NumLayers = "", 1
	g, err := graph.Build(cfg, graph.BuildOptions{Batch: 1, Seq: 1, Precision: precision.BF16, Backward: true})
	if err != nil {
		panic("rdu: one-layer reference lowering: " + err.Error())
	}
	return newNaming(g)
})

// namingOf returns g's naming: the shared one-layer naming when g
// matches it, as every layerGraph lowering does, else one computed for
// g alone.
func namingOf(g *graph.Graph) *naming {
	if nm := oneLayerNaming(); nm.matches(g) {
		return nm
	}
	return newNaming(g)
}

// buildO0 creates operator-mode sections: one per operator template,
// invoked once per decoder layer. It emits them in name order.
func buildO0(p *plan) error {
	g, err := layerGraph(p.spec)
	if err != nil {
		return err
	}
	nm := namingOf(g)
	nodes := g.Nodes()
	h := p.spec.Model.HiddenSize
	p.tasks = make([]platform.Task, 0, len(nodes))
	// Each section carries one op row; the rows share one backing array.
	rows := make([]metrics.TaskSample, len(nodes))
	for _, k := range nm.o0Order {
		n := nodes[k]
		inv := 1
		if n.Layer >= 0 {
			inv = p.spec.Model.NumLayers
		}
		// Per-invocation work is the L-layer total over L, the total
		// summed one layer at a time (see layerSum).
		flops := layerSum(float64(n.FLOPs), inv) / float64(inv)
		traffic := layerSum(float64(n.Traffic()), inv) / float64(inv)
		pc := opPCUs(n.Kind, h)
		kind := "pointwise"
		if isMatmulKind(n.Kind) {
			kind = "matmul"
		}
		rows[k] = metrics.TaskSample{
			Name: nm.name[k], Resources: pc,
			Throughput: opThroughput(n, pc, p.spec.Precision),
		}
		p.add(&section{
			name: nm.name[k], kind: kind,
			pcus:  clampF(pc, pointwisePCUs, maxSectionPCUs),
			pmus:  opPMUs(n.Kind, pc),
			flops: flops, ddrBytes: traffic,
			invocations: inv,
			ops:         rows[k : k+1 : k+1],
		})
	}
	return nil
}

// layerSum totals x over L layers with L sequential additions, the way
// a walk over L stacked layers adds them. Section work must match that
// walk bit for bit. Once a total passes 2^53 the additions round at
// each step while x·L rounds once; at odd shapes (batch 999, seq 1023,
// ...) the two then differ in the last bit, and /v1/run accepts any
// batch and seq.
func layerSum(x float64, L int) float64 {
	var sum float64
	for i := 0; i < L; i++ {
		sum += x
	}
	return sum
}

// buildO1 creates module-mode sections: the paper's operator fusion
// groups each decoder module's operators into one section, and shards
// the LM head.
func buildO1(p *plan) error {
	g, err := layerGraph(p.spec)
	if err != nil {
		return err
	}
	nm := namingOf(g)
	nodes := g.Nodes()
	spec := p.spec
	h := spec.Model.HiddenSize
	L := spec.Model.NumLayers

	// One op row per node, laid out as each fused group's rows in graph
	// order, group after group, then the LM head's, then one per solo
	// node.
	rows := make([]metrics.TaskSample, len(nodes))
	// A fused group's section totals over all L layers, and the next
	// free row of its span.
	type agg struct {
		lo, next                   int
		flops, traffic, pcus, pmus float64
	}
	var aggBuf [6]agg // a one-layer lowering has two modules × three phases
	groups := aggBuf[:0]
	lo := 0
	for _, fg := range nm.groups {
		groups = append(groups, agg{lo: lo, next: lo})
		lo += fg.ops
	}
	head, headEnd := lo, lo+nm.heads
	solo := headEnd

	solos := len(nodes) - lo - nm.heads
	_, shardSecs := headShards(spec)
	p.tasks = make([]platform.Task, 0, solos+len(groups)+shardSecs)
	for k, n := range nodes {
		if nm.group[k] != soloNode {
			continue
		}
		// Shared nodes other than the LM head stay solo.
		pc := opPCUs(n.Kind, h)
		rows[solo] = metrics.TaskSample{
			Name: n.Name, Resources: pc,
			Throughput: opThroughput(n, pc, spec.Precision),
		}
		p.add(&section{
			name: nm.name[k], kind: "nondecoder",
			pcus: pc, pmus: opPMUs(n.Kind, pc),
			flops: float64(n.FLOPs), ddrBytes: float64(n.Traffic()),
			invocations: 1,
			ops:         rows[solo : solo+1 : solo+1],
		})
		solo++
	}

	// Sum layer by layer, each group's nodes in graph order, as an
	// L-layer walk adds them, so the totals round as that walk's do (a
	// one-layer subtotal times L would not; see layerSum).
	for l := 0; l < L; l++ {
		for k, n := range nodes {
			if i := nm.group[k]; i >= 0 {
				groups[i].flops += float64(n.FLOPs)
				groups[i].traffic += float64(n.Traffic())
			}
		}
	}
	// Fused module operators share the section spatially; the section
	// allocation is the fused-pipeline width, not the sum of operator
	// widths. The walk's running maxima settle by its second layer,
	// where the PMU maximum first sees the group's full fused width;
	// later layers repeat that layer's values.
	for l := 0; l < min(L, 2); l++ {
		for k, n := range nodes {
			if i := nm.group[k]; i >= 0 {
				a := &groups[i]
				if b := clampF(opPCUs(n.Kind, h)*o1FusionBoost, minMatmulPCUs, maxSectionPCUs); b > a.pcus {
					a.pcus = b
				}
				if pm := opPMUs(n.Kind, a.pcus); pm > a.pmus {
					a.pmus = pm
				}
			}
		}
	}
	// The merged section's op rows represent one layer.
	for k, n := range nodes {
		if i := nm.group[k]; i >= 0 {
			pc := opPCUs(n.Kind, h)
			rows[groups[i].next] = metrics.TaskSample{
				Name: templateKey(n.Name), Resources: pc,
				Throughput: opThroughput(n, pc, spec.Precision),
			}
			groups[i].next++
		}
	}
	for i, fg := range nm.groups {
		a := &groups[i]
		ops := rows[a.lo:a.next:a.next]
		// Fusion rebalances the pipeline: each operator gets resources
		// proportional to its work (this is what makes O1's LI markedly
		// better than O3's, Figure 8).
		rebalanceOps(ops, a.pcus, spec)
		p.add(&section{
			name: fg.name, kind: moduleKind(fg.mod),
			pcus: a.pcus, pmus: a.pmus,
			flops: a.flops / float64(L), ddrBytes: a.traffic / float64(L),
			invocations: L, ops: ops,
		})
	}

	shardHead(p, nodes, nm, rows[head:headEnd:headEnd])
	return nil
}

// rebalanceOps redistributes a fused section's PCUs work-
// proportionally, in place, leaving only placement-quantization
// jitter. The jitter shrinks with hidden size (wider operators quantize
// better), reproducing Figure 8b's LI rising with HS.
func rebalanceOps(ops []metrics.TaskSample, sectionPCUs float64, spec platform.TrainSpec) {
	pf := precFactor(spec.Precision)
	// work recovers an op's FLOPs from its throughput and allocation;
	// 0 marks a row Eq. 3 cannot weigh, which keeps its values.
	work := func(o *metrics.TaskSample) float64 {
		if unmeasurable(*o) {
			return 0
		}
		return o.Resources * ratePerPCU * sectionEff * pf / o.Throughput
	}
	var total float64
	for i := range ops {
		total += work(&ops[i])
	}
	if total == 0 {
		return
	}
	h := float64(spec.Model.HiddenSize)
	spread := o1Spread * (1 + spreadHSRef/(spreadHSRef+h)) / 1.5
	for i := range ops {
		o := &ops[i]
		w := work(o)
		if w == 0 {
			continue
		}
		z := frac(float64(i)*0.6180339887 + 0.41)
		res := sectionPCUs * w / total * (1 + spread*(2*z-1))
		o.Resources = res
		o.Throughput = res * ratePerPCU * sectionEff * pf / w
	}
}

// frac returns the fractional part of x ≥ 0: exactly math.Mod(x, 1),
// since x−⌊x⌋ is representable and IEEE subtraction rounds an exact
// result to itself, at a fraction of Mod's cost.
func frac(x float64) float64 { return x - math.Floor(x) }

// moduleOf maps an operator template name to its decoder module.
func moduleOf(tmpl string) string {
	switch {
	case strings.HasPrefix(tmpl, "norm2"), strings.HasPrefix(tmpl, "mlp"),
		strings.HasPrefix(tmpl, "residual2"):
		return "mlp"
	default:
		return "attn"
	}
}

func moduleKind(mod string) string { return "matmul" }

// headShards returns the LM head's shard count and shard sections per
// the Table II(b) model.
func headShards(spec platform.TrainSpec) (shards, sections int) {
	cfg := spec.Model
	headBytes := 2.0 * float64(cfg.VocabSize) * float64(cfg.HiddenSize)
	shards = int(math.Ceil(headBytes / shardBudgetBytes))
	if shards < 1 {
		shards = 1
	}
	return shards, int(math.Ceil(float64(shards) / shardsPerSection))
}

// shardHead splits the LM-head matmul (and its backward) into shard
// sections per the Table II(b) model. rows holds one op row per head
// node; every shard section carries all of them.
func shardHead(p *plan, nodes []*graph.Node, nm *naming, rows []metrics.TaskSample) {
	if nm.heads == 0 {
		return
	}
	shards, nsec := headShards(p.spec)
	pcu := clampF(shardSectionPCUBase-shardSectionPCUSlope*float64(shards-9),
		shardSectionPCUFloor, shardSectionPCUBase)
	pmu := clampF(shardSectionPMUBase+shardSectionPMUSlope*float64(shards-9),
		shardSectionPMUBase, shardSectionPMUCeil)

	var flops, traffic float64
	j := 0
	for k, n := range nodes {
		if nm.group[k] != headNode {
			continue
		}
		flops += float64(n.FLOPs)
		traffic += float64(n.Traffic())
		rows[j] = metrics.TaskSample{
			Name: n.Name, Resources: pcu,
			Throughput: opThroughput(n, pcu, p.spec.Precision),
		}
		j++
	}
	for i := 0; i < nsec; i++ {
		p.add(&section{
			name: shardName(i), kind: "shard",
			pcus: pcu, pmus: pmu,
			flops: flops / float64(nsec), ddrBytes: traffic / float64(nsec),
			invocations: 1, ops: rows,
		})
	}
}

// shardName returns shard section i's name, "lm-head.shardsec<i>".
func shardName(i int) string {
	if i < len(shardNames) {
		return shardNames[i]
	}
	return "lm-head.shardsec" + strconv.Itoa(i)
}

// shardNames covers the shard sections of every preset model (at most
// 4, LLaMA-2 70B's head) with room for wider custom heads.
var shardNames = func() [16]string {
	var t [16]string
	for i := range t {
		t[i] = "lm-head.shardsec" + strconv.Itoa(i)
	}
	return t
}()

// opThroughput is the operator's isolated rate in invocations/s.
func opThroughput(n *graph.Node, pcus float64, f precision.Format) float64 {
	fl := float64(n.FLOPs)
	if fl <= 0 {
		return math.Inf(1)
	}
	return pcus * ratePerPCU * sectionEff * precFactor(f) / fl
}

// buildO3 creates full-graph-mode sections: decoder-by-decoder, with
// the per-decoder section counts and utilizations of Table II(a). It
// emits them in name order: every "decoder.bwd.<i>" before every
// "decoder.fwd.<i>", both before the "shared." sections, and each
// phase's indices in the byte order of their decimal strings.
func buildO3(p *plan) {
	spec := p.spec
	cfg := spec.Model
	h := cfg.HiddenSize
	L := cfg.NumLayers
	tokens := spec.Tokens()

	// Per-decoder training work split 1:2 forward:backward.
	layerFlops := 3.0 * decoderFwdFLOPsPerToken(cfg, spec.Seq) * tokens
	fwdFlops := layerFlops / 3
	bwdFlops := layerFlops * 2 / 3
	layerBytes := 2.0 * float64(cfg.LayerParams())
	actBytes := float64(cfg.ActivationBytesPerToken(spec.Seq, spec.Precision)) * tokens / float64(L)

	nFwd := int(math.Max(1, math.Ceil(float64(L)*o3FwdRatio(h))))
	nBwd := int(math.Max(1, math.Ceil(float64(L)*o3BwdRatio(h))))

	fUtil, bUtil := o3FwdUtil(h), o3BwdUtil(h)
	spread := math.Min(o3SpreadMax, o3SpreadPerLayer*float64(L))*spreadHSRef/(spreadHSRef+float64(h)) +
		o3HSSpread*math.Max(0, o3HSSpreadRef-float64(h))/o3HSSpreadRef
	pf := precFactor(spec.Precision)

	p.tasks = make([]platform.Task, 0, nFwd+nBwd+3)
	// Each section carries one op row; the rows share one backing array.
	rows := make([]metrics.TaskSample, cap(p.tasks))
	opRow := func(name string, pcu, fl float64) []metrics.TaskSample {
		k := len(p.tasks)
		rows[k] = metrics.TaskSample{
			Name:       name,
			Resources:  pcu,
			Throughput: pcu * ratePerPCU * sectionEff * pf / fl,
		}
		return rows[k : k+1 : k+1]
	}
	// The decoder section names are substrings of one string.
	var names strings.Builder
	names.Grow((nFwd + nBwd) * (len("decoder.fwd.") + decimalLen(nFwd+nBwd-1)))
	var digits [20]byte
	decoder := func(i, n int, phase string, util, flopsTotal, bytesTotal float64) {
		// Deterministic cross-decoder allocation spread (compiler
		// balances deeper stacks worse).
		z := frac(float64(i)*0.754877666 + 0.31)
		factor := 1 + spread*(2*z-1)
		pcu := clampF(PCUs*util*factor, minMatmulPCUs, maxSectionPCUs)
		pmu := clampF(pcu*0.9+pmuMatmulBase, 16, maxSectionPCUs)
		fl := flopsTotal * float64(L) / float64(n)
		by := (bytesTotal*weightPasses/3 + actBytes) * float64(L) / float64(n)
		start := names.Len()
		names.WriteString("decoder.")
		names.WriteString(phase)
		names.WriteByte('.')
		names.Write(strconv.AppendInt(digits[:0], int64(i), 10))
		name := names.String()[start:]
		p.add(&section{
			name: name, kind: "decoder",
			pcus: pcu, pmus: pmu, flops: fl, ddrBytes: by, invocations: 1,
			ops: opRow(name, pcu, fl),
		})
	}
	for i := range decimalOrder(nFwd, nFwd+nBwd) {
		decoder(i, nBwd, "bwd", bUtil, bwdFlops, 2*layerBytes)
	}
	for i := range decimalOrder(0, nFwd) {
		decoder(i, nFwd, "fwd", fUtil, fwdFlops, layerBytes)
	}

	// Non-decoder sections: embedding, head, loss, optimizer.
	shared := 3.0 * 2 * float64(cfg.EmbeddingHeadMatmulParams()) * tokens
	sharedBytes := weightPasses * 2 * float64(cfg.EmbeddingParams()+cfg.EmbeddingHeadMatmulParams())
	for _, sec := range [...]struct{ name, op string }{
		{"shared.embedding", "embedding"}, {"shared.lm-head", "lm-head"}, {"shared.loss-opt", "loss-opt"},
	} {
		pcu := clampF(PCUs*nonDecoderUtilO3, minMatmulPCUs, maxSectionPCUs)
		fl := shared / 3
		p.add(&section{
			name: sec.name, kind: "nondecoder",
			pcus: pcu, pmus: pcu * 1.1, flops: fl, ddrBytes: sharedBytes / 3,
			invocations: 1,
			ops:         opRow(sec.op, pcu, fl),
		})
	}
}

// decimalOrder yields the integers in [lo, hi) in the byte order of
// their decimal strings (0, 1, 10, 100, 101, ..., 11, ..., 2, ...), the
// order strings.Compare puts their strconv.Itoa forms in: a preorder
// walk of the decimal digit tree. It visits every integer below hi.
func decimalOrder(lo, hi int) iter.Seq[int] {
	return func(yield func(int) bool) {
		if lo <= 0 && 0 < hi && !yield(0) {
			return
		}
		x := 1
		for range hi - 1 {
			if x >= lo && !yield(x) {
				return
			}
			if x*10 < hi {
				x *= 10 // first child
				continue
			}
			// Climb past exhausted subtrees to the next sibling.
			for x%10 == 9 || x+1 >= hi {
				x /= 10
			}
			x++
		}
	}
}

// decimalLen is len(strconv.Itoa(x)) for x ≥ 0.
func decimalLen(x int) int {
	n := 1
	for ; x >= 10; x /= 10 {
		n++
	}
	return n
}

// decoderFwdFLOPsPerToken is one decoder block's forward FLOPs per
// token at sequence length seq.
func decoderFwdFLOPsPerToken(cfg model.Config, seq int) float64 {
	h := float64(cfg.HiddenSize)
	f := float64(cfg.FFNHidden)
	s := float64(seq)
	kvFrac := float64(cfg.KVHeads) / float64(cfg.NumHeads)
	up := h * f
	if cfg.Activation == model.SwiGLU {
		up = 2 * h * f
	}
	return 2*(h*h+2*h*h*kvFrac+h*h+up+f*h) + 4*s*h + 5*s*float64(cfg.NumHeads) + 8*f + 12*h
}
