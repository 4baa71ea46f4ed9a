package rdu

import (
	"math"
	"sort"
	"strconv"
	"strings"

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

// buildO0 creates operator-mode sections: one per operator template,
// invoked once per decoder layer.
func buildO0(spec platform.TrainSpec) ([]section, error) {
	g, err := layerGraph(spec)
	if err != nil {
		return nil, err
	}
	h := spec.Model.HiddenSize
	secs := make([]section, 0, g.Len())
	for _, n := range g.Nodes() {
		inv := 1
		if n.Layer >= 0 {
			inv = spec.Model.NumLayers
		}
		// Per-invocation work is the L-layer total over L, the total
		// summed one layer at a time (see layerSum).
		flops := layerSum(float64(n.FLOPs), inv) / float64(inv)
		traffic := layerSum(float64(n.Traffic()), inv) / float64(inv)
		key := templateKey(n.Name) + "." + n.Phase.String()
		pc := opPCUs(n.Kind, h)
		kind := "pointwise"
		if isMatmulKind(n.Kind) {
			kind = "matmul"
		}
		secs = append(secs, section{
			name: key, kind: kind,
			pcus:  clampF(pc, pointwisePCUs, maxSectionPCUs),
			pmus:  opPMUs(n.Kind, pc),
			flops: flops, ddrBytes: traffic,
			invocations: inv,
			ops: []metrics.TaskSample{{
				Name: key, Resources: pc,
				Throughput: opThroughput(n, pc, spec.Precision),
			}},
		})
	}
	return secs, nil
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
func buildO1(spec platform.TrainSpec) ([]section, error) {
	g, err := layerGraph(spec)
	if err != nil {
		return nil, err
	}
	h := spec.Model.HiddenSize
	L := spec.Model.NumLayers

	// A fused (module, phase) group: one layer's operators in graph
	// order, and the section totals accumulated over all L layers.
	type agg struct {
		key, kind                  string
		nodes                      []*graph.Node
		flops, traffic, pcus, pmus float64
	}
	var (
		groups    []*agg
		headNodes []*graph.Node
	)
	secs := make([]section, 0, 16)
	for _, n := range g.Nodes() {
		if n.Layer >= 0 {
			mod := moduleOf(templateKey(n.Name))
			key := mod + "." + n.Phase.String()
			i := 0
			for i < len(groups) && groups[i].key != key {
				i++
			}
			if i == len(groups) {
				groups = append(groups, &agg{key: key, kind: moduleKind(mod)})
			}
			groups[i].nodes = append(groups[i].nodes, n)
			continue
		}
		if strings.HasPrefix(n.Name, "lm-head") {
			headNodes = append(headNodes, n)
			continue
		}
		// Shared nodes other than the LM head stay solo.
		pc := opPCUs(n.Kind, h)
		secs = append(secs, section{
			name: templateKey(n.Name) + "." + n.Phase.String(), kind: "nondecoder",
			pcus: pc, pmus: opPMUs(n.Kind, pc),
			flops: float64(n.FLOPs), ddrBytes: float64(n.Traffic()),
			invocations: 1,
			ops: []metrics.TaskSample{{
				Name: n.Name, Resources: pc,
				Throughput: opThroughput(n, pc, spec.Precision),
			}},
		})
	}

	for _, a := range groups {
		// Accumulate layer by layer, in the order an L-layer walk adds
		// the group's nodes, so the sums round as that walk's do (a
		// one-layer subtotal times L would not; see layerSum). From the
		// second layer on, the PMU maximum sees the group's full fused
		// width, as it does there.
		for l := 0; l < L; l++ {
			for _, n := range a.nodes {
				a.flops += float64(n.FLOPs)
				a.traffic += float64(n.Traffic())
				// Fused module operators share the section spatially;
				// the section allocation is the fused-pipeline width,
				// not the sum of operator widths.
				if b := clampF(opPCUs(n.Kind, h)*o1FusionBoost, minMatmulPCUs, maxSectionPCUs); b > a.pcus {
					a.pcus = b
				}
				if pm := opPMUs(n.Kind, a.pcus); pm > a.pmus {
					a.pmus = pm
				}
			}
		}
		// The merged section's op rows represent one layer, and fusion
		// rebalances the pipeline: each operator gets resources
		// proportional to its work (this is what makes O1's LI
		// markedly better than O3's, Figure 8).
		ops := make([]metrics.TaskSample, len(a.nodes))
		for i, n := range a.nodes {
			pc := opPCUs(n.Kind, h)
			ops[i] = metrics.TaskSample{
				Name: templateKey(n.Name), Resources: pc,
				Throughput: opThroughput(n, pc, spec.Precision),
			}
		}
		secs = append(secs, section{
			name: a.key, kind: a.kind,
			pcus: a.pcus, pmus: a.pmus,
			flops: a.flops / float64(L), ddrBytes: a.traffic / float64(L),
			invocations: L, ops: rebalanceOps(ops, a.pcus, spec),
		})
	}

	secs = append(secs, shardHead(spec, headNodes)...)
	return secs, nil
}

// rebalanceOps redistributes a fused section's PCUs work-
// proportionally, leaving only placement-quantization jitter. The
// jitter shrinks with hidden size (wider operators quantize better),
// reproducing Figure 8b's LI rising with HS.
func rebalanceOps(ops []metrics.TaskSample, sectionPCUs float64, spec platform.TrainSpec) []metrics.TaskSample {
	var total float64
	work := make([]float64, len(ops))
	for i, o := range ops {
		if o.Throughput <= 0 || math.IsInf(o.Throughput, 1) {
			continue
		}
		// Recover the op's FLOPs from its throughput and allocation.
		work[i] = o.Resources * ratePerPCU * sectionEff * precFactor(spec.Precision) / o.Throughput
		total += work[i]
	}
	if total == 0 {
		return ops
	}
	h := float64(spec.Model.HiddenSize)
	spread := o1Spread * (1 + spreadHSRef/(spreadHSRef+h)) / 1.5
	out := make([]metrics.TaskSample, len(ops))
	for i, o := range ops {
		if work[i] == 0 {
			out[i] = o
			continue
		}
		z := math.Mod(float64(i)*0.6180339887+0.41, 1.0)
		res := sectionPCUs * work[i] / total * (1 + spread*(2*z-1))
		out[i] = metrics.TaskSample{
			Name:       o.Name,
			Resources:  res,
			Throughput: res * ratePerPCU * sectionEff * precFactor(spec.Precision) / work[i],
		}
	}
	return out
}

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

// shardHead splits the LM-head matmul (and its backward) into shard
// sections per the Table II(b) model.
func shardHead(spec platform.TrainSpec, headNodes []*graph.Node) []section {
	if len(headNodes) == 0 {
		return nil
	}
	cfg := spec.Model
	headBytes := 2.0 * float64(cfg.VocabSize) * float64(cfg.HiddenSize)
	shards := int(math.Ceil(headBytes / shardBudgetBytes))
	if shards < 1 {
		shards = 1
	}
	nsec := int(math.Ceil(float64(shards) / shardsPerSection))
	pcu := clampF(shardSectionPCUBase-shardSectionPCUSlope*float64(shards-9),
		shardSectionPCUFloor, shardSectionPCUBase)
	pmu := clampF(shardSectionPMUBase+shardSectionPMUSlope*float64(shards-9),
		shardSectionPMUBase, shardSectionPMUCeil)

	var flops, traffic float64
	var ops []metrics.TaskSample
	for _, n := range headNodes {
		flops += float64(n.FLOPs)
		traffic += float64(n.Traffic())
		ops = append(ops, metrics.TaskSample{
			Name: n.Name, Resources: pcu,
			Throughput: opThroughput(n, pcu, spec.Precision),
		})
	}
	secs := make([]section, 0, nsec)
	for i := 0; i < nsec; i++ {
		secs = append(secs, section{
			name: "lm-head.shardsec" + strconv.Itoa(i), kind: "shard",
			pcus: pcu, pmus: pmu,
			flops: flops / float64(nsec), ddrBytes: traffic / float64(nsec),
			invocations: 1, ops: ops,
		})
	}
	return secs
}

// opThroughput is the operator's isolated rate in invocations/s.
func opThroughput(n *graph.Node, pcus float64, f precision.Format) float64 {
	fl := float64(n.FLOPs)
	if fl <= 0 {
		return math.Inf(1)
	}
	return pcus * ratePerPCU * sectionEff * precFactor(f) / fl
}

// buildO3 creates full-graph-mode sections: decoder-by-decoder, with
// the per-decoder section counts and utilizations of Table II(a).
func buildO3(spec platform.TrainSpec) ([]section, error) {
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

	secs := make([]section, 0, L*2+3)
	mk := func(i, n int, phase string, util, flopsTotal, bytesTotal float64) section {
		// Deterministic cross-decoder allocation spread (compiler
		// balances deeper stacks worse).
		z := math.Mod(float64(i)*0.754877666+0.31, 1.0)
		factor := 1 + spread*(2*z-1)
		pcu := clampF(PCUs*util*factor, minMatmulPCUs, maxSectionPCUs)
		pmu := clampF(pcu*0.9+pmuMatmulBase, 16, maxSectionPCUs)
		fl := flopsTotal * float64(L) / float64(n)
		by := (bytesTotal*weightPasses/3 + actBytes) * float64(L) / float64(n)
		name := "decoder." + phase + "." + strconv.Itoa(i)
		return section{
			name: name, kind: "decoder",
			pcus: pcu, pmus: pmu, flops: fl, ddrBytes: by, invocations: 1,
			ops: []metrics.TaskSample{{
				Name:       name,
				Resources:  pcu,
				Throughput: pcu * ratePerPCU * sectionEff * precFactor(spec.Precision) / fl,
			}},
		}
	}
	for i := 0; i < nFwd; i++ {
		secs = append(secs, mk(i, nFwd, "fwd", fUtil, fwdFlops, layerBytes))
	}
	for i := 0; i < nBwd; i++ {
		secs = append(secs, mk(nFwd+i, nBwd, "bwd", bUtil, bwdFlops, 2*layerBytes))
	}

	// Non-decoder sections: embedding, head, loss, optimizer.
	shared := 3.0 * 2 * float64(cfg.EmbeddingHeadMatmulParams()) * tokens
	sharedBytes := weightPasses * 2 * float64(cfg.EmbeddingParams()+cfg.EmbeddingHeadMatmulParams())
	for i, name := range []string{"embedding", "lm-head", "loss-opt"} {
		pcu := clampF(PCUs*nonDecoderUtilO3, minMatmulPCUs, maxSectionPCUs)
		fl := shared / 3
		secs = append(secs, section{
			name: "shared." + name, kind: "nondecoder",
			pcus: pcu, pmus: pcu * 1.1, flops: fl, ddrBytes: sharedBytes / 3,
			invocations: 1,
			ops: []metrics.TaskSample{{
				Name: name, Resources: pcu,
				Throughput: pcu * ratePerPCU * sectionEff * precFactor(spec.Precision) / fl,
			}},
		})
		_ = i
	}
	return secs, nil
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

// sortSections gives deterministic ordering for reports.
func sortSections(secs []section) {
	sort.SliceStable(secs, func(i, j int) bool { return secs[i].name < secs[j].name })
}
