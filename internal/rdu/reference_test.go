package rdu

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dabench/internal/graph"
	"dabench/internal/metrics"
	"dabench/internal/model"
	"dabench/internal/platform"
	"dabench/internal/precision"
	"dabench/internal/units"
)

// The reference below is the byte-identity oracle for the RDU compiler.
// Its O0/O1 section walk runs over the full L-layer training graph,
// kept verbatim from before the section builders moved to a one-layer
// lowering; the one-layer builders must reproduce its sections
// exactly, including the rounding of L sequential float additions. Its
// O3 builder, report assembly (the name sort, Eq. 2 allocation and
// notes), Run and LoadImbalance are verbatim copies of the code from
// before reports were assembled in place, in name order and without
// per-call names, so the comparison covers every function the compile
// and run paths share. The copies call only the production cost
// helpers (opPCUs, opPMUs, opThroughput, clampF, precFactor, ...).

// refSection is the section record the reference builders emit.
type refSection struct {
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

// refCompile is Sim.Compile with the O0/O1 sections taken from the
// full-depth walk over g (graph.Build of spec's model at full depth).
func refCompile(s *Sim, g *graph.Graph, spec platform.TrainSpec) (*platform.CompileReport, error) {
	mode, tp, err := resolve(spec)
	if err != nil {
		return nil, err
	}
	var secs []refSection
	switch mode {
	case platform.ModeO0:
		secs = refMergedSections(g, spec, 1.0)
	case platform.ModeO1:
		secs = refBuildO1(g, spec)
	default:
		if secs, err = refBuildO3(spec); err != nil {
			return nil, err
		}
	}
	return refReport(s, spec, mode, tp, secs)
}

// refBuildO1 creates module-mode sections: the paper's operator fusion
// groups each decoder module's operators into one section, and shards
// the LM head.
func refBuildO1(g *graph.Graph, spec platform.TrainSpec) []refSection {
	h := spec.Model.HiddenSize
	L := spec.Model.NumLayers

	// Group decoder nodes by (module, phase); shared nodes stay solo
	// except the LM head, which is sharded.
	type agg struct {
		flops, traffic, pcus, pmus float64
		kind                       string
		ops                        []metrics.TaskSample
		count                      int
	}
	groups := make(map[string]*agg, 16)
	order := make([]string, 0, 16)
	add := func(key, kind string, n *graph.Node, fused bool) {
		a, ok := groups[key]
		if !ok {
			a = &agg{kind: kind}
			groups[key] = a
			order = append(order, key)
		}
		a.flops += float64(n.FLOPs)
		a.traffic += float64(n.Traffic())
		pc := opPCUs(n.Kind, h)
		if fused {
			// Fused module operators share the section spatially; the
			// section allocation is the fused-pipeline width, not the
			// sum of operator widths.
			if b := clampF(pc*o1FusionBoost, minMatmulPCUs, maxSectionPCUs); b > a.pcus {
				a.pcus = b
			}
		} else if pc > a.pcus {
			a.pcus = pc
		}
		pm := opPMUs(n.Kind, a.pcus)
		if pm > a.pmus {
			a.pmus = pm
		}
		a.count++
		a.ops = append(a.ops, metrics.TaskSample{
			Name: n.Name, Resources: pc,
			Throughput: opThroughput(n, pc, spec.Precision),
		})
	}

	var headNodes []*graph.Node
	for _, n := range g.Nodes() {
		if n.Layer >= 0 {
			mod := moduleOf(templateKey(n.Name))
			key := mod + "." + n.Phase.String()
			add(key, moduleKind(mod), n, true)
			continue
		}
		if strings.HasPrefix(n.Name, "lm-head") {
			headNodes = append(headNodes, n)
			continue
		}
		add(templateKey(n.Name)+"."+n.Phase.String(), "nondecoder", n, false)
	}

	var secs []refSection
	for _, key := range order {
		a := groups[key]
		inv := 1
		flops, traffic := a.flops, a.traffic
		if strings.HasPrefix(key, "attn.") || strings.HasPrefix(key, "mlp.") {
			inv = L
			flops /= float64(L)
			traffic /= float64(L)
			// The merged section's op rows also represent one layer,
			// and fusion rebalances the pipeline: each operator gets
			// resources proportional to its work (this is what makes
			// O1's LI markedly better than O3's, Figure 8).
			a.ops = refRebalanceOps(refDedupeOps(a.ops), a.pcus, spec)
		}
		secs = append(secs, refSection{
			name: key, kind: a.kind,
			pcus: a.pcus, pmus: a.pmus,
			flops: flops, ddrBytes: traffic,
			invocations: inv, ops: a.ops,
		})
	}

	secs = append(secs, refShardHead(spec, headNodes)...)
	return secs
}

// refDedupeOps keeps one op row per template (the merged section
// executes the same operator for every layer).
func refDedupeOps(ops []metrics.TaskSample) []metrics.TaskSample {
	seen := map[string]bool{}
	var out []metrics.TaskSample
	for _, o := range ops {
		k := templateKey(o.Name)
		if seen[k] {
			continue
		}
		seen[k] = true
		o.Name = k
		out = append(out, o)
	}
	return out
}

// refMergedSections implements O0: one section per operator template.
func refMergedSections(g *graph.Graph, spec platform.TrainSpec, fusion float64) []refSection {
	h := spec.Model.HiddenSize
	type agg struct {
		node    *graph.Node
		flops   float64
		traffic float64
		inv     int
	}
	groups := make(map[string]*agg, 48)
	order := make([]string, 0, 48)
	for _, n := range g.Nodes() {
		key := templateKey(n.Name) + "." + n.Phase.String()
		a, ok := groups[key]
		if !ok {
			a = &agg{node: n}
			groups[key] = a
			order = append(order, key)
		}
		a.flops += float64(n.FLOPs)
		a.traffic += float64(n.Traffic())
		a.inv++
	}
	secs := make([]refSection, 0, len(order))
	for _, key := range order {
		a := groups[key]
		pc := opPCUs(a.node.Kind, h) * fusion
		kind := "pointwise"
		if isMatmulKind(a.node.Kind) {
			kind = "matmul"
		}
		secs = append(secs, refSection{
			name: key, kind: kind,
			pcus:  clampF(pc, pointwisePCUs, maxSectionPCUs),
			pmus:  opPMUs(a.node.Kind, pc),
			flops: a.flops / float64(a.inv), ddrBytes: a.traffic / float64(a.inv),
			invocations: a.inv,
			ops: []metrics.TaskSample{{
				Name: key, Resources: pc,
				Throughput: opThroughput(a.node, pc, spec.Precision),
			}},
		})
	}
	return secs
}

// refRebalanceOps redistributes a fused section's PCUs work-
// proportionally, leaving only placement-quantization jitter. The
// jitter shrinks with hidden size (wider operators quantize better),
// reproducing Figure 8b's LI rising with HS.
func refRebalanceOps(ops []metrics.TaskSample, sectionPCUs float64, spec platform.TrainSpec) []metrics.TaskSample {
	var total float64
	work := make([]float64, len(ops))
	for i, o := range ops {
		if unmeasurable(o) {
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

// refShardHead splits the LM-head matmul (and its backward) into shard
// sections per the Table II(b) model.
func refShardHead(spec platform.TrainSpec, headNodes []*graph.Node) []refSection {
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
	secs := make([]refSection, 0, nsec)
	for i := 0; i < nsec; i++ {
		secs = append(secs, refSection{
			name: "lm-head.shardsec" + strconv.Itoa(i), kind: "shard",
			pcus: pcu, pmus: pmu,
			flops: flops / float64(nsec), ddrBytes: traffic / float64(nsec),
			invocations: 1, ops: ops,
		})
	}
	return secs
}

// refBuildO3 creates full-graph-mode sections: decoder-by-decoder, with
// the per-decoder section counts and utilizations of Table II(a).
func refBuildO3(spec platform.TrainSpec) ([]refSection, error) {
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

	secs := make([]refSection, 0, nFwd+nBwd+3)
	// Each section carries one op row. The rows share one backing
	// array: opRow fills the row of the section appended next and
	// returns a slice capped at that row.
	rows := make([]metrics.TaskSample, cap(secs))
	opRow := func(name string, pcu, fl float64) []metrics.TaskSample {
		k := len(secs)
		rows[k] = metrics.TaskSample{
			Name:       name,
			Resources:  pcu,
			Throughput: pcu * ratePerPCU * sectionEff * precFactor(spec.Precision) / fl,
		}
		return rows[k : k+1 : k+1]
	}
	mk := func(i, n int, phase string, util, flopsTotal, bytesTotal float64) refSection {
		// Deterministic cross-decoder allocation spread (compiler
		// balances deeper stacks worse).
		z := math.Mod(float64(i)*0.754877666+0.31, 1.0)
		factor := 1 + spread*(2*z-1)
		pcu := clampF(PCUs*util*factor, minMatmulPCUs, maxSectionPCUs)
		pmu := clampF(pcu*0.9+pmuMatmulBase, 16, maxSectionPCUs)
		fl := flopsTotal * float64(L) / float64(n)
		by := (bytesTotal*weightPasses/3 + actBytes) * float64(L) / float64(n)
		name := "decoder." + phase + "." + strconv.Itoa(i)
		return refSection{
			name: name, kind: "decoder",
			pcus: pcu, pmus: pmu, flops: fl, ddrBytes: by, invocations: 1,
			ops: opRow(name, pcu, fl),
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
	for _, name := range []string{"embedding", "lm-head", "loss-opt"} {
		pcu := clampF(PCUs*nonDecoderUtilO3, minMatmulPCUs, maxSectionPCUs)
		fl := shared / 3
		secs = append(secs, refSection{
			name: "shared." + name, kind: "nondecoder",
			pcus: pcu, pmus: pcu * 1.1, flops: fl, ddrBytes: sharedBytes / 3,
			invocations: 1,
			ops:         opRow(name, pcu, fl),
		})
	}
	return secs, nil
}

// refReport turns a mode's section list into the compile report: the DDR
// capacity check, per-section timing under TP, and the Eq. 2 weighted
// allocation.
func refReport(s *Sim, spec platform.TrainSpec, mode platform.CompileMode, tp int, secs []refSection) (*platform.CompileReport, error) {
	// DDR capacity check: weights + gradients + optimizer state.
	p := float64(spec.Model.Params())
	statePerChip := p * (2 + 2 + 8 + spec.Precision.MasterWeightBytes()) / float64(tp)
	if statePerChip > DDRBytes {
		return nil, &platform.CompileError{
			Platform: s.Name(),
			Reason: fmt.Sprintf("model state %s exceeds DDR capacity %s at TP=%d — increase tensor parallelism",
				units.Bytes(statePerChip), units.Bytes(float64(DDRBytes)), tp),
		}
	}

	// Tensor parallelism shards each section's work; crossing the
	// machine boundary (TP>2) costs allocation (Figure 11b).
	pcuDrop, pmuDrop := 1.0, 1.0
	if tp > ChipsPerNode {
		pcuDrop, pmuDrop = tpCrossPCUDrop, tpCrossPMUDrop
	}

	// Tasks are listed by section name, equal names in build order. The
	// stable sort permutes indices rather than moving the sections.
	order := make([]int, len(secs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return strings.Compare(secs[a].name, secs[b].name) })

	overhead := refSwitchOverhead(mode)
	tasks := make([]platform.Task, 0, len(secs))
	for _, k := range order {
		sec := &secs[k]
		pcu := sec.pcus * pcuDrop
		pmu := sec.pmus * pmuDrop
		t := refSectionTime(sec, pcu, spec, tp) + overhead
		thr := 0.0
		if t > 0 {
			thr = 1 / t
		}
		tasks = append(tasks, platform.Task{
			Name: sec.name, Kind: "section",
			Units:       platform.Units{PCU: pcu, PMU: pmu},
			Throughput:  thr,
			Runtime:     units.Seconds(t),
			Invocations: sec.invocations,
			FLOPs:       units.FLOPs(sec.flops / float64(tp)),
			Traffic:     units.Bytes(sec.ddrBytes / float64(tp)),
			Ops:         sec.ops,
		})
	}

	// Chip-level allocation is the time-weighted average over sections
	// (paper Eq. 2); store the weighted means as the allocation row.
	wPCU, wPMU := refWeightedAlloc(tasks)
	notes := []string{
		fmt.Sprintf("mode=%s sections=%d tp=%d", mode, len(secs), tp),
	}
	if sh := refCountShards(secs); sh > 0 {
		notes = append(notes, fmt.Sprintf("lm-head shard sections=%d", sh))
	}

	return &platform.CompileReport{
		Platform: s.Name(),
		Spec:     spec,
		Tasks:    tasks,
		Allocated: map[platform.Resource]float64{
			platform.ResPCU: wPCU * PCUs,
			platform.ResPMU: wPMU * PMUs,
		},
		Capacity: map[platform.Resource]float64{
			platform.ResPCU: PCUs,
			platform.ResPMU: PMUs,
		},
		Memory: platform.MemoryUse{
			Capacity: DDRBytes,
			Weights:  units.Bytes(statePerChip),
			Activations: spec.Model.ActivationBytesPerToken(spec.Seq, spec.Precision) *
				units.Bytes(spec.Tokens()/float64(tp)),
		},
		Notes: notes,
	}, nil
}

// refSwitchOverhead is the per-invocation fabric reconfiguration cost.
func refSwitchOverhead(mode platform.CompileMode) float64 {
	switch mode {
	case platform.ModeO0:
		return o0SwitchSec
	case platform.ModeO3:
		return o3SwitchSec
	default:
		return o1SwitchSec
	}
}

// refSectionTime is one invocation's wall time (excluding switch
// overhead): the max of compute time and DDR streaming time.
func refSectionTime(sec *refSection, pcus float64, spec platform.TrainSpec, tp int) float64 {
	if pcus <= 0 {
		return math.Inf(1)
	}
	comp := (sec.flops / float64(tp)) / (pcus * ratePerPCU * sectionEff)
	mem := (sec.ddrBytes / float64(tp)) / DDRBW
	if sec.kind == "shard" {
		comp /= headShardEffDiscount
	}
	if sec.kind == "matmul" {
		comp /= o1ModuleEffDiscount
	}
	// The precision factor applies to the whole streaming pipeline:
	// mixed precision accelerates the datapath and halves optimizer
	// DDR traffic; FP32 doubles both (Table IV).
	return math.Max(comp, mem) / precFactor(spec.Precision)
}

// refWeightedAlloc computes the Eq. 2 time-weighted PCU and PMU
// allocation ratios over the section schedule. Merged-mode matmul
// sections overlap across invocations (sub-linear growth), which is
// why O0/O1 allocation drifts down slightly with depth (Figure 7a).
func refWeightedAlloc(tasks []platform.Task) (pcu, pmu float64) {
	var num1, num2, den float64
	for _, t := range tasks {
		w := float64(t.Runtime) * refEffInvocations(t)
		num1 += w * t.Units.PCU / PCUs
		num2 += w * t.Units.PMU / PMUs
		den += w
	}
	if den == 0 {
		return 0, 0
	}
	return num1 / den, num2 / den
}

// refEffInvocations applies the merged-mode overlap exponent.
func refEffInvocations(t platform.Task) float64 {
	inv := float64(t.Invocations)
	if inv <= 1 {
		return 1
	}
	return math.Pow(inv, o0MatmulInvOverlapExp)
}

// refRun is Sim.Run.
func refRun(s *Sim, cr *platform.CompileReport) (*platform.RunReport, error) {
	if cr == nil || cr.Platform != s.Name() {
		return nil, fmt.Errorf("rdu: run requires an RDU compile report")
	}
	spec := cr.Spec
	tp := spec.Par.TensorParallel
	if tp < 1 {
		tp = 1
	}

	// Sections execute sequentially: step time is the invocation-
	// weighted sum, plus the fixed host orchestration cost (whose
	// amortization makes TFLOPs rise with depth, Figure 9b).
	var stepTime, traffic float64
	for _, t := range cr.Tasks {
		stepTime += float64(t.Runtime) * refEffInvocations(t)
		traffic += float64(t.Traffic) * float64(t.Invocations)
	}
	if stepTime <= 0 {
		return nil, fmt.Errorf("rdu: degenerate section schedule")
	}
	stepTime += hostOverheadSec

	// Batch amortization (Figure 12b): a fixed fraction of the step is
	// batch-independent orchestration.
	refBatch := 4.0
	overhead := stepTime * batchOverheadFrac * refBatch / math.Max(float64(spec.Batch), 1)
	stepTime = stepTime*(1-batchOverheadFrac) + overhead

	// Cross-machine TP serializes ring traffic on the slow link
	// (Table III's 1540 → 945 tokens/s collapse from TP2 to TP4).
	comm := 1.0
	if tp == 2 {
		comm = tpIntraFactor
	} else if tp > 2 {
		comm = tpIntraFactor / (1 + tpCrossKappa*float64(tp-2))
	}
	stepTime /= comm

	tokensPerSec := spec.Tokens() / stepTime
	flopsPerStep := float64(spec.Model.TrainFLOPs(spec.Batch, spec.Seq))
	achieved := units.FLOPSRate(flopsPerStep / stepTime / float64(tp))

	// DDR-tier arithmetic intensity from the compiled schedule
	// (Figure 10b): per-chip FLOPs over per-chip DDR traffic.
	ai := 0.0
	if traffic > 0 {
		ai = flopsPerStep / float64(tp) / traffic
	}

	return &platform.RunReport{
		Compile:       cr,
		StepTime:      units.Seconds(stepTime),
		TokensPerSec:  tokensPerSec,
		SamplesPerSec: tokensPerSec / float64(spec.Seq),
		Achieved:      achieved,
		Efficiency:    float64(achieved) / Peak16,
		AI:            ai,
	}, nil
}

// refLoadImbalance is Sim.LoadImbalance.
func refLoadImbalance(s *Sim, cr *platform.CompileReport) (float64, error) {
	if cr == nil || cr.Platform != s.Name() {
		return 0, fmt.Errorf("rdu: LI requires an RDU compile report")
	}
	if cr.Spec.Par.Mode == platform.ModeO3 {
		// O3: one decoder per section, so cross-section imbalance is
		// the operator-granularity signal; IO sections are excluded as
		// in the paper's decoder-focused analysis.
		tasks := make([]metrics.TaskSample, 0, len(cr.Tasks))
		for _, t := range cr.Tasks {
			if t.Kind != "section" || len(t.Ops) == 0 ||
				!strings.HasPrefix(t.Name, "decoder.") {
				continue
			}
			if t.Ops[0].Throughput <= 0 {
				continue
			}
			tasks = append(tasks, metrics.TaskSample{
				Name:       t.Name,
				Resources:  t.Units.PCU,
				Throughput: t.Ops[0].Throughput,
			})
		}
		return metrics.LoadImbalance(tasks)
	}
	var rows []metrics.WeightedLI
	for _, t := range cr.Tasks {
		ops := measurable(t.Ops)
		if len(ops) == 0 {
			continue
		}
		li, err := metrics.LoadImbalance(ops)
		if err != nil {
			return 0, err
		}
		rows = append(rows, metrics.WeightedLI{
			Name:    t.Name,
			Runtime: units.Seconds(float64(t.Runtime) * refEffInvocations(t)),
			LI:      li,
		})
	}
	return metrics.TimeWeightedLI(rows)
}

func refCountShards(secs []refSection) int {
	n := 0
	for _, s := range secs {
		if s.kind == "shard" {
			n++
		}
	}
	return n
}

// TestSectionsMatchFullDepthWalk compares Sim against the full-depth
// reference over a grid of models, depths, modes, TP degrees,
// precisions and batch shapes: the CompileReport JSON, the RunReport
// JSON and the LoadImbalance value must be identical, and a failed
// compile must fail with the same message. Odd batch shapes (999,
// 12345, seq 1023) are in the grid because they are where x·L and L
// sequential additions round differently.
func TestSectionsMatchFullDepthWalk(t *testing.T) {
	models := append(model.Presets(),
		model.GPT2Small().WithHidden(2048),
		model.LLaMA2_7B().WithHidden(3072),
		model.LLaMA2_7B().WithHidden(8192),
	)
	depths := []int{1, 2, 3, 7, 12, 48, 77, 78}
	shapes := []struct{ batch, seq int }{
		{1, 1024}, {4, 1024}, {999, 1024}, {12345, 1024},
		{1, 1023}, {4, 1023}, {999, 1023}, {12345, 1023},
	}
	precs := precision.All()

	// Three base points per model and depth, rotating precision and
	// batch shape together: any 40 consecutive points cover every
	// (precision, shape) pair.
	var bases []platform.TrainSpec
	for _, m := range models {
		for _, depth := range depths {
			for k := 0; k < 3; k++ {
				point := len(bases)
				prec, sh := precs[point%len(precs)], shapes[point%len(shapes)]
				bases = append(bases, platform.TrainSpec{
					Model: m.WithLayers(depth), Batch: sh.batch, Seq: sh.seq, Precision: prec,
				})
			}
		}
	}
	// On the grid above, an x·L shortcut diverges only in O1, whose
	// group totals sum several operators and pass 2^53 at paper depths.
	// O0 totals one operator per section, and on this grid those totals
	// stay exact, so x·L agrees. GPT-2 XL's softmax at batch 777777 and
	// seq 1023 rounds from 90 layers on, so this point guards O0 too.
	bases = append(bases, platform.TrainSpec{
		Model: model.GPT2XL().WithLayers(96), Batch: 777777, Seq: 1023, Precision: precision.BF16,
	})
	t.Cleanup(graph.ResetCache)

	sim := New()
	var specs, failures int
	for _, base := range bases {
		g, err := graph.Build(base.Model, graph.BuildOptions{
			Batch: base.Batch, Seq: base.Seq, Precision: base.Precision, Backward: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", base.Key(), err)
		}
		for _, mode := range []platform.CompileMode{platform.ModeO0, platform.ModeO1, platform.ModeO3} {
			for _, tp := range []int{1, 2, 4} {
				spec := base
				spec.Par = platform.Parallelism{Mode: mode, TensorParallel: tp}
				specs++
				if msg := diffAgainstReference(sim, g, spec); msg != "" {
					failures++
					t.Errorf("%s: %s", spec.Key(), msg)
					if failures == 10 {
						t.Fatalf("stopping after %d mismatches (of %d specs so far)", failures, specs)
					}
				}
			}
		}
	}
	t.Logf("%d specs byte-identical to the full-depth walk", specs)
}

// diffAgainstReference compiles, runs and measures LI for spec through
// both the reference and Sim, and describes the first difference ("" if
// none).
func diffAgainstReference(sim *Sim, g *graph.Graph, spec platform.TrainSpec) string {
	want, wantErr := refCompile(sim, g, spec)
	got, gotErr := sim.Compile(spec)
	if msg := diffErr("compile", wantErr, gotErr); msg != "" || wantErr != nil {
		return msg
	}
	if msg := diffJSON("compile report", want, got); msg != "" {
		return msg
	}
	wantRun, wantErr := refRun(sim, want)
	gotRun, gotErr := sim.Run(got)
	if msg := diffErr("run", wantErr, gotErr); msg != "" {
		return msg
	}
	if wantErr == nil {
		// The embedded compile reports already matched; compare the
		// rest of the run report without marshaling them again.
		w, g := *wantRun, *gotRun
		w.Compile, g.Compile = nil, nil
		if msg := diffJSON("run report", w, g); msg != "" {
			return msg
		}
	}
	wantLI, wantErr := refLoadImbalance(sim, want)
	gotLI, gotErr := sim.LoadImbalance(got)
	if msg := diffErr("LI", wantErr, gotErr); msg != "" {
		return msg
	}
	if math.Float64bits(wantLI) != math.Float64bits(gotLI) {
		return "LI " + strconv.FormatFloat(gotLI, 'g', -1, 64) + ", reference " + strconv.FormatFloat(wantLI, 'g', -1, 64)
	}
	return ""
}

func diffErr(stage string, want, got error) string {
	switch {
	case want == nil && got == nil:
		return ""
	case want == nil:
		return stage + " failed (" + got.Error() + "), reference succeeded"
	case got == nil:
		return stage + " succeeded, reference failed (" + want.Error() + ")"
	case want.Error() != got.Error():
		return stage + " error " + got.Error() + ", reference " + want.Error()
	}
	return ""
}

// diffJSON marshals both values and reports where their bytes diverge.
func diffJSON(what string, want, got any) string {
	wb, err := json.Marshal(want)
	if err != nil {
		return "marshal reference " + what + ": " + err.Error()
	}
	gb, err := json.Marshal(got)
	if err != nil {
		return "marshal " + what + ": " + err.Error()
	}
	if bytes.Equal(wb, gb) {
		return ""
	}
	i := 0
	for i < len(wb) && i < len(gb) && wb[i] == gb[i] {
		i++
	}
	lo := max(i-80, 0)
	return what + " JSON differs at byte " + strconv.Itoa(i) + ":\n  got " + string(gb[lo:min(i+80, len(gb))]) +
		"\n  ref " + string(wb[lo:min(i+80, len(wb))])
}
