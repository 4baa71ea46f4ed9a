package rdu

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"

	"dabench/internal/graph"
	"dabench/internal/metrics"
	"dabench/internal/model"
	"dabench/internal/platform"
	"dabench/internal/precision"
)

// The reference below is the O0/O1 section walk over the full L-layer
// training graph, kept verbatim from before the section builders moved
// to a one-layer lowering. It is the byte-identity oracle for that
// change: the one-layer builders must reproduce its sections exactly,
// including the rounding of L sequential float additions.

// refCompile is Sim.Compile with the O0/O1 sections taken from the
// full-depth walk over g (graph.Build of spec's model at full depth).
func refCompile(s *Sim, g *graph.Graph, spec platform.TrainSpec) (*platform.CompileReport, error) {
	mode, tp, err := resolve(spec)
	if err != nil {
		return nil, err
	}
	var secs []section
	switch mode {
	case platform.ModeO0:
		secs = refMergedSections(g, spec, 1.0)
	case platform.ModeO1:
		secs = refBuildO1(g, spec)
	default:
		if secs, err = buildO3(spec); err != nil {
			return nil, err
		}
	}
	return s.report(spec, mode, tp, secs)
}

// refBuildO1 creates module-mode sections: the paper's operator fusion
// groups each decoder module's operators into one section, and shards
// the LM head.
func refBuildO1(g *graph.Graph, spec platform.TrainSpec) []section {
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

	var secs []section
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
			a.ops = rebalanceOps(refDedupeOps(a.ops), a.pcus, spec)
		}
		secs = append(secs, section{
			name: key, kind: a.kind,
			pcus: a.pcus, pmus: a.pmus,
			flops: flops, ddrBytes: traffic,
			invocations: inv, ops: a.ops,
		})
	}

	secs = append(secs, shardHead(spec, headNodes)...)
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
func refMergedSections(g *graph.Graph, spec platform.TrainSpec, fusion float64) []section {
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
	secs := make([]section, 0, len(order))
	for _, key := range order {
		a := groups[key]
		pc := opPCUs(a.node.Kind, h) * fusion
		kind := "pointwise"
		if isMatmulKind(a.node.Kind) {
			kind = "matmul"
		}
		secs = append(secs, section{
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
	wantRun, wantErr := sim.Run(want)
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
	wantLI, wantErr := sim.LoadImbalance(want)
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
