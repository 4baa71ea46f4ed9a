package graph

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dabench/internal/model"
	"dabench/internal/precision"
	"dabench/internal/units"
)

func buildSmall(t *testing.T, layers int, backward bool) *Graph {
	t.Helper()
	g, err := Build(model.GPT2Small().WithLayers(layers), BuildOptions{
		Batch: 2, Seq: 128, Precision: precision.FP16, Backward: backward,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuildForwardShape(t *testing.T) {
	g := buildSmall(t, 3, false)
	// 12 ops per GPT-2 decoder block + embedding + final norm + head + loss.
	want := 3*12 + 4
	if g.Len() != want {
		t.Errorf("node count = %d, want %d", g.Len(), want)
	}
	if g.MaxLayer() != 2 {
		t.Errorf("MaxLayer = %d, want 2", g.MaxLayer())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuildSwiGLUHasNoSeparateGate(t *testing.T) {
	g, err := Build(model.LLaMA2_7B().WithLayers(1), BuildOptions{
		Batch: 1, Seq: 64, Precision: precision.BF16,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// SwiGLU fuses gate+up, so the block still has 12 ops; the up
	// projection carries 2·h·f parameters.
	var up *Node
	for _, n := range g.Nodes() {
		if strings.HasSuffix(n.Name, "mlp-up") {
			up = n
		}
	}
	if up == nil {
		t.Fatal("no mlp-up node")
	}
	cfg := model.LLaMA2_7B()
	wantParams := 2 * float64(cfg.HiddenSize) * float64(cfg.FFNHidden) * 2 // ×2 bytes
	if math.Abs(float64(up.ParamBytes)-wantParams) > 1 {
		t.Errorf("SwiGLU up params = %v bytes, want %v", up.ParamBytes, wantParams)
	}
}

func TestTopoSortRespectsEdges(t *testing.T) {
	g := buildSmall(t, 2, true)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatalf("TopoSort: %v", err)
	}
	pos := make(map[int]int, len(order))
	for i, n := range order {
		pos[n.ID] = i
	}
	for _, n := range g.Nodes() {
		for _, s := range g.Successors(n) {
			if pos[n.ID] >= pos[s.ID] {
				t.Fatalf("edge %s -> %s violated in topo order", n.Name, s.Name)
			}
		}
	}
}

func TestCycleDetection(t *testing.T) {
	g := New()
	a := g.AddNode(Node{Name: "a"})
	b := g.AddNode(Node{Name: "b"})
	g.MustEdge(a, b)
	g.MustEdge(b, a)
	if err := g.Validate(); err == nil {
		t.Error("cycle not detected")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New()
	a := g.AddNode(Node{Name: "a"})
	if err := g.AddEdge(a, a); err == nil {
		t.Error("self edge accepted")
	}
	if err := g.AddEdge(nil, a); err == nil {
		t.Error("nil edge accepted")
	}
	other := New()
	x := other.AddNode(Node{Name: "x"})
	if err := g.AddEdge(a, x); err == nil {
		t.Error("foreign node accepted")
	}
}

func TestBackwardRoughlyDoublesTwice(t *testing.T) {
	fwd := buildSmall(t, 4, false)
	full := buildSmall(t, 4, true)
	ffw := float64(fwd.TotalFLOPs())
	ftr := float64(full.TotalFLOPs())
	// Training ≈ 3× forward (fwd + 2× bwd) plus a small optimizer term.
	if ftr < 2.9*ffw || ftr > 3.3*ffw {
		t.Errorf("training/forward FLOPs ratio = %.2f, want ≈3", ftr/ffw)
	}
}

func TestGraphFLOPsMatchModelEstimate(t *testing.T) {
	cfg := model.GPT2Small()
	g, err := Build(cfg, BuildOptions{Batch: 4, Seq: 1024, Precision: precision.FP16, Backward: true})
	if err != nil {
		t.Fatal(err)
	}
	got := float64(g.TotalFLOPs())
	want := float64(cfg.TrainFLOPs(4, 1024))
	ratio := got / want
	if ratio < 0.85 || ratio > 1.25 {
		t.Errorf("graph FLOPs %.3g vs model estimate %.3g (ratio %.2f)", got, want, ratio)
	}
}

func TestNodesInLayer(t *testing.T) {
	g := buildSmall(t, 3, false)
	for l := 0; l < 3; l++ {
		if got := len(g.NodesInLayer(l)); got != 12 {
			t.Errorf("layer %d has %d nodes, want 13", l, got)
		}
	}
	shared := g.NodesInLayer(-1)
	if len(shared) != 4 {
		t.Errorf("shared nodes = %d, want 4", len(shared))
	}
}

func TestFilter(t *testing.T) {
	g := buildSmall(t, 2, false)
	matmuls := g.Filter(func(n *Node) bool { return n.Kind == OpMatMul })
	// 4 matmuls per block (qkv, proj, up, down) + LM head.
	if len(matmuls) != 2*4+1 {
		t.Errorf("matmul count = %d, want 9", len(matmuls))
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(model.GPT2Small(), BuildOptions{Batch: 0, Seq: 128}); err == nil {
		t.Error("zero batch accepted")
	}
	bad := model.GPT2Small()
	bad.HiddenSize = 0
	if _, err := Build(bad, BuildOptions{Batch: 1, Seq: 1}); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestTrafficPositive(t *testing.T) {
	g := buildSmall(t, 2, true)
	for _, n := range g.Nodes() {
		if n.Traffic() <= 0 {
			t.Errorf("node %s has non-positive traffic", n.Name)
		}
	}
	if g.TotalTraffic() <= g.TotalParamBytes() {
		t.Error("total traffic should exceed weight bytes")
	}
}

func TestOpKindAndPhaseStrings(t *testing.T) {
	if OpMatMul.String() != "matmul" || OpKind(99).String() == "" {
		t.Error("OpKind.String misbehaves")
	}
	if Forward.String() != "fwd" || Backward.String() != "bwd" || Update.String() != "upd" {
		t.Error("Phase.String misbehaves")
	}
	if Phase(9).String() != "Phase(9)" {
		t.Error("unknown phase formatting")
	}
}

// Property: graphs built at any small layer count are valid DAGs whose
// FLOPs grow monotonically with depth.
func TestBuildMonotoneProperty(t *testing.T) {
	cfg := model.GPT2Config("prop", 256, 1, 4)
	prev := units.FLOPs(0)
	f := func(n uint8) bool {
		l := int(n%8) + 1
		g, err := Build(cfg.WithLayers(l), BuildOptions{Batch: 1, Seq: 32, Precision: precision.FP16, Backward: true})
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		_ = prev
		return g.TotalFLOPs() > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Deterministic monotonicity sweep.
	for l := 1; l <= 6; l++ {
		g, err := Build(cfg.WithLayers(l), BuildOptions{Batch: 1, Seq: 32, Precision: precision.FP16, Backward: true})
		if err != nil {
			t.Fatal(err)
		}
		if g.TotalFLOPs() <= prev {
			t.Fatalf("FLOPs not monotone at %d layers", l)
		}
		prev = g.TotalFLOPs()
	}
}

// TestBuildSizeHintsAreExact: Build preallocates its node slab and edge
// list from nodeCountHint and edgeCountHint, so a lowering fills them
// without replacing the slab or growing the list.
func TestBuildSizeHintsAreExact(t *testing.T) {
	for _, layers := range []int{1, 3, 12} {
		for _, backward := range []bool{false, true} {
			g, err := Build(model.LLaMA2_7B().WithLayers(layers), BuildOptions{
				Batch: 1, Seq: 64, Precision: precision.BF16, Backward: backward,
			})
			if err != nil {
				t.Fatal(err)
			}
			if n, want := g.Len(), nodeCountHint(layers, backward); n != want || len(g.slab) != n {
				t.Errorf("L=%d backward=%v: %d nodes (%d in the last slab), hint %d", layers, backward, n, len(g.slab), want)
			}
			if n, want := len(g.edges), edgeCountHint(layers, backward); n != want || cap(g.edges) != want {
				t.Errorf("L=%d backward=%v: %d edges (cap %d), hint %d", layers, backward, n, cap(g.edges), want)
			}
		}
	}
}
