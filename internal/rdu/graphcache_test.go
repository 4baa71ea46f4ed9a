package rdu

import (
	"math"
	"reflect"
	"testing"

	"dabench/internal/graph"
	"dabench/internal/platform"
)

// TestCompileSharesGraphAcrossModes asserts the cross-spec payoff the
// graph cache exists for: O0 and O1 compiles of one model shape (at
// any TP degree and any depth) lower its single decoder layer once.
func TestCompileSharesGraphAcrossModes(t *testing.T) {
	graph.ResetCache()
	s := New()
	before := graph.Stats()
	if _, err := s.Compile(gptSpec(8, platform.ModeO0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compile(gptSpec(8, platform.ModeO1)); err != nil {
		t.Fatal(err)
	}
	d := graph.Stats().Sub(before)
	if d.Misses != 1 || d.Hits != 1 {
		t.Errorf("graph cache deltas = %+v, want O1 to reuse O0's build (1 miss / 1 hit)", d)
	}

	// The key is depth-normalised, so a layer ladder is one build too.
	graph.ResetCache()
	ladder := []int{4, 8, 12, 16, 24, 32, 40, 48}
	before = graph.Stats()
	for i, l := range ladder {
		mode := platform.ModeO0
		if i%2 == 1 {
			mode = platform.ModeO1
		}
		if _, err := s.Compile(gptSpec(l, mode)); err != nil {
			t.Fatal(err)
		}
	}
	d = graph.Stats().Sub(before)
	if d.Misses != 1 || d.Hits != int64(len(ladder)-1) {
		t.Errorf("graph cache deltas over a %d-depth ladder = %+v, want 1 miss / %d hits",
			len(ladder), d, len(ladder)-1)
	}
}

// TestCompileAllocsIndependentOfDepth pins what the one-layer lowering
// buys: a cold O0 or O1 compile (graph cache dropped every run)
// allocates the same at every depth, where an L-layer walk grew with L.
func TestCompileAllocsIndependentOfDepth(t *testing.T) {
	t.Cleanup(graph.ResetCache)
	slack := 0.0
	if raceEnabled {
		slack = 2
	}
	s := New()
	for _, mode := range []platform.CompileMode{platform.ModeO0, platform.ModeO1} {
		var want float64
		for i, l := range []int{2, 12, 48} {
			spec := gptSpec(l, mode)
			got := testing.AllocsPerRun(20, func() {
				graph.ResetCache()
				if _, err := s.Compile(spec); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%v cold compile at %d layers: %v allocs", mode, l, got)
			if i == 0 {
				want = got
			} else if math.Abs(got-want) > slack {
				t.Errorf("%v cold compile at %d layers: %v allocs, want %v (as at 2 layers)", mode, l, got, want)
			}
		}
	}
}

// TestCompileLeavesCachedGraphUntouched is the consumer-side guard of
// the graph immutability contract: section building over a shared
// cached graph must not perturb it, or a later compile of the same
// workload would read a corrupted lowering.
func TestCompileLeavesCachedGraphUntouched(t *testing.T) {
	graph.ResetCache()
	g, err := layerGraph(gptSpec(8, platform.ModeO0))
	if err != nil {
		t.Fatal(err)
	}
	before := make([]graph.Node, 0, g.Len())
	for _, n := range g.Nodes() {
		before = append(before, *n)
	}

	crA := mustCompile(t, gptSpec(8, platform.ModeO0))
	crB := mustCompile(t, gptSpec(8, platform.ModeO1))

	after := make([]graph.Node, 0, g.Len())
	for _, n := range g.Nodes() {
		after = append(after, *n)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("section builders mutated the shared cached graph")
	}

	// And a re-compile over the (still cached) graph must reproduce the
	// original reports exactly.
	if !reflect.DeepEqual(crA, mustCompile(t, gptSpec(8, platform.ModeO0))) {
		t.Error("O0 re-compile over the cached graph diverged")
	}
	if !reflect.DeepEqual(crB, mustCompile(t, gptSpec(8, platform.ModeO1))) {
		t.Error("O1 re-compile over the cached graph diverged")
	}
}
