package rdu

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"dabench/internal/graph"
	"dabench/internal/model"
	"dabench/internal/platform"
	"dabench/internal/precision"
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

// TestWarmCompileAllocs bounds what an O0 or O1 compile allocates once
// its layer graph is cached: the report and its rows, with no section
// names, section list, sort permutation or per-group scratch. Both
// model families' lowerings take the shared naming (computing one
// would cost about 50 more). The count does not depend on when the GC
// runs.
func TestWarmCompileAllocs(t *testing.T) {
	t.Cleanup(graph.ResetCache)
	const limit = 10
	slack := 0.0
	if raceEnabled {
		slack = 2
	}
	s := New()
	for _, m := range []model.Config{model.GPT2Small(), model.LLaMA2_7B()} {
		for _, mode := range []platform.CompileMode{platform.ModeO0, platform.ModeO1} {
			spec := gptSpec(12, mode)
			spec.Model = m.WithLayers(12)
			mustCompile(t, spec) // caches the layer graph
			got := testing.AllocsPerRun(50, func() {
				if _, err := s.Compile(spec); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s %v warm compile: %v allocs", m.Name, mode, got)
			if got > limit+slack {
				t.Errorf("%s %v warm compile: %v allocs, want at most %d", m.Name, mode, got, limit)
			}
		}
	}
}

// TestConcurrentCompilesMatchSerial compiles every mode for several
// model shapes from several goroutines at once, all reading the one
// process-wide naming and layer graphs, and requires each report to
// equal a serial compile's.
func TestConcurrentCompilesMatchSerial(t *testing.T) {
	t.Cleanup(graph.ResetCache)
	var specs []platform.TrainSpec
	for _, m := range []model.Config{model.GPTMini(), model.GPT2Small(), model.LLaMA2_7B()} {
		for _, mode := range []platform.CompileMode{platform.ModeO0, platform.ModeO1, platform.ModeO3} {
			specs = append(specs, platform.TrainSpec{
				Model: m.WithLayers(6), Batch: 4, Seq: 1024, Precision: precision.BF16,
				Par: platform.Parallelism{Mode: mode},
			})
		}
	}
	want := make([]*platform.CompileReport, len(specs))
	for i, spec := range specs {
		want[i] = mustCompile(t, spec)
	}
	graph.ResetCache()
	got := make([][]*platform.CompileReport, 4)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := New()
			for _, spec := range specs {
				cr, err := s.Compile(spec)
				if err != nil {
					t.Errorf("%s: %v", spec.Key(), err)
					return
				}
				got[w] = append(got[w], cr)
			}
		}()
	}
	wg.Wait()
	for w, crs := range got {
		for i, cr := range crs {
			if !reflect.DeepEqual(cr, want[i]) {
				t.Errorf("goroutine %d, %s: concurrent report differs from the serial one", w, specs[i].Key())
			}
		}
	}
}

// TestO3CompileAllocsPerSection bounds what depth costs a cold O3
// compile. O3 emits one distinct section per decoder slice, so its
// allocations grow with depth, but report assembly must not: from 4 to
// 48 layers (15 to 143 sections) each added section may cost at most
// 2 objects, its name plus strconv.Itoa's string for indices of 100
// and up.
func TestO3CompileAllocsPerSection(t *testing.T) {
	slack := 0.0
	if raceEnabled {
		slack = 2
	}
	s := New()
	measure := func(layers int) (allocs float64, sections int) {
		spec := gptSpec(layers, platform.ModeO3)
		allocs = testing.AllocsPerRun(20, func() {
			if _, err := s.Compile(spec); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, len(mustCompile(t, spec).Tasks)
	}
	lo, nLo := measure(4)
	hi, nHi := measure(48)
	t.Logf("O3 cold compile: %v allocs for %d sections at 4 layers, %v for %d at 48", lo, nLo, hi, nHi)
	if added := float64(nHi - nLo); hi-lo > 2*added+slack {
		t.Errorf("O3 cold compile grew by %v allocs over %v added sections (%.2f each), want at most 2 each",
			hi-lo, added, (hi-lo)/added)
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
