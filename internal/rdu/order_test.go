package rdu

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dabench/internal/graph"
	"dabench/internal/model"
	"dabench/internal/platform"
	"dabench/internal/precision"
)

// TestDecimalOrderMatchesStringSort pins the digit-tree walk to what it
// replaces: sort.Strings over strconv.Itoa, on ranges that cross digit
// boundaries.
func TestDecimalOrderMatchesStringSort(t *testing.T) {
	for _, r := range []struct{ lo, hi int }{{0, 1}, {0, 10}, {7, 12}, {95, 105}, {0, 1000}, {3, 3}, {32, 140}} {
		var want []string
		for i := r.lo; i < r.hi; i++ {
			want = append(want, strconv.Itoa(i))
		}
		sort.Strings(want)
		var got []string
		for i := range decimalOrder(r.lo, r.hi) {
			got = append(got, strconv.Itoa(i))
		}
		if !slices.Equal(got, want) {
			t.Errorf("decimalOrder(%d, %d) = %v, want %v", r.lo, r.hi, got, want)
		}
	}
	var first []int
	for i := range decimalOrder(0, 1000) {
		if first = append(first, i); len(first) == 3 {
			break
		}
	}
	if !slices.Equal(first, []int{0, 1, 10}) {
		t.Errorf("decimalOrder(0, 1000) stopped after %v, want [0 1 10]", first)
	}
}

// TestO3BuildsInNameOrder requires buildO3's sections to come out in
// strings.Compare order at every depth from 1 to 1,024 for the paper's
// hidden sizes, so report never sorts an O3 schedule.
func TestO3BuildsInNameOrder(t *testing.T) {
	for _, h := range []int{256, 480, 512, 768, 1024, 1280, 1600} {
		t.Run("HS"+strconv.Itoa(h), func(t *testing.T) {
			t.Parallel()
			base := model.DecoderBlock(model.GPT2, h)
			for depth := 1; depth <= 1024; depth++ {
				spec := platform.TrainSpec{
					Model: base.WithLayers(depth), Batch: 4, Seq: 1024, Precision: precision.BF16,
					Par: platform.Parallelism{Mode: platform.ModeO3},
				}
				p := newPlan(spec, platform.ModeO3, 1)
				buildO3(&p)
				for i := 1; i < len(p.tasks); i++ {
					if p.tasks[i].Name < p.tasks[i-1].Name {
						t.Fatalf("%d layers: section %q follows %q", depth, p.tasks[i].Name, p.tasks[i-1].Name)
					}
				}
			}
		})
	}
}

// TestFracIsMod pins frac to the math.Mod(x, 1) it replaces, bit for
// bit, over more section indices than a 1,024-layer O3 schedule has.
func TestFracIsMod(t *testing.T) {
	for _, c := range []struct{ mul, add float64 }{{0.754877666, 0.31}, {0.6180339887, 0.41}} {
		for i := 0; i < 1<<16; i++ {
			x := float64(i)*c.mul + c.add
			if got, want := frac(x), math.Mod(x, 1.0); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("frac(%d·%v+%v) = %v, math.Mod gives %v", i, c.mul, c.add, got, want)
			}
		}
	}
}

// TestNamingOfOtherLowering covers namingOf's fallback: a lowering whose
// nodes differ from the one-layer vocabulary's (here two layers) gets a
// naming computed for it, with the names, name order and fused groups
// the builders would derive node by node.
func TestNamingOfOtherLowering(t *testing.T) {
	g, err := graph.Build(model.GPT2Small().WithLayers(2), graph.BuildOptions{
		Batch: 1, Seq: 8, Precision: precision.BF16, Backward: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	nm := namingOf(g)
	if nm == oneLayerNaming() || !nm.matches(g) {
		t.Fatal("a two-layer lowering got the one-layer naming")
	}
	names := make([]string, g.Len())
	for k, n := range g.Nodes() {
		if want := templateKey(n.Name) + "." + n.Phase.String(); nm.name[k] != want {
			t.Errorf("node %q: section name %q, want %q", n.Name, nm.name[k], want)
		}
		names[k] = nm.name[k]
	}
	var ordered []string
	for _, k := range nm.o0Order {
		ordered = append(ordered, names[k])
	}
	if !slices.IsSorted(ordered) {
		t.Error("O0 order is not name order")
	}
	var decoder, heads, ops int
	for _, n := range g.Nodes() {
		switch {
		case n.Layer >= 0:
			decoder++
		case strings.HasPrefix(n.Name, "lm-head"):
			heads++
		}
	}
	for _, fg := range nm.groups {
		ops += fg.ops
	}
	if len(nm.groups) != 6 || ops != decoder || nm.heads != heads {
		t.Errorf("%d groups of %d ops and %d head nodes, want 6 groups of %d and %d", len(nm.groups), ops, nm.heads, decoder, heads)
	}
}
