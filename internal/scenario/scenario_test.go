package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dabench/internal/experiments"
	"dabench/internal/report"
)

// -update regenerates the golden files from the current engine output.
var update = flag.Bool("update", false, "rewrite golden files")

// TestLibraryGolden pins every built-in scenario's rendered text
// output to a golden file: the engine's comparisons, point order and
// formatting are all part of the cross-entry-point byte-identity
// contract, so any drift must be a conscious golden update.
func TestLibraryGolden(t *testing.T) {
	for _, sc := range Library() {
		t.Run(sc.Name, func(t *testing.T) {
			out, err := Run(context.Background(), sc, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := out.Render(&buf, false); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", sc.Name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("rendered output diverged from %s:\n--- got ---\n%s\n--- want ---\n%s",
					golden, buf.Bytes(), want)
			}
		})
	}
}

// TestLibraryIsValidAndNamed: every library entry must parse its own
// JSON round trip (the server POSTs library documents through Parse)
// and resolve via ByName.
func TestLibraryRoundTripsThroughParse(t *testing.T) {
	if len(Library()) < 4 {
		t.Fatalf("library has %d scenarios, want at least 4", len(Library()))
	}
	for _, sc := range Library() {
		data, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if parsed.Name != sc.Name {
			t.Errorf("round trip changed the name: %q vs %q", parsed.Name, sc.Name)
		}
		if got, ok := ByName(sc.Name); !ok || got != sc {
			t.Errorf("ByName(%q) = %v, %v", sc.Name, got, ok)
		}
	}
}

func TestParseRejections(t *testing.T) {
	cases := map[string]string{
		"wrong version":      `{"version":2,"name":"x","platforms":["wse"],"base":{"model":"gpt2-small"}}`,
		"missing name":       `{"version":1,"platforms":["wse"],"base":{"model":"gpt2-small"}}`,
		"no platforms":       `{"version":1,"name":"x","base":{"model":"gpt2-small"}}`,
		"unknown platform":   `{"version":1,"name":"x","platforms":["tpu"],"base":{"model":"gpt2-small"}}`,
		"duplicate platform": `{"version":1,"name":"x","platforms":["wse","cerebras"],"base":{"model":"gpt2-small"}}`,
		"unknown model":      `{"version":1,"name":"x","platforms":["wse"],"base":{"model":"nope"}}`,
		"missing model":      `{"version":1,"name":"x","platforms":["wse"],"base":{}}`,
		"bad precision":      `{"version":1,"name":"x","platforms":["wse"],"base":{"model":"gpt2-small","precision":"int4"}}`,
		"bad mode":           `{"version":1,"name":"x","platforms":["wse"],"base":{"model":"gpt2-small","mode":"O7"}}`,
		"bad grid mode":      `{"version":1,"name":"x","platforms":["wse"],"base":{"model":"gpt2-small"},"grid":{"modes":["O2"]}}`,
		"zero layer axis":    `{"version":1,"name":"x","platforms":["wse"],"base":{"model":"gpt2-small"},"grid":{"layers":[0]}}`,
		"negative batch":     `{"version":1,"name":"x","platforms":["wse"],"base":{"model":"gpt2-small"},"grid":{"batches":[-1]}}`,
		"foreign baseline":   `{"version":1,"name":"x","platforms":["wse","rdu"],"base":{"model":"gpt2-small"},"baseline":"gpu"}`,
		"unknown comparison": `{"version":1,"name":"x","platforms":["wse","rdu"],"base":{"model":"gpt2-small"},"compare":["median"]}`,
		"speedup needs two":  `{"version":1,"name":"x","platforms":["wse"],"base":{"model":"gpt2-small"},"compare":["speedup"]}`,
		"unknown field":      `{"version":1,"name":"x","platforms":["wse"],"base":{"model":"gpt2-small"},"bogus":1}`,
		"trailing data":      `{"version":1,"name":"x","platforms":["wse"],"base":{"model":"gpt2-small"}} {}`,
	}
	for label, doc := range cases {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("%s: accepted %s", label, doc)
		}
	}
}

func TestPointsAndLabels(t *testing.T) {
	sc := &Scenario{
		Version: FormatVersion, Name: "t", Platforms: []string{"wse", "gpu"},
		Base: Base{Model: "gpt2-small"},
		Grid: Grid{Layers: []int{6, 12}, Batches: []int{128, 256}, Precisions: []string{"FP16"}},
	}
	n, err := sc.Points()
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 { // 2 layers × 2 batches × 1 precision × 2 platforms
		t.Errorf("points = %d, want 8", n)
	}
	a, err := sc.compile()
	if err != nil {
		t.Fatal(err)
	}
	wantLabels := []string{
		"L=6/B=128/FP16", "L=6/B=256/FP16", "L=12/B=128/FP16", "L=12/B=256/FP16",
	}
	for i, want := range wantLabels {
		if got := a.pts.Label(i); got != want {
			t.Errorf("label(%d) = %q, want %q", i, got, want)
		}
	}

	// No grid at all: one point, labeled "base".
	flat := &Scenario{Version: FormatVersion, Name: "t", Platforms: []string{"wse"},
		Base: Base{Model: "gpt2-small"}}
	fa, err := flat.compile()
	if err != nil {
		t.Fatal(err)
	}
	if fa.gridN != 1 || fa.pts.Label(0) != "base" {
		t.Errorf("flat scenario = %d points, label %q", fa.gridN, fa.pts.Label(0))
	}
}

// TestRunProgressAndFailures: progress is cumulative and ends at the
// full platform×grid product, and placement failures are findings that
// surface as Fail rows, not errors.
func TestRunProgressAndFailures(t *testing.T) {
	sc := &Scenario{
		Version: FormatVersion, Name: "t", Platforms: []string{"wse"},
		Base: Base{Model: "gpt2-small"},
		Grid: Grid{Layers: []int{6, 78}}, // 78 layers does not place on the WSE-2
	}
	var beats []int
	out, err := Run(context.Background(), sc, RunOptions{
		Progress: func(done, failed int) { beats = append(beats, done) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(beats) == 0 || beats[len(beats)-1] != 2 {
		t.Errorf("progress beats = %v, want final 2", beats)
	}
	if out.Failed != 1 || out.GridPoints != 2 || out.TotalPoints != 2 {
		t.Errorf("outcome = %d failed of %d grid / %d total, want 1 of 2/2",
			out.Failed, out.GridPoints, out.TotalPoints)
	}
	var buf bytes.Buffer
	if err := out.Render(&buf, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fail") {
		t.Errorf("failed point not rendered as a Fail row:\n%s", buf.String())
	}
	// The compiler's reason must be reachable, not just the marker.
	if !strings.Contains(buf.String(), "— failures") || !strings.Contains(buf.String(), "compile") {
		t.Errorf("failure reason not surfaced:\n%s", buf.String())
	}
}

// TestInvalidSpecsFailAtParse: a document whose specs cannot validate
// (bad seq, seq over the model max, a tensor-parallel degree past
// platform.MaxParallelism) must fail at Parse/Points — submission time
// — not deep inside an executor as an internal error.
func TestInvalidSpecsFailAtParse(t *testing.T) {
	cases := map[string]string{
		"negative seq": `{"version":1,"name":"x","platforms":["wse"],"base":{"model":"gpt2-small","seq":-5}}`,
		"seq over max": `{"version":1,"name":"x","platforms":["wse"],"base":{"model":"gpt2-small","seq":999999}}`,
		"tp over max":  `{"version":1,"name":"x","platforms":["rdu"],"base":{"model":"gpt2-small"},"grid":{"tensor_parallel":[1,1025]}}`,
		"tp 2^62":      `{"version":1,"name":"x","platforms":["rdu"],"base":{"model":"gpt2-small"},"grid":{"tensor_parallel":[4611686018427387904]}}`,
	}
	for label, doc := range cases {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("%s: accepted %s", label, doc)
		}
	}
	const atBound = `{"version":1,"name":"x","platforms":["rdu"],"base":{"model":"gpt2-small"},"grid":{"tensor_parallel":[1,1024]}}`
	if _, err := Parse([]byte(atBound)); err != nil {
		t.Errorf("tp at the bound rejected: %v", err)
	}
}

// TestParetoFrontierMatchesQuadraticReference checks the O(n log n)
// frontier sweep against a brute-force dominance scan on synthetic
// outcomes full of ties — the regime where the sweep's grouping logic
// could diverge from the definition.
func TestParetoFrontierMatchesQuadraticReference(t *testing.T) {
	sc := &Scenario{
		Version: FormatVersion, Name: "p", Platforms: []string{"wse", "gpu"},
		Base: Base{Model: "gpt2-small"},
		Grid: Grid{Layers: []int{1, 2, 3, 4, 5}, Batches: []int{1, 2, 3, 4, 5}},
	}
	a, err := sc.compile()
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic pseudo-random outcomes over tiny discrete value
	// sets so (tps, eff) ties are common.
	n := len(a.plats) * a.gridN
	results := make([]pointOut, n)
	state := uint64(42)
	next := func(m uint64) uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return (state >> 33) % m
	}
	for i := range results {
		if next(10) == 0 {
			results[i] = pointOut{failed: true, reason: "synthetic"}
			continue
		}
		results[i] = pointOut{tps: float64(1 + next(4)), eff: float64(1+next(4)) / 10}
	}

	got := a.paretoTable("p", results)

	// Reference: quadratic dominance filter + presentation sort.
	type cand struct{ pi, pt int }
	var ok []cand
	for pi := range a.names {
		for pt := 0; pt < a.gridN; pt++ {
			if !at(results, a.gridN, pi, pt).failed {
				ok = append(ok, cand{pi, pt})
			}
		}
	}
	var frontier []cand
	for _, c := range ok {
		rc := at(results, a.gridN, c.pi, c.pt)
		dominated := false
		for _, d := range ok {
			rd := at(results, a.gridN, d.pi, d.pt)
			if rd.tps >= rc.tps && rd.eff >= rc.eff && (rd.tps > rc.tps || rd.eff > rc.eff) {
				dominated = true
				break
			}
		}
		if !dominated {
			frontier = append(frontier, c)
		}
	}
	sort.Slice(frontier, func(i, j int) bool {
		ri := at(results, a.gridN, frontier[i].pi, frontier[i].pt)
		rj := at(results, a.gridN, frontier[j].pi, frontier[j].pt)
		if ri.tps != rj.tps {
			return ri.tps > rj.tps
		}
		if ri.eff != rj.eff {
			return ri.eff > rj.eff
		}
		if frontier[i].pi != frontier[j].pi {
			return frontier[i].pi < frontier[j].pi
		}
		return frontier[i].pt < frontier[j].pt
	})
	want := report.New(got.Title, got.Headers...)
	for _, c := range frontier {
		r := at(results, a.gridN, c.pi, c.pt)
		want.Add(a.names[c.pi], a.pts.Label(c.pt), report.F(r.tps), report.F(100*r.eff))
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Errorf("frontier diverged from the quadratic reference:\ngot  %v\nwant %v", got.Rows, want.Rows)
	}
	if len(got.Rows) == 0 {
		t.Fatal("synthetic frontier is empty — test lost its teeth")
	}
}

// TestRunHitsSharedCaches: a scenario executes on the process-wide
// cached platforms, so an immediate re-run must add zero compile
// misses — the property the warm-daemon acceptance relies on.
func TestRunHitsSharedCaches(t *testing.T) {
	experiments.ResetCaches()
	sc, ok := ByName("rdu-build-modes")
	if !ok {
		t.Fatal("library scenario missing")
	}
	cold, err := Run(context.Background(), sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := experiments.CacheStats()
	warm, err := Run(context.Background(), sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	delta := experiments.CacheStats().Sub(before)
	if delta.Misses != 0 {
		t.Errorf("warm re-run compiled %d specs, want 0", delta.Misses)
	}
	var a, b bytes.Buffer
	if err := cold.Render(&a, false); err != nil {
		t.Fatal(err)
	}
	if err := warm.Render(&b, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("cold and warm renders differ")
	}
}
