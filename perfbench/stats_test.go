package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestReportNeedsTenBeyondP99(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return v
	}
	if _, err := report(seq(999)); err == nil {
		t.Fatal("999 samples supported a p99")
	}
	r, err := report(seq(1000))
	if err != nil {
		t.Fatal(err)
	}
	if r.N != 1000 || r.P50 != 500 || r.P99 != 990 {
		t.Fatalf("got %+v", r)
	}
	// A failed op is +Inf: it lands at the top, beyond every limit.
	v := seq(1000)
	v[0] = math.Inf(1)
	if r, _ := report(v); r.P99 != 990 {
		t.Fatalf("one failed op moved p99 to %v", r.P99)
	}
}

// failingOutcome is three reps of 1000 ops each, of which the last
// failedPerRep failed (2% of them for 20, more than a p99's tail).
func failingOutcome(failedPerRep int) *outcome {
	o := &outcome{setup: []float64{0.2, 0.1, 0.3}}
	for r := 0; r < 3; r++ {
		rp := rep{wall: time.Second, cpu: 500 * time.Millisecond, rss: 64 << 20, failed: failedPerRep}
		for i := 0; i < 1000-failedPerRep; i++ {
			rp.lats = append(rp.lats, float64(i+1))
		}
		for i := 0; i < failedPerRep; i++ {
			rp.lats = append(rp.lats, math.Inf(1))
			o.fail("rep %d op %d: wrong answer", r, i)
		}
		o.reps = append(o.reps, rp)
	}
	return o
}

// A failed op misses every latency limit, so 2% failed ops put p99 at
// +Inf; throughput counts completed ops only, CPU per op every attempt.
func TestEndToEndWithFailedOps(t *testing.T) {
	m, err := endToEndMetrics(failingOutcome(20))
	if err != nil {
		t.Fatal(err)
	}
	if m["p50_ms"].Value != 500 || !math.IsInf(m["p99_ms"].Value, 1) {
		t.Fatalf("p50 %v, p99 %v", m["p50_ms"].Value, m["p99_ms"].Value)
	}
	if m["ops_per_s"].Value != 980 || m["cpu_ms_per_op"].Value != 0.5 || m["setup_s"].Value != 0.2 || m["rss_peak_mb"].Value != 64 {
		t.Fatalf("metrics %v", m)
	}
	// Every rep needs enough ops for its own p99.
	o := failingOutcome(0)
	o.reps[1].lats = o.reps[1].lats[:999]
	if _, err := endToEndMetrics(o); err == nil {
		t.Fatal("a 999-op rep gave a p99")
	}
}

// A run whose failed ops push a percentile to +Inf still prints its
// mismatches and its result line, with every attempt and failure
// counted and the finite metrics kept, and exits 1.
func TestRunReportsFailedOps(t *testing.T) {
	for _, c := range []struct {
		failedPerRep int
		missing      []string
	}{
		{20, []string{"p99_ms"}},
		{700, []string{"p50_ms", "p99_ms"}},
	} {
		workloads["failing"] = func(*env) (*outcome, error) { return failingOutcome(c.failedPerRep), nil }
		t.Cleanup(func() { delete(workloads, "failing") })
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "failing", "--seconds", "1", "--trace", "0", "--workdir", t.TempDir()}, &stdout, &stderr)
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%d failed per rep: last stdout line %q: %v", c.failedPerRep, lines[len(lines)-1], err)
		}
		if code != 1 || res.Correct || res.Attempted != 3000 || res.Failed != 3*c.failedPerRep {
			t.Fatalf("%d failed per rep: exit %d, result %+v", c.failedPerRep, code, res)
		}
		for _, name := range c.missing {
			if _, ok := res.Metrics[name]; ok {
				t.Errorf("%d failed per rep: %s reported as %v", c.failedPerRep, name, res.Metrics[name])
			}
		}
		if len(res.Metrics) != len(endToEnd)-len(c.missing) {
			t.Errorf("%d failed per rep: metrics %v", c.failedPerRep, res.Metrics)
		}
		if !strings.Contains(stderr.String(), "MISMATCH: rep 0 op 0: wrong answer") {
			t.Fatalf("%d failed per rep: mismatches not printed:\n%s", c.failedPerRep, stderr.String())
		}
	}
}

func TestRepCount(t *testing.T) {
	for _, c := range []struct{ rate, seconds, repOps, want int }{
		{450, 20, 1000, 9}, {800, 10, 1000, 8}, {300, 1, 500, 1}, {800, 1, 1000, 1}, {10, 1, 510, 1},
	} {
		if got := repCount(float64(c.rate), c.seconds, c.repOps); got != c.want {
			t.Errorf("repCount(%d, %d, %d) = %d, want %d", c.rate, c.seconds, c.repOps, got, c.want)
		}
	}
}

// A rep counts when at most 2% of the CPU was stolen during it; when
// fewer than two reps were that calm, the least-stolen quarter counts.
func TestKeptReps(t *testing.T) {
	reps := func(shares ...float64) []rep {
		var out []rep
		for _, sh := range shares {
			ticks := sh * 100 * float64(runtime.NumCPU())
			out = append(out, rep{wall: time.Second, steal: int64(math.Round(ticks))})
		}
		return out
	}
	for _, c := range []struct {
		shares []float64
		want   []bool
	}{
		{[]float64{0, 0.01, 0.05, 0.30}, []bool{true, true, false, false}},
		{[]float64{0.05, 0.30, 0.01, 0.10, 0.20, 0.08, 0.40, 0.15}, []bool{true, false, true, false, false, false, false, false}},
		{[]float64{0.20, 0.05, 0.10}, []bool{false, true, false}},
	} {
		if got := keptReps(reps(c.shares...)); !reflect.DeepEqual(got, c.want) {
			t.Errorf("steal shares %v: kept %v, want %v", c.shares, got, c.want)
		}
	}
}

func TestMedianAndShare(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median %v", m)
	}
	if !math.IsNaN(median(nil)) || share(1, 0) != 0 || mean(nil) != 0 {
		t.Fatal("empty inputs")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 20, End: 50},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "b", Start: 80, End: 120}, // runs past the parent
		{ID: 5, Parent: 3, Name: "c", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	if self[1] != 100-40-20 || self[3] != 30-10 || self[2] != 20 {
		t.Fatalf("self times %v", self)
	}
	sum := summarize(spans)
	if len(sum) != 4 || sum[0].Name != "a" || sum[0].Count != 2 || math.Abs(sum[0].Total-50e-6) > 1e-12 {
		t.Fatalf("summary %+v", sum)
	}
}

// BENCHMARK.json names exactly the metrics and workloads the harness
// reports, with the same units.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, harness %s/%s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if want := slices.Sorted(maps.Keys(workloads)); !reflect.DeepEqual(names, want) {
		t.Fatalf("workloads %v, harness %v", names, want)
	}
}
