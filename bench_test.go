// Benchmarks regenerating every table and figure in the paper's
// evaluation (DESIGN.md's per-experiment index). Each bench executes
// the full experiment — compile + run sweeps across the platform
// simulators — so `go test -bench=. -benchmem` reproduces the complete
// artifact; the printed tables come from `go run ./cmd/dabench
// experiments`.
//
// Ablation benches at the bottom measure the design choices DESIGN.md
// calls out: RDU operator fusion (O1 vs O0), WSE elastic allocation
// (deep vs shallow shrink-to-fit), and IPU layer-balance quality.
package dabench_test

import (
	"runtime"
	"testing"

	dabench "dabench"
	"dabench/internal/graph"
	"dabench/internal/model"
	"dabench/internal/precision"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := dabench.RunExperiment(id)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
}

// BenchmarkAllExperiments regenerates the paper's full evaluation —
// all 11 tables/figures — per iteration, from a cold compile cache, on
// a 1-worker pool (serial) and a GOMAXPROCS-wide pool (parallel). The
// serial/parallel ratio is the sweep engine's end-to-end speedup; the
// BENCH_0.json baseline pins the starting point of the perf
// trajectory. Outputs are byte-identical across the two modes (see the
// determinism tests), so this measures engine overhead and scaling,
// nothing else.
func BenchmarkAllExperiments(b *testing.B) {
	runAll := func(b *testing.B, workers int) {
		b.Helper()
		b.ReportAllocs()
		dabench.SetSweepWorkers(workers)
		defer dabench.SetSweepWorkers(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dabench.ResetExperimentCaches()
			for _, id := range dabench.ExperimentIDs() {
				res, err := dabench.RunExperiment(id)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Tables) == 0 {
					b.Fatalf("%s produced no tables", id)
				}
			}
		}
		b.StopTimer()
		s := dabench.ExperimentCacheStats()
		b.ReportMetric(float64(s.Hits), "cache-hits/op")
		b.ReportMetric(100*s.HitRate(), "cache-hit-%")
		g := dabench.ExperimentGraphCacheStats()
		b.ReportMetric(float64(g.Hits), "graph-hits/op")
		b.ReportMetric(float64(g.Misses), "graph-builds/op")
	}
	b.Run("serial", func(b *testing.B) { runAll(b, 1) })
	b.Run("parallel", func(b *testing.B) { runAll(b, runtime.GOMAXPROCS(0)) })
}

func BenchmarkTableI(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkFigure6(b *testing.B)  { benchExperiment(b, "figure6") }
func BenchmarkFigure7(b *testing.B)  { benchExperiment(b, "figure7") }
func BenchmarkTableII(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkFigure8(b *testing.B)  { benchExperiment(b, "figure8") }
func BenchmarkFigure9(b *testing.B)  { benchExperiment(b, "figure9") }
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, "figure10") }
func BenchmarkTableIII(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFigure11(b *testing.B) { benchExperiment(b, "figure11") }
func BenchmarkFigure12(b *testing.B) { benchExperiment(b, "figure12") }
func BenchmarkTableIV(b *testing.B)  { benchExperiment(b, "table4") }

// BenchmarkGraphBuild measures lowering a model to its training graph.
// The RDU's O0/O1 builders lower one decoder layer, so the 1L case is
// the work the graph cache memoizes for them, once per model shape;
// the full-depth cases show the cost that lowering avoids, which grows
// with L. "build" is the raw lowering; "cached-warm" is the memoized
// path every later compile of the same shape takes.
func BenchmarkGraphBuild(b *testing.B) {
	opts := graph.BuildOptions{Batch: 512, Seq: 1024, Precision: precision.FP16, Backward: true}
	for _, cfg := range []struct {
		name  string
		model dabench.ModelConfig
	}{
		{"gpt2-small-1L", model.GPT2Small().WithLayers(1)},
		{"gpt2-small-12L", model.GPT2Small()},
		{"gpt2-small-48L", model.GPT2Small().WithLayers(48)},
		{"llama2-7b", model.LLaMA2_7B()},
	} {
		b.Run(cfg.name+"/build", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := graph.Build(cfg.model, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(cfg.name+"/cached-warm", func(b *testing.B) {
			b.ReportAllocs()
			graph.ResetCache()
			if _, err := graph.Cached(cfg.model, opts); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := graph.Cached(cfg.model, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompile measures one workload's compile on each platform,
// cold (fresh caches every iteration — the true lowering cost) and
// warm (the memoized steady state sweeps actually run in).
func BenchmarkCompile(b *testing.B) {
	cases := []struct {
		name string
		p    dabench.Platform
		spec dabench.TrainSpec
	}{
		{"wse", dabench.NewWSE(), dabench.TrainSpec{
			Model: dabench.GPT2Small(), Batch: 512, Seq: 1024, Precision: dabench.FP16}},
		{"rdu-o1", dabench.NewRDU(), dabench.TrainSpec{
			Model: dabench.LLaMA2_7B(), Batch: 8, Seq: 4096, Precision: dabench.BF16,
			Par: dabench.Parallelism{Mode: dabench.ModeO1, TensorParallel: 2}}},
		{"ipu", dabench.NewIPU(), dabench.TrainSpec{
			Model: dabench.GPT2Small().WithLayers(4), Batch: 2048, Seq: 1024, Precision: dabench.FP16,
			Par: dabench.Parallelism{PipelineParallel: 4}}},
	}
	for _, tc := range cases {
		b.Run(tc.name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				graph.ResetCache()
				if _, err := tc.p.Compile(tc.spec); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/warm", func(b *testing.B) {
			b.ReportAllocs()
			graph.ResetCache()
			c := dabench.Cached(tc.p)
			cr, err := c.Compile(tc.spec)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.Run(cr); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cr, err := c.Compile(tc.spec)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.Run(cr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRDUFusion compares O1 (fused) against O0
// (per-operator sections): the fusion design choice behind the paper's
// O1-vs-O0 TFLOPs gap.
func BenchmarkAblationRDUFusion(b *testing.B) {
	spec := dabench.TrainSpec{
		Model: dabench.GPT2Small().WithLayers(24), Batch: 4, Seq: 1024,
		Precision: dabench.BF16,
	}
	for _, mode := range []struct {
		name string
		m    dabench.Parallelism
	}{{"O0", dabench.Parallelism{Mode: dabench.ModeO0}}, {"O1", dabench.Parallelism{Mode: dabench.ModeO1}}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			s := spec
			s.Par = mode.m
			p := dabench.NewRDU()
			var tf float64
			for i := 0; i < b.N; i++ {
				prof, err := dabench.Profile(p, s)
				if err != nil {
					b.Fatal(err)
				}
				tf = prof.Run.Achieved.TFLOPS()
			}
			b.ReportMetric(tf, "TFLOPs")
		})
	}
}

// BenchmarkAblationWSEElastic contrasts a shallow graph (no
// shrink-to-fit) against a deep one (elastic shrink active).
func BenchmarkAblationWSEElastic(b *testing.B) {
	for _, layers := range []int{6, 48} {
		name := "shallow-no-shrink"
		if layers > 12 {
			name = "deep-elastic-shrink"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			p := dabench.NewWSE()
			spec := dabench.TrainSpec{
				Model: dabench.GPT2Small().WithLayers(layers), Batch: 512, Seq: 1024,
				Precision: dabench.FP16,
			}
			var alloc float64
			for i := 0; i < b.N; i++ {
				prof, err := dabench.Profile(p, spec)
				if err != nil {
					b.Fatal(err)
				}
				alloc = prof.Allocation["PE"]
			}
			b.ReportMetric(100*alloc, "PE%")
		})
	}
}

// BenchmarkAblationIPUBalance contrasts balanced against skewed layer
// assignments at identical total depth.
func BenchmarkAblationIPUBalance(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		assign []int
	}{{"balanced", []int{2, 2, 2}}, {"skewed", []int{4, 1, 1}}} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			p := dabench.NewIPU()
			spec := dabench.TrainSpec{
				Model: dabench.GPT2Small().WithLayers(6), Batch: 2048, Seq: 1024,
				Precision: dabench.FP16,
				Par: dabench.Parallelism{
					PipelineParallel: len(cfg.assign) + 1, LayerAssignment: cfg.assign,
				},
			}
			var sps float64
			for i := 0; i < b.N; i++ {
				prof, err := dabench.Profile(p, spec)
				if err != nil {
					b.Fatal(err)
				}
				sps = prof.Run.SamplesPerSec
			}
			b.ReportMetric(sps, "samples/s")
		})
	}
}
