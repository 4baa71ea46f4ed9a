// Package experiments contains one runner per table and figure in the
// paper's evaluation (Sections V and VI). Each runner sweeps the same
// workloads the paper used, drives the platform simulators through the
// DABench core, and returns the rows as a report.Table whose shape can
// be compared directly against the published artifact. EXPERIMENTS.md
// records paper-vs-measured values for every runner.
//
// All runners share one memoized simulator per platform
// (platform.Cached) and fan their sweep points out on the sweep
// engine's worker pool, so identical compiles across experiments (e.g.
// the GPT-2 layer ladder that Table I, Figure 6, Figure 9a and Figure
// 10 all walk) run once per process. Results are assembled strictly in
// sweep-input order, so the emitted tables and trace records are
// byte-identical to a serial run — the parallel_test.go determinism
// suite enforces this.
package experiments

import (
	"context"
	"fmt"
	"time"

	"dabench/internal/core"
	"dabench/internal/gpu"
	"dabench/internal/graph"
	"dabench/internal/ipu"
	"dabench/internal/model"
	"dabench/internal/platform"
	"dabench/internal/precision"
	"dabench/internal/rdu"
	"dabench/internal/report"
	"dabench/internal/sweep"
	"dabench/internal/trace"
	"dabench/internal/workload"
	"dabench/internal/wse"
)

// Result bundles an experiment's table with its raw trace records.
type Result struct {
	ID     string
	Tables []*report.Table
	Trace  []trace.Record
	// Cache is the shared compile-cache activity attributable to this
	// run (hit/miss deltas across all platforms).
	Cache platform.CacheStats
	// GraphCache is the graph build-cache activity attributable to this
	// run (the tier below the compile cache).
	GraphCache platform.CacheStats
	// Elapsed is the runner's wall-clock time.
	Elapsed time.Duration
}

// Runner executes one experiment. The context bounds every sweep the
// runner fans out: cancelling it (a serving deadline, a dropped HTTP
// client, SIGTERM drain) stops the worker pool and surfaces ctx's
// error instead of a partial result.
type Runner func(ctx context.Context) (*Result, error)

// --- Shared memoized platforms ---------------------------------------------

// The four shared platforms are built once and never replaced:
// ResetCaches empties their memos in place, so a runner or serving
// layer can hold one across a reset.
var (
	cachedWSE = platform.Cached(wse.New())
	cachedRDU = platform.Cached(rdu.New())
	cachedIPU = platform.Cached(ipu.New())
	cachedGPU = platform.Cached(gpu.New())
	shared    = []platform.CachedPlatform{cachedWSE, cachedRDU, cachedIPU, cachedGPU}
)

// ResetCaches discards both in-memory memoization tiers the runners
// share — the platform compile caches and the graph build cache below
// them — and zeroes their counters. Benchmarks use it for cold-cache
// iterations. A compile in flight across a reset completes against
// the entry it started on; later callers compute afresh.
func ResetCaches() {
	for _, c := range shared {
		c.ResetCache()
	}
	graph.ResetCache()
}

// SetResultStore does nothing: the shared platforms keep no persistent
// tier, because reading a stored outcome back costs more than
// recomputing it.
//
// Deprecated: ROADMAP item 1 deletes the one remaining call (perfbench's
// SetResultStore(nil)), then this stub.
func SetResultStore(any) {}

// SetStageHook mounts (or, with nil, unmounts) the pipeline stage
// observer on the shared platforms — fired around every real Compile
// (never on cache hits) and every Run, with the platform name, stage
// and wall-clock duration. The server's /metrics stage histograms are
// the intended consumer.
func SetStageHook(fn platform.StageHook) {
	platform.SetStageHook(fn)
}

// CacheStats aggregates the compile-cache counters across the four
// shared platforms.
func CacheStats() platform.CacheStats {
	var s platform.CacheStats
	for _, c := range shared {
		s = s.Add(c.CacheStats())
	}
	return s
}

// GraphCacheStats reports the graph build cache's counters (the shared
// tier below every platform's compile cache).
func GraphCacheStats() platform.CacheStats { return graph.Stats() }

// instrument decorates a runner with cache-delta and wall-clock
// accounting across both memoization tiers.
func instrument(f Runner) Runner {
	return func(ctx context.Context) (*Result, error) {
		start := time.Now()
		before := CacheStats()
		beforeGraph := GraphCacheStats()
		res, err := f(ctx)
		if err != nil {
			return nil, err
		}
		res.Cache = CacheStats().Sub(before)
		res.GraphCache = GraphCacheStats().Sub(beforeGraph)
		res.Elapsed = time.Since(start)
		return res, nil
	}
}

// All maps experiment IDs (paper artifact numbers) to instrumented
// runners.
func All() map[string]Runner {
	return map[string]Runner{
		"table1":   instrument(TableI),
		"figure6":  instrument(Figure6),
		"figure7":  instrument(Figure7),
		"table2":   instrument(TableII),
		"figure8":  instrument(Figure8),
		"figure9":  instrument(Figure9),
		"figure10": instrument(Figure10),
		"table3":   instrument(TableIII),
		"figure11": instrument(Figure11),
		"figure12": instrument(Figure12),
		"table4":   instrument(TableIV),
	}
}

// IDs returns the experiment identifiers in paper order.
func IDs() []string {
	return []string{
		"table1", "figure6", "figure7", "table2", "figure8", "figure9",
		"figure10", "table3", "figure11", "figure12", "table4",
	}
}

const (
	defaultBatch = 512
	defaultSeq   = 1024
)

func gptSpec(l int) platform.TrainSpec {
	return platform.TrainSpec{
		Model: model.GPT2Small().WithLayers(l), Batch: defaultBatch, Seq: defaultSeq,
		Precision: precision.FP16,
	}
}

// TableI reproduces "PE allocation ratio across different layer
// configurations" on the WSE-2.
func TableI(ctx context.Context) (*Result, error) {
	sim := cachedWSE
	tbl := report.New("Table I — WSE-2 PE allocation ratio vs. layer count (GPT-2 HS768)",
		"Layers", "PE alloc %", "Status")
	res := &Result{ID: "table1"}
	layers := workload.PaperLayerPoints()
	outs, err := sweep.Map(ctx, layers,
		func(_ context.Context, _ int, l int) (float64, error) {
			cr, err := sim.Compile(gptSpec(l))
			if err != nil {
				return 0, err
			}
			return 100 * cr.AllocationRatio(platform.ResPE), nil
		})
	if err != nil {
		return nil, err
	}
	for i, o := range outs {
		l := layers[i]
		if o.Failed() {
			tbl.Add(fmt.Sprint(l), "-", "Fail")
			res.Trace = append(res.Trace, trace.Record{
				Experiment: "table1", Platform: "WSE-2", Config: fmt.Sprintf("L=%d", l),
				Metric: "alloc%", Failed: true, Note: o.Err.Error(),
			})
			continue
		}
		tbl.Add(fmt.Sprint(l), report.F(o.Value), "ok")
		res.Trace = append(res.Trace, trace.Record{
			Experiment: "table1", Platform: "WSE-2", Config: fmt.Sprintf("L=%d", l),
			Metric: "alloc%", Value: o.Value,
		})
	}
	res.Tables = []*report.Table{tbl}
	return res, nil
}

// Figure6 reproduces the WSE-2 PE usage breakdown: computation PEs,
// transmission PEs, and per-attention-kernel PEs vs. layer count.
func Figure6(ctx context.Context) (*Result, error) {
	sim := cachedWSE
	tbl := report.New("Figure 6 — WSE-2 PE usage breakdown (GPT-2 HS768)",
		"Layers", "Computation PEs", "Transmission PEs", "PEs per attention kernel")
	res := &Result{ID: "figure6"}
	layers := []int{1, 6, 12, 18, 24, 30, 36, 42, 48, 54, 60, 66, 72}
	type row struct{ compute, tx, attn float64 }
	outs, err := sweep.Map(ctx, layers,
		func(_ context.Context, _ int, l int) (row, error) {
			cr, err := sim.Compile(gptSpec(l))
			if err != nil {
				return row{}, err
			}
			var r row
			for _, t := range cr.Tasks {
				switch {
				case t.Kind == "transmission":
					r.tx = t.Units.PE
				case t.Kind == "kernel":
					r.compute += t.Units.PE
					if t.Name == "L0/attention" {
						r.attn = t.Units.PE
					}
				}
			}
			return r, nil
		}, sweep.Tolerating(nil))
	if err != nil {
		return nil, err
	}
	for i, o := range outs {
		l, r := layers[i], o.Value
		tbl.Add(fmt.Sprint(l), report.F(r.compute), report.F(r.tx), report.F(r.attn))
		res.Trace = append(res.Trace,
			trace.Record{Experiment: "figure6", Platform: "WSE-2", Config: fmt.Sprintf("L=%d", l), Metric: "computePEs", Value: r.compute},
			trace.Record{Experiment: "figure6", Platform: "WSE-2", Config: fmt.Sprintf("L=%d", l), Metric: "txPEs", Value: r.tx},
			trace.Record{Experiment: "figure6", Platform: "WSE-2", Config: fmt.Sprintf("L=%d", l), Metric: "attnPEs", Value: r.attn},
		)
	}
	res.Tables = []*report.Table{tbl}
	return res, nil
}

// rduModes is the mode ladder of Figures 7–9.
var rduModes = []platform.CompileMode{platform.ModeO0, platform.ModeO1, platform.ModeO3}

// modeHiddenPoints flattens the (mode × hidden-size) sweep of Figures
// 7b/8b/9c: O0/O3 walk the small GPT-2 ladder, O1 the large LLaMA-2
// one.
type modeHidden struct {
	mode platform.CompileMode
	h    int
	fam  model.Family
}

func modeHiddenPoints(modes []platform.CompileMode) []modeHidden {
	var pts []modeHidden
	for _, mode := range modes {
		hs := workload.PaperHiddenPointsSmall()
		fam := model.GPT2
		if mode == platform.ModeO1 {
			hs = workload.PaperHiddenPointsLarge()
			fam = model.LLaMA2
		}
		for _, h := range hs {
			pts = append(pts, modeHidden{mode: mode, h: h, fam: fam})
		}
	}
	return pts
}

func (p modeHidden) spec(layers, batch int) platform.TrainSpec {
	return platform.TrainSpec{
		Model: model.DecoderBlock(p.fam, p.h).WithLayers(layers), Batch: batch, Seq: defaultSeq,
		Precision: precision.BF16, Par: platform.Parallelism{Mode: p.mode},
	}
}

// modeLayer flattens the (mode × layer-count) RDU sweeps.
type modeLayer struct {
	mode platform.CompileMode
	l    int
}

func modeLayerPoints(modes []platform.CompileMode, layers []int) []modeLayer {
	pts := make([]modeLayer, 0, len(modes)*len(layers))
	for _, mode := range modes {
		for _, l := range layers {
			pts = append(pts, modeLayer{mode: mode, l: l})
		}
	}
	return pts
}

func (p modeLayer) spec() platform.TrainSpec {
	spec := gptSpec(p.l)
	spec.Batch = 4
	spec.Precision = precision.BF16
	spec.Par.Mode = p.mode
	return spec
}

// Figure7 reproduces the RDU resource-allocation ratios across layers
// (a) and hidden sizes (b) under O0/O1/O3.
func Figure7(ctx context.Context) (*Result, error) {
	sim := cachedRDU
	res := &Result{ID: "figure7"}
	type alloc struct{ pcu, pmu float64 }

	a := report.New("Figure 7a — RDU allocation vs. layers (GPT-2 HS768)",
		"Mode", "Layers", "PCU %", "PMU %")
	aPts := modeLayerPoints(rduModes, []int{4, 8, 16, 24, 32, 48})
	aOuts, err := sweep.Map(ctx, aPts,
		func(_ context.Context, _ int, pt modeLayer) (alloc, error) {
			cr, err := sim.Compile(pt.spec())
			if err != nil {
				return alloc{}, err
			}
			return alloc{
				pcu: 100 * cr.AllocationRatio(platform.ResPCU),
				pmu: 100 * cr.AllocationRatio(platform.ResPMU),
			}, nil
		}, sweep.Tolerating(nil))
	if err != nil {
		return nil, err
	}
	for i, o := range aOuts {
		pt, v := aPts[i], o.Value
		a.Add(pt.mode.String(), fmt.Sprint(pt.l), report.F(v.pcu), report.F(v.pmu))
		res.Trace = append(res.Trace,
			trace.Record{Experiment: "figure7", Platform: "RDU", Config: fmt.Sprintf("%s/L=%d", pt.mode, pt.l), Metric: "pcu%", Value: v.pcu},
			trace.Record{Experiment: "figure7", Platform: "RDU", Config: fmt.Sprintf("%s/L=%d", pt.mode, pt.l), Metric: "pmu%", Value: v.pmu},
		)
	}

	b := report.New("Figure 7b — RDU allocation vs. hidden size",
		"Mode", "Hidden", "PCU %", "PMU %")
	bPts := modeHiddenPoints(rduModes)
	bOuts, err := sweep.Map(ctx, bPts,
		func(_ context.Context, _ int, pt modeHidden) (alloc, error) {
			cr, err := sim.Compile(pt.spec(8, 4))
			if err != nil {
				return alloc{}, err
			}
			return alloc{
				pcu: 100 * cr.AllocationRatio(platform.ResPCU),
				pmu: 100 * cr.AllocationRatio(platform.ResPMU),
			}, nil
		}, sweep.Tolerating(nil))
	if err != nil {
		return nil, err
	}
	for i, o := range bOuts {
		pt, v := bPts[i], o.Value
		b.Add(pt.mode.String(), fmt.Sprint(pt.h), report.F(v.pcu), report.F(v.pmu))
		res.Trace = append(res.Trace,
			trace.Record{Experiment: "figure7", Platform: "RDU", Config: fmt.Sprintf("%s/H=%d", pt.mode, pt.h), Metric: "pcu%", Value: v.pcu},
		)
	}
	res.Tables = []*report.Table{a, b}
	return res, nil
}

// TableII reproduces the O3 layer-partitioning utilizations (a) and
// the O1 LM-head shard info (b).
func TableII(ctx context.Context) (*Result, error) {
	sim := cachedRDU
	res := &Result{ID: "table2"}

	a := report.New("Table IIa — O3 forward/backward utilization and partition ratio",
		"Hidden", "Fwd util %", "Fwd sections/decoder", "Bwd util %", "Bwd sections/decoder")
	type o3row struct{ fu, bu, nFwd, nBwd float64 }
	small := workload.PaperHiddenPointsSmall()
	aOuts, err := sweep.Map(ctx, small,
		func(_ context.Context, _ int, h int) (o3row, error) {
			spec := platform.TrainSpec{
				Model: model.DecoderBlock(model.GPT2, h).WithLayers(12), Batch: 4, Seq: defaultSeq,
				Precision: precision.BF16, Par: platform.Parallelism{Mode: platform.ModeO3},
			}
			cr, err := sim.Compile(spec)
			if err != nil {
				return o3row{}, err
			}
			var r o3row
			var fwdPCU, bwdPCU float64
			for _, t := range cr.Tasks {
				if t.Kind != "section" {
					continue
				}
				switch {
				case hasPrefix(t.Name, "decoder.fwd"):
					fwdPCU += t.Units.PCU
					r.nFwd++
				case hasPrefix(t.Name, "decoder.bwd"):
					bwdPCU += t.Units.PCU
					r.nBwd++
				}
			}
			r.fu = 100 * fwdPCU / r.nFwd / rdu.PCUs
			r.bu = 100 * bwdPCU / r.nBwd / rdu.PCUs
			return r, nil
		}, sweep.Tolerating(nil))
	if err != nil {
		return nil, err
	}
	for i, o := range aOuts {
		h, r := small[i], o.Value
		a.Add(fmt.Sprint(h), report.F(r.fu), report.F(r.nFwd/12), report.F(r.bu), report.F(r.nBwd/12))
		res.Trace = append(res.Trace,
			trace.Record{Experiment: "table2", Platform: "RDU", Config: fmt.Sprintf("O3/H=%d", h), Metric: "fwdUtil%", Value: r.fu},
			trace.Record{Experiment: "table2", Platform: "RDU", Config: fmt.Sprintf("O3/H=%d", h), Metric: "bwdUtil%", Value: r.bu},
		)
	}

	b := report.New("Table IIb — O1 LM-head shard sections (LLaMA-2 block)",
		"Hidden", "Shard sections", "PCU/section", "PMU/section")
	type o1row struct{ n, pcu, pmu float64 }
	large := workload.PaperHiddenPointsLarge()
	bOuts, err := sweep.Map(ctx, large,
		func(_ context.Context, _ int, h int) (o1row, error) {
			spec := platform.TrainSpec{
				Model: model.DecoderBlock(model.LLaMA2, h).WithLayers(8), Batch: 1, Seq: defaultSeq,
				Precision: precision.BF16, Par: platform.Parallelism{Mode: platform.ModeO1},
			}
			cr, err := sim.Compile(spec)
			if err != nil {
				return o1row{}, err
			}
			var r o1row
			for _, t := range cr.Tasks {
				if t.Kind == "section" && hasPrefix(t.Name, "lm-head.shard") {
					r.n++
					r.pcu = t.Units.PCU
					r.pmu = t.Units.PMU
				}
			}
			return r, nil
		}, sweep.Tolerating(nil))
	if err != nil {
		return nil, err
	}
	for i, o := range bOuts {
		h, r := large[i], o.Value
		b.Add(fmt.Sprint(h), report.F(r.n), report.F(r.pcu), report.F(r.pmu))
		res.Trace = append(res.Trace,
			trace.Record{Experiment: "table2", Platform: "RDU", Config: fmt.Sprintf("O1/H=%d", h), Metric: "shardSections", Value: r.n},
			trace.Record{Experiment: "table2", Platform: "RDU", Config: fmt.Sprintf("O1/H=%d", h), Metric: "pcu/section", Value: r.pcu},
		)
	}
	res.Tables = []*report.Table{a, b}
	return res, nil
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

// rduLI returns the RDU's native operator-level LI through the cached
// wrapper (which forwards platform.Imbalancer).
func rduLI(sim platform.Platform, cr *platform.CompileReport) (float64, error) {
	im, ok := sim.(platform.Imbalancer)
	if !ok {
		return 0, fmt.Errorf("experiments: %s lacks native load imbalance", sim.Name())
	}
	return im.LoadImbalance(cr)
}

// Figure8 reproduces load imbalance vs. layers (a) and hidden size (b)
// for the WSE (kernel level) and the RDU O1/O3 (operator level).
func Figure8(ctx context.Context) (*Result, error) {
	res := &Result{ID: "figure8"}
	w := cachedWSE
	r := cachedRDU

	a := report.New("Figure 8a — LI vs. layer count", "Platform", "Layers", "LI")
	layers := []int{4, 12, 24, 36, 48, 60}
	type liRow struct{ wse, o1, o3 float64 }
	aOuts, err := sweep.Map(ctx, layers,
		func(_ context.Context, _ int, l int) (liRow, error) {
			var row liRow
			wp, err := core.Profile(w, gptSpec(l))
			if err != nil {
				return row, err
			}
			row.wse = wp.LI
			for _, mode := range []platform.CompileMode{platform.ModeO1, platform.ModeO3} {
				spec := gptSpec(l)
				spec.Batch = 4
				spec.Precision = precision.BF16
				spec.Par.Mode = mode
				cr, err := r.Compile(spec)
				if err != nil {
					return row, err
				}
				li, err := rduLI(r, cr)
				if err != nil {
					return row, err
				}
				if mode == platform.ModeO1 {
					row.o1 = li
				} else {
					row.o3 = li
				}
			}
			return row, nil
		}, sweep.Tolerating(nil))
	if err != nil {
		return nil, err
	}
	for i, o := range aOuts {
		l, row := layers[i], o.Value
		a.Add("WSE", fmt.Sprint(l), report.F(row.wse))
		res.Trace = append(res.Trace, trace.Record{Experiment: "figure8", Platform: "WSE-2", Config: fmt.Sprintf("L=%d", l), Metric: "LI", Value: row.wse})
		a.Add("O1", fmt.Sprint(l), report.F(row.o1))
		res.Trace = append(res.Trace, trace.Record{Experiment: "figure8", Platform: "RDU", Config: fmt.Sprintf("O1/L=%d", l), Metric: "LI", Value: row.o1})
		a.Add("O3", fmt.Sprint(l), report.F(row.o3))
		res.Trace = append(res.Trace, trace.Record{Experiment: "figure8", Platform: "RDU", Config: fmt.Sprintf("O3/L=%d", l), Metric: "LI", Value: row.o3})
	}

	b := report.New("Figure 8b — RDU LI vs. hidden size", "Mode", "Hidden", "LI")
	bPts := modeHiddenPoints([]platform.CompileMode{platform.ModeO1, platform.ModeO3})
	bOuts, err := sweep.Map(ctx, bPts,
		func(_ context.Context, _ int, pt modeHidden) (float64, error) {
			cr, err := r.Compile(pt.spec(8, 4))
			if err != nil {
				return 0, err
			}
			return rduLI(r, cr)
		}, sweep.Tolerating(nil))
	if err != nil {
		return nil, err
	}
	for i, o := range bOuts {
		pt := bPts[i]
		b.Add(pt.mode.String(), fmt.Sprint(pt.h), report.F(o.Value))
		res.Trace = append(res.Trace, trace.Record{Experiment: "figure8", Platform: "RDU", Config: fmt.Sprintf("%s/H=%d", pt.mode, pt.h), Metric: "LI", Value: o.Value})
	}
	res.Tables = []*report.Table{a, b}
	return res, nil
}

// Figure9 reproduces the memory/compute interaction per chip: the
// WSE-2 percentage breakdown and TFLOPs (a), RDU TFLOPs vs. layers (b)
// and hidden size (c), IPU memory and TFLOPs vs. layers (d).
func Figure9(ctx context.Context) (*Result, error) {
	res := &Result{ID: "figure9"}
	w, r, i := cachedWSE, cachedRDU, cachedIPU

	a := report.New("Figure 9a — WSE-2 memory breakdown and TFLOPs (GPT-2 HS768)",
		"Layers", "Config mem %", "Training mem %", "Total mem %", "TFLOPs")
	aLayers := []int{6, 12, 18, 24, 30, 36, 42, 48, 54, 60}
	type memRow struct{ cfg, train, tflops float64 }
	aOuts, err := sweep.Map(ctx, aLayers,
		func(_ context.Context, _ int, l int) (memRow, error) {
			cr, err := w.Compile(gptSpec(l))
			if err != nil {
				return memRow{}, err
			}
			rr, err := w.Run(cr)
			if err != nil {
				return memRow{}, err
			}
			cap := float64(cr.Memory.Capacity)
			return memRow{
				cfg:    100 * float64(cr.Memory.Config) / cap,
				train:  100 * float64(cr.Memory.Weights+cr.Memory.Activations) / cap,
				tflops: rr.Achieved.TFLOPS(),
			}, nil
		}, sweep.Tolerating(nil))
	if err != nil {
		return nil, err
	}
	for idx, o := range aOuts {
		l, v := aLayers[idx], o.Value
		a.Add(fmt.Sprint(l), report.F(v.cfg), report.F(v.train), report.F(v.cfg+v.train), report.F(v.tflops))
		res.Trace = append(res.Trace,
			trace.Record{Experiment: "figure9", Platform: "WSE-2", Config: fmt.Sprintf("L=%d", l), Metric: "configMem%", Value: v.cfg},
			trace.Record{Experiment: "figure9", Platform: "WSE-2", Config: fmt.Sprintf("L=%d", l), Metric: "TFLOPs", Value: v.tflops},
		)
	}

	b := report.New("Figure 9b — RDU TFLOPs vs. layers (GPT-2 HS768)", "Mode", "Layers", "TFLOPs")
	bPts := modeLayerPoints(rduModes, []int{4, 8, 16, 24, 32, 40})
	bOuts, err := sweep.Map(ctx, bPts,
		func(_ context.Context, _ int, pt modeLayer) (float64, error) {
			cr, err := r.Compile(pt.spec())
			if err != nil {
				return 0, err
			}
			rr, err := r.Run(cr)
			if err != nil {
				return 0, err
			}
			return rr.Achieved.TFLOPS(), nil
		}, sweep.Tolerating(nil))
	if err != nil {
		return nil, err
	}
	for idx, o := range bOuts {
		pt := bPts[idx]
		b.Add(pt.mode.String(), fmt.Sprint(pt.l), report.F(o.Value))
		res.Trace = append(res.Trace, trace.Record{Experiment: "figure9", Platform: "RDU", Config: fmt.Sprintf("%s/L=%d", pt.mode, pt.l), Metric: "TFLOPs", Value: o.Value})
	}

	c := report.New("Figure 9c — RDU TFLOPs vs. hidden size", "Mode", "Hidden", "TFLOPs")
	cPts := modeHiddenPoints(rduModes)
	cOuts, err := sweep.Map(ctx, cPts,
		func(_ context.Context, _ int, pt modeHidden) (float64, error) {
			cr, err := r.Compile(pt.spec(8, 4))
			if err != nil {
				return 0, err
			}
			rr, err := r.Run(cr)
			if err != nil {
				return 0, err
			}
			return rr.Achieved.TFLOPS(), nil
		}, sweep.Tolerating(nil))
	if err != nil {
		return nil, err
	}
	for idx, o := range cOuts {
		pt := cPts[idx]
		c.Add(pt.mode.String(), fmt.Sprint(pt.h), report.F(o.Value))
		res.Trace = append(res.Trace, trace.Record{Experiment: "figure9", Platform: "RDU", Config: fmt.Sprintf("%s/H=%d", pt.mode, pt.h), Metric: "TFLOPs", Value: o.Value})
	}

	d := report.New("Figure 9d — IPU memory and TFLOPs vs. layers (GPT-2 HS768)",
		"Layers", "Memory MB", "TFLOPs", "Status")
	dLayers := []int{1, 2, 4, 6, 8, 10}
	type ipuRow struct{ memMB, tflops float64 }
	dOuts, err := sweep.Map(ctx, dLayers,
		func(_ context.Context, _ int, l int) (ipuRow, error) {
			spec := platform.TrainSpec{
				Model: model.GPT2Small().WithLayers(l), Batch: 2048, Seq: defaultSeq,
				Precision: precision.FP16,
			}
			cr, err := i.Compile(spec)
			if err != nil {
				return ipuRow{}, err
			}
			rr, err := i.Run(cr)
			if err != nil {
				return ipuRow{}, err
			}
			return ipuRow{memMB: cr.Memory.Used().MB(), tflops: rr.Achieved.TFLOPS()}, nil
		})
	if err != nil {
		return nil, err
	}
	for idx, o := range dOuts {
		l := dLayers[idx]
		if o.Failed() {
			d.Add(fmt.Sprint(l), "-", "-", "Fail")
			res.Trace = append(res.Trace, trace.Record{Experiment: "figure9", Platform: "IPU", Config: fmt.Sprintf("L=%d", l), Metric: "TFLOPs", Failed: true})
			continue
		}
		v := o.Value
		d.Add(fmt.Sprint(l), report.F(v.memMB), report.F(v.tflops), "ok")
		res.Trace = append(res.Trace,
			trace.Record{Experiment: "figure9", Platform: "IPU", Config: fmt.Sprintf("L=%d", l), Metric: "memMB", Value: v.memMB},
			trace.Record{Experiment: "figure9", Platform: "IPU", Config: fmt.Sprintf("L=%d", l), Metric: "TFLOPs", Value: v.tflops},
		)
	}
	res.Tables = []*report.Table{a, b, c, d}
	return res, nil
}

// Figure10 reproduces the per-chip rooflines at the global memory
// tier.
func Figure10(ctx context.Context) (*Result, error) {
	res := &Result{ID: "figure10"}
	tbl := report.New("Figure 10 — global-memory rooflines",
		"Platform", "Workload", "AI FLOPs/B", "Achieved TFLOPs", "Bound TFLOPs", "Regime")

	type rfPt struct {
		p     platform.Platform
		label string
		spec  platform.TrainSpec
	}
	var pts []rfPt
	w := cachedWSE
	for _, l := range []int{1, 6, 12, 18, 24, 30, 36, 42} {
		pts = append(pts, rfPt{w, fmt.Sprintf("%dL", l), gptSpec(l)})
	}
	r := cachedRDU
	for _, h := range workload.PaperHiddenPointsLarge() {
		pts = append(pts, rfPt{r, fmt.Sprintf("H%d", h), platform.TrainSpec{
			Model: model.DecoderBlock(model.LLaMA2, h).WithLayers(8), Batch: 4, Seq: defaultSeq,
			Precision: precision.BF16, Par: platform.Parallelism{Mode: platform.ModeO1},
		}})
	}
	i := cachedIPU
	for _, pt := range []struct {
		label string
		l     int
	}{{"Low", 1}, {"Mid", 4}, {"High", 8}} {
		pts = append(pts, rfPt{i, pt.label, platform.TrainSpec{
			Model: model.GPT2Small().WithLayers(pt.l), Batch: 2048, Seq: defaultSeq,
			Precision: precision.FP16,
		}})
	}

	outs, err := sweep.Map(ctx, pts,
		func(_ context.Context, _ int, pt rfPt) (*core.Tier1Result, error) {
			return core.Profile(pt.p, pt.spec)
		}, sweep.Tolerating(nil))
	if err != nil {
		return nil, err
	}
	for idx, o := range outs {
		pt, prof := pts[idx], o.Value
		tbl.Add(pt.p.Name(), pt.label, report.F(prof.Run.AI), report.F(prof.Run.Achieved.TFLOPS()),
			report.F(prof.RooflineBound.TFLOPS()), prof.Regime.String())
		res.Trace = append(res.Trace,
			trace.Record{Experiment: "figure10", Platform: pt.p.Name(), Config: pt.label, Metric: "AI", Value: prof.Run.AI},
			trace.Record{Experiment: "figure10", Platform: pt.p.Name(), Config: pt.label, Metric: "regime", Value: float64(prof.Regime), Note: prof.Regime.String()},
		)
	}
	res.Tables = []*report.Table{tbl}
	return res, nil
}

// TableIII reproduces the multi-hardware scalability comparison.
func TableIII(ctx context.Context) (*Result, error) {
	res := &Result{ID: "table3"}
	tbl := report.New("Table III — multi-hardware scalability",
		"Device", "Configuration", "Model", "Throughput", "Unit")

	type t3Pt struct {
		p          platform.Platform
		dev        string
		cfg        string
		mdl        string
		unit       string
		useSamples bool
		spec       platform.TrainSpec
	}
	var pts []t3Pt

	// WSE-2: intra-chip DP plus weight streaming.
	w := cachedWSE
	wsePts := []struct {
		cfg string
		m   model.Config
		par platform.Parallelism
	}{
		{"DP0", model.GPT2Small(), platform.Parallelism{}},
		{"DP2", model.GPT2Small(), platform.Parallelism{DataParallel: 2}},
		{"DP4", model.GPTMini(), platform.Parallelism{DataParallel: 4}},
		{"DP8", model.GPTTiny(), platform.Parallelism{DataParallel: 8}},
		{"Streaming", model.GPT2Small(), platform.Parallelism{WeightStreaming: true}},
	}
	for _, p := range wsePts {
		pts = append(pts, t3Pt{
			p: w, dev: "WSE-2", cfg: p.cfg, mdl: p.m.Name, unit: "tokens/s",
			spec: platform.TrainSpec{Model: p.m, Batch: defaultBatch, Seq: defaultSeq, Precision: precision.FP16, Par: p.par},
		})
	}

	// IPU: pipeline parallelism over layer ladders.
	i := cachedIPU
	ipuPts := []struct {
		pp, layers int
	}{{4, 6}, {4, 12}, {8, 18}, {8, 24}, {16, 30}, {16, 36}, {16, 42}, {16, 48}}
	for _, p := range ipuPts {
		pts = append(pts, t3Pt{
			p: i, dev: "IPU", cfg: fmt.Sprintf("PP%d", p.pp), mdl: fmt.Sprintf("%dL", p.layers),
			unit: "samples/s", useSamples: true,
			spec: platform.TrainSpec{
				Model: model.GPT2Small().WithLayers(p.layers), Batch: 2048, Seq: defaultSeq,
				Precision: precision.FP16, Par: platform.Parallelism{PipelineParallel: p.pp},
			},
		})
	}

	// RDU: tensor parallelism on LLaMA-2 7B.
	r := cachedRDU
	for _, tp := range []int{2, 4, 8} {
		pts = append(pts, t3Pt{
			p: r, dev: "RDU", cfg: fmt.Sprintf("TP%d", tp), mdl: "llama2-7b", unit: "tokens/s",
			spec: platform.TrainSpec{
				Model: model.LLaMA2_7B(), Batch: 8, Seq: 4096, Precision: precision.BF16,
				Par: platform.Parallelism{Mode: platform.ModeO1, TensorParallel: tp},
			},
		})
	}

	// GPU reference: Megatron decompositions of GPT-2 XL.
	g := cachedGPU
	gpuPts := []struct{ tp, pp, dp int }{
		{8, 1, 1}, {4, 2, 1}, {2, 4, 1}, {1, 8, 1}, {8, 8, 16}, {4, 4, 64},
	}
	for _, p := range gpuPts {
		pts = append(pts, t3Pt{
			p: g, dev: "GPU", cfg: fmt.Sprintf("T%dP%dD%d", p.tp, p.pp, p.dp), mdl: "gpt2-xl",
			unit: "samples/s", useSamples: true,
			spec: platform.TrainSpec{
				Model: model.GPT2XL(), Batch: 64, Seq: defaultSeq, Precision: precision.BF16,
				Par: platform.Parallelism{TensorParallel: p.tp, PipelineParallel: p.pp, DataParallel: p.dp},
			},
		})
	}

	outs, err := sweep.Map(ctx, pts,
		func(_ context.Context, _ int, pt t3Pt) (float64, error) {
			cr, err := pt.p.Compile(pt.spec)
			if err != nil {
				return 0, err
			}
			rr, err := pt.p.Run(cr)
			if err != nil {
				return 0, err
			}
			if pt.useSamples {
				return rr.SamplesPerSec, nil
			}
			return rr.TokensPerSec, nil
		}, sweep.Tolerating(nil))
	if err != nil {
		return nil, err
	}
	for idx, o := range outs {
		pt := pts[idx]
		tbl.Add(pt.dev, pt.cfg, pt.mdl, report.F(o.Value), pt.unit)
		res.Trace = append(res.Trace, trace.Record{
			Experiment: "table3", Platform: pt.dev, Model: pt.mdl, Config: pt.cfg,
			Metric: pt.unit, Value: o.Value,
		})
	}

	res.Tables = []*report.Table{tbl}
	return res, nil
}

// Figure11 reproduces the scalability details: WSE replica throughput
// (a), RDU allocation vs TP (b), IPU throughput vs layer allocation (c).
func Figure11(ctx context.Context) (*Result, error) {
	res := &Result{ID: "figure11"}

	a := report.New("Figure 11a — WSE throughput vs. replicas (2/small, 4/mini, 8/tiny)",
		"Replicas", "Throughput tokens/s", "Computation-only tokens/s")
	w := cachedWSE
	pairs := []struct {
		repl int
		m    model.Config
	}{{2, model.GPT2Small()}, {4, model.GPTMini()}, {8, model.GPTTiny()}}
	aOuts, err := sweep.Map(ctx, pairs,
		func(_ context.Context, _ int, pr struct {
			repl int
			m    model.Config
		}) (float64, error) {
			spec := platform.TrainSpec{
				Model: pr.m, Batch: defaultBatch, Seq: defaultSeq, Precision: precision.FP16,
				Par: platform.Parallelism{DataParallel: pr.repl},
			}
			cr, err := w.Compile(spec)
			if err != nil {
				return 0, err
			}
			rr, err := w.Run(cr)
			if err != nil {
				return 0, err
			}
			return rr.TokensPerSec, nil
		}, sweep.Tolerating(nil))
	if err != nil {
		return nil, err
	}
	for idx, o := range aOuts {
		repl, tps := pairs[idx].repl, o.Value
		// Computation-only = the throughput with the replica
		// communication penalty removed (the gap of Figure 11a).
		penalty := 1.0
		if repl > 2 {
			penalty = 1 / (1 + 0.05*float64(repl-2))
		}
		a.Add(fmt.Sprint(repl), report.F(tps), report.F(tps/penalty))
		res.Trace = append(res.Trace, trace.Record{Experiment: "figure11", Platform: "WSE-2", Config: fmt.Sprintf("DP%d", repl), Metric: "tokens/s", Value: tps})
	}

	b := report.New("Figure 11b — RDU utilization vs. TP count (LLaMA-2 7B)",
		"TP", "PCU %", "PMU %")
	r := cachedRDU
	tps := []int{2, 4, 8}
	type alloc struct{ pcu, pmu float64 }
	bOuts, err := sweep.Map(ctx, tps,
		func(_ context.Context, _ int, tp int) (alloc, error) {
			spec := platform.TrainSpec{
				Model: model.LLaMA2_7B(), Batch: 8, Seq: 4096, Precision: precision.BF16,
				Par: platform.Parallelism{Mode: platform.ModeO1, TensorParallel: tp},
			}
			cr, err := r.Compile(spec)
			if err != nil {
				return alloc{}, err
			}
			return alloc{
				pcu: 100 * cr.AllocationRatio(platform.ResPCU),
				pmu: 100 * cr.AllocationRatio(platform.ResPMU),
			}, nil
		}, sweep.Tolerating(nil))
	if err != nil {
		return nil, err
	}
	for idx, o := range bOuts {
		tp, v := tps[idx], o.Value
		b.Add(fmt.Sprint(tp), report.F(v.pcu), report.F(v.pmu))
		res.Trace = append(res.Trace,
			trace.Record{Experiment: "figure11", Platform: "RDU", Config: fmt.Sprintf("TP%d", tp), Metric: "pcu%", Value: v.pcu},
			trace.Record{Experiment: "figure11", Platform: "RDU", Config: fmt.Sprintf("TP%d", tp), Metric: "pmu%", Value: v.pmu},
		)
	}

	c := report.New("Figure 11c — IPU throughput vs. layer allocation",
		"Assignment", "Max layers/IPU", "Samples/s")
	i := cachedIPU
	assignments := [][]int{
		{2}, {4}, {6}, {8},
		{2, 2, 1, 1, 1, 1}, {1, 1, 1, 1, 2, 2},
		{4, 4, 4, 2, 2, 2}, {6, 5, 5, 3, 3, 3}, {6, 3, 3, 2, 2, 2},
	}
	cOuts, err := sweep.Map(ctx, assignments,
		func(_ context.Context, _ int, assign []int) (float64, error) {
			total := 0
			for _, v := range assign {
				total += v
			}
			spec := platform.TrainSpec{
				Model: model.GPT2Small().WithLayers(total), Batch: 2048, Seq: defaultSeq,
				Precision: precision.FP16,
				Par: platform.Parallelism{
					PipelineParallel: len(assign) + 1, LayerAssignment: assign,
				},
			}
			if len(assign) == 1 {
				spec.Par = platform.Parallelism{} // single-IPU points
			}
			cr, err := i.Compile(spec)
			if err != nil {
				return 0, err
			}
			rr, err := i.Run(cr)
			if err != nil {
				return 0, err
			}
			return rr.SamplesPerSec, nil
		}, sweep.Tolerating(nil))
	if err != nil {
		return nil, err
	}
	for idx, o := range cOuts {
		assign := assignments[idx]
		maxL := 0
		for _, v := range assign {
			if v > maxL {
				maxL = v
			}
		}
		c.Add(fmt.Sprint(assign), fmt.Sprint(maxL), report.F(o.Value))
		res.Trace = append(res.Trace, trace.Record{Experiment: "figure11", Platform: "IPU", Config: fmt.Sprint(assign), Metric: "samples/s", Value: o.Value})
	}

	res.Tables = []*report.Table{a, b, c}
	return res, nil
}

// Figure12 reproduces the batch-size scaling per platform via the
// Tier-2 deployment optimizer. The platform cases run serially on
// purpose: each Deployment already fans its batch/precision points out
// on the full worker pool, and nesting pools would multiply
// concurrency past the configured -parallel bound.
func Figure12(ctx context.Context) (*Result, error) {
	res := &Result{ID: "figure12"}
	tbl := report.New("Figure 12 — throughput vs. batch size", "Platform", "Batch", "Tokens/s")

	type f12Case struct {
		p       platform.Platform
		spec    platform.TrainSpec
		batches []int
	}
	cases := []f12Case{
		{cachedWSE, platform.TrainSpec{Model: model.GPT2Small(), Seq: defaultSeq, Batch: 1, Precision: precision.FP16},
			[]int{25, 50, 100, 200, 400, 800, 1000}},
		{cachedRDU, platform.TrainSpec{Model: model.LLaMA2_7B(), Seq: 4096, Batch: 1, Precision: precision.BF16,
			Par: platform.Parallelism{Mode: platform.ModeO1, TensorParallel: 2}},
			[]int{4, 6, 8, 10, 12, 14, 16}},
		{cachedIPU, platform.TrainSpec{Model: model.GPT2Small().WithLayers(4), Seq: defaultSeq, Batch: 1, Precision: precision.Mixed},
			[]int{50, 75, 100, 125, 150, 175, 200, 225}},
	}
	for _, c := range cases {
		rep, err := core.Deployment(ctx, c.p, c.spec, c.batches, []precision.Format{c.spec.Precision})
		if err != nil {
			return nil, err
		}
		for _, pt := range rep.BatchCurve {
			tbl.Add(c.p.Name(), pt.Label, report.F(pt.TokensPerSec))
			res.Trace = append(res.Trace, trace.Record{Experiment: "figure12", Platform: c.p.Name(), Config: pt.Label, Metric: "tokens/s", Value: pt.TokensPerSec})
		}
	}
	res.Tables = []*report.Table{tbl}
	return res, nil
}

// TableIV reproduces the mixed-precision throughput comparison.
func TableIV(ctx context.Context) (*Result, error) {
	res := &Result{ID: "table4"}
	tbl := report.New("Table IV — precision impact", "Platform", "Format", "Tokens/s", "Gain vs baseline")

	type t4Case struct {
		p       platform.Platform
		spec    platform.TrainSpec
		formats []precision.Format
	}
	cases := []t4Case{
		{cachedIPU, platform.TrainSpec{Model: model.GPT2Small().WithLayers(2), Batch: 2048, Seq: defaultSeq, Precision: precision.FP32},
			[]precision.Format{precision.FP32, precision.Mixed}},
		{cachedWSE, platform.TrainSpec{Model: model.GPT2Small(), Batch: defaultBatch, Seq: defaultSeq, Precision: precision.FP16},
			[]precision.Format{precision.FP16, precision.CB16}},
		{cachedRDU, platform.TrainSpec{Model: model.LLaMA2_7B(), Batch: 8, Seq: 4096, Precision: precision.BF16,
			Par: platform.Parallelism{Mode: platform.ModeO1, TensorParallel: 2}},
			[]precision.Format{precision.BF16, precision.Mixed}},
	}

	type t4Pt struct {
		caseIdx int
		p       platform.Platform
		f       precision.Format
		spec    platform.TrainSpec
	}
	var pts []t4Pt
	for ci, c := range cases {
		for _, f := range c.formats {
			spec := c.spec
			spec.Precision = f
			pts = append(pts, t4Pt{caseIdx: ci, p: c.p, f: f, spec: spec})
		}
	}
	outs, err := sweep.Map(ctx, pts,
		func(_ context.Context, _ int, pt t4Pt) (float64, error) {
			cr, err := pt.p.Compile(pt.spec)
			if err != nil {
				return 0, err
			}
			rr, err := pt.p.Run(cr)
			if err != nil {
				return 0, err
			}
			return rr.TokensPerSec, nil
		}, sweep.Tolerating(nil))
	if err != nil {
		return nil, err
	}
	base, lastCase := 0.0, -1
	for idx, o := range outs {
		pt := pts[idx]
		gain := "-"
		if pt.caseIdx != lastCase {
			base = o.Value
			lastCase = pt.caseIdx
		} else if base > 0 {
			gain = fmt.Sprintf("+%.1f%%", 100*(o.Value/base-1))
		}
		tbl.Add(pt.p.Name(), pt.f.String(), report.F(o.Value), gain)
		res.Trace = append(res.Trace, trace.Record{Experiment: "table4", Platform: pt.p.Name(), Config: pt.f.String(), Metric: "tokens/s", Value: o.Value})
	}
	res.Tables = []*report.Table{tbl}
	return res, nil
}
