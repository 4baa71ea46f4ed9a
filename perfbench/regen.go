package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"sync/atomic"
	"time"

	dabench "dabench"
	"dabench/internal/experiments"
	"dabench/internal/platform"
)

// regenOp is one regen-cold op: a paper artifact or a library
// scenario, regenerated and rendered as text.
type regenOp struct {
	id       string
	scenario *dabench.Scenario // nil for a paper artifact
}

func (o regenOp) layer() string {
	if o.scenario != nil {
		return "scenario"
	}
	return "experiments"
}

func regenOps() []regenOp {
	var ops []regenOp
	for _, id := range dabench.ExperimentIDs() {
		ops = append(ops, regenOp{id: id})
	}
	for _, sc := range dabench.ScenarioLibrary() {
		ops = append(ops, regenOp{id: sc.Name, scenario: sc})
	}
	return ops
}

// exec regenerates and renders one op, recording the run and render
// spans under op when traced. runSpan receives the run span's ID while
// the run is in flight, so simulator spans can name it as parent.
func (o regenOp) exec(ctx context.Context, tr *tracer, op int64, runSpan *atomic.Int64) ([]byte, error) {
	var buf bytes.Buffer
	rid := tr.id()
	runSpan.Store(rid)
	start := time.Now()
	var render func() error
	if o.scenario != nil {
		out, err := dabench.RunScenario(ctx, o.scenario)
		if err != nil {
			return nil, err
		}
		render = func() error { return out.Render(&buf, false) }
	} else {
		res, err := dabench.RunExperiment(o.id)
		if err != nil {
			return nil, err
		}
		render = func() error { return res.Render(&buf, false) }
	}
	mid := time.Now()
	runSpan.Store(0)
	tr.record(rid, op, op, o.layer()+".run", start, mid)
	err := render()
	tr.add(op, op, o.layer()+".render", mid, time.Now())
	return buf.Bytes(), err
}

// regenCold regenerates every paper artifact and library scenario from
// cold caches, pass after pass, on the default sweep pool. Its inputs
// are the paper's, so the seed only picks the traced run's bare-compile
// sample. Correctness: each render must equal a reference pass made at
// the start of the run on one sweep worker, and the scenario renders
// must equal the golden files the scenario tests pin.
func regenCold(e *env) (*outcome, error) {
	cfg := e.p.RegenCold
	o := &outcome{}
	ops := regenOps()

	clock := time.Now()
	if err := regenSetup(e, o, cfg.SetupRepeats); err != nil {
		return nil, err
	}
	e.phase("set-up", &clock)

	ctx := context.Background()
	var noSpan atomic.Int64
	dabench.SetSweepWorkers(1)
	dabench.ResetExperimentCaches()
	ref := make([][]byte, len(ops))
	digest := sha256.New()
	for i, op := range ops {
		out, err := op.exec(ctx, nil, 0, &noSpan)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", op.id, err)
		}
		ref[i] = out
		digest.Write(out)
		if op.scenario != nil {
			golden, err := os.ReadFile(filepath.Join("internal", "scenario", "testdata", op.id+".golden"))
			if err != nil {
				return nil, fmt.Errorf("scenario golden: %w", err)
			}
			if !bytes.Equal(out, golden) {
				o.fail("regen-cold: scenario %s render differs from its golden file", op.id)
			}
		}
	}
	dabench.SetSweepWorkers(0)
	fmt.Fprintf(e.log, "regen-cold: reference renders (1 sweep worker) sha256 %x\n", digest.Sum(nil))
	e.phase("reference", &clock)

	// Simulator spans: the stage hook fires only on real compiles and
	// runs, on the sweep pool's goroutines; the op in flight is whichever
	// op the loop below is executing.
	var curOp, runSpan atomic.Int64
	if e.tr != nil {
		layer := map[string]string{} // "WSE-2" -> "wse"
		for _, n := range experiments.PlatformNames() {
			p, _ := experiments.SharedPlatform(n)
			layer[p.Name()] = n
		}
		experiments.SetStageHook(func(pl, stage string, d time.Duration) {
			end := time.Now()
			e.tr.add(curOp.Load(), runSpan.Load(), layer[pl]+"."+stage, end.Add(-d), end)
		})
		defer experiments.SetStageHook(nil)
	}

	reps := repCount(cfg.PassesPerSecond*float64(len(ops)), e.seconds, cfg.RepPasses*len(ops))
	var compile, run, graphSt platform.CacheStats
	var checkTime, wall time.Duration
	for k := 0; k < reps; k++ {
		r := rep{}
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		cpu0, steal0 := selfCPU(), stealTicks()
		t0 := time.Now()
		for pass := 0; pass < cfg.RepPasses; pass++ {
			// Every pass is a cold regeneration of everything.
			dabench.ResetExperimentCaches()
			for i, op := range ops {
				id := e.tr.id()
				curOp.Store(id)
				start := time.Now()
				out, err := op.exec(ctx, e.tr, id, &runSpan)
				end := time.Now()
				e.tr.record(id, id, 0, "op."+op.layer(), start, end)
				lat := float64(end.Sub(start).Nanoseconds()) / 1e6
				bad := ""
				switch {
				case err != nil:
					bad = err.Error()
				case !bytes.Equal(out, ref[i]):
					bad = "render differs from the reference pass"
				}
				if bad != "" {
					r.failed++
					lat = math.Inf(1)
					o.fail("regen-cold pass %d %s: %s", pass, op.id, bad)
				}
				r.lats = append(r.lats, lat)
				checkTime += time.Since(end)
			}
			// Reset zeroes the tiers' counters, so each pass is read
			// before the next one starts.
			compile = compile.Add(dabench.ExperimentCacheStats())
			run = run.Add(dabench.ExperimentRunCacheStats())
			graphSt = graphSt.Add(dabench.ExperimentGraphCacheStats())
		}
		r.wall = time.Since(t0)
		r.cpu, r.steal = selfCPU()-cpu0, stealTicks()-steal0
		var err error
		if r.rss, err = procHWM("self"); err != nil {
			return nil, err
		}
		wall += r.wall
		o.reps = append(o.reps, r)
	}
	e.phase("timed", &clock)

	if e.tr == nil {
		return o, nil
	}
	e.tr.mu.Lock()
	spans := append([]span(nil), e.tr.spans...)
	e.tr.mu.Unlock()
	attempted, _ := o.totals()
	nops := float64(attempted)
	L := simulatorLayers(spans, nops)
	self := selfTimes(spans)
	sum, n := map[string]float64{}, map[string]float64{}
	for _, s := range spans {
		switch s.Name {
		case "experiments.run", "experiments.render", "scenario.run", "scenario.render":
			sum[s.Name] += float64(self[s.ID]) / 1e6
			n[s.Name]++
		}
	}
	for _, layer := range []string{"experiments", "scenario"} {
		L[layer+".self_ms"] = share(sum[layer+".run"], n[layer+".run"])
		L[layer+".render_ms"] = share(sum[layer+".render"], n[layer+".render"])
	}
	var simMs float64
	for _, p := range []string{"wse", "rdu", "ipu", "gpu"} {
		simMs += (L[p+".compile_ms"] + L[p+".run_ms"]) * nops
	}
	L["sweep.busy_share"] = simMs / (float64(wall.Nanoseconds()) / 1e6 * float64(dabench.SweepWorkers()))
	addCacheLayers(L, compile, run, graphSt)
	L["bench.cpu_ms_per_op"] = float64(checkTime.Nanoseconds()) / 1e6 / nops
	L["graph.build_ms"] = graphBuildMs(libraryRDUReqs(), e.seed, e.p.RegenCold.GraphSamples)
	o.layer = L
	return o, nil
}

// simulatorLayers turns the simulator spans into the per-platform
// per-op sums.
func simulatorLayers(spans []span, ops float64) map[string]float64 {
	L := map[string]float64{}
	for _, s := range spans {
		for _, p := range []string{"wse", "rdu", "ipu", "gpu"} {
			switch s.Name {
			case p + ".compile":
				L[p+".compiles"] += 1 / ops
				L[p+".compile_ms"] += float64(s.End-s.Start) / 1e6 / ops
			case p + ".run":
				L[p+".run_ms"] += float64(s.End-s.Start) / 1e6 / ops
			}
		}
	}
	return L
}

func addCacheLayers(L map[string]float64, compile, run, graphSt platform.CacheStats) {
	L["graph.builds"] = float64(graphSt.Misses)
	L["graph.hits"] = float64(graphSt.Hits)
	L["platform.compile_hits"] = float64(compile.Hits)
	L["platform.compile_misses"] = float64(compile.Misses)
	L["platform.run_hits"] = float64(run.Hits)
	L["platform.run_misses"] = float64(run.Misses)
	L["platform.compile_hit_share"] = compile.HitRate()
}

// regenSetup measures regen-cold's set-up: a fresh process that links
// only the dabench library (setupprobe/), from exec until the library
// is initialised and the first op could start.
func regenSetup(e *env, o *outcome, repeats int) error {
	if e.probe == "" {
		return errors.New("regen-cold needs -setup-probe, the set-up probe binary")
	}
	for i := 0; i < repeats; i++ {
		cmd := exec.Command(e.probe)
		cmd.SysProcAttr = orphanGuard()
		out, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return err
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		d := time.Since(t0)
		werr := cmd.Wait()
		if rerr != nil || werr != nil || line != "ready\n" {
			return fmt.Errorf("set-up probe: %q %v %v", line, rerr, werr)
		}
		o.setup = append(o.setup, d.Seconds())
	}
	return nil
}

// resetPeakRSS returns the heap's free pages to the system and resets
// this process's VmHWM to its current resident set, so the next
// procHWM("self") reads the peak since now, not since the process
// started (which would cover the untraced run when reading the traced
// one).
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// libraryRDUReqs expands the RDU points of the library scenarios —
// regen-cold's own inputs — for the bare-compile graph measurement.
func libraryRDUReqs() []runReq {
	var out []runReq
	for _, sc := range dabench.ScenarioLibrary() {
		hasRDU := false
		for _, p := range sc.Platforms {
			hasRDU = hasRDU || p == "rdu"
		}
		if !hasRDU {
			continue
		}
		b := sc.Base
		g := sc.Grid
		layers := orInts(g.Layers, b.Layers)
		batches := orInts(g.Batches, b.Batch)
		precs := g.Precisions
		if len(precs) == 0 {
			precs = []string{b.Precision}
		}
		tps := orInts(g.TensorParallel, 0)
		modes := g.Modes
		if len(modes) == 0 {
			modes = []string{b.Mode}
		}
		for _, l := range layers {
			for _, bt := range batches {
				for _, pr := range precs {
					for _, tp := range tps {
						for _, m := range modes {
							out = append(out, runReq{Platform: "rdu", Mode: m, Model: b.Model, Layers: l,
								Batch: bt, Seq: b.Seq, Precision: pr, TP: tp})
						}
					}
				}
			}
		}
	}
	return out
}

func orInts(axis []int, base int) []int {
	if len(axis) == 0 {
		return []int{base}
	}
	return axis
}
