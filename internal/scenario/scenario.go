// Package scenario is the declarative layer over the experiment
// pipeline: where the paper's runners and the server's sweep endpoints
// each walk one platform's layer×batch×precision grid, a scenario
// names a parameter grid, a *set* of platforms, and the comparisons to
// compute — and the engine turns that document into speedup tables,
// best-per-point winner matrices and pareto frontiers, all produced by
// the same cached compile/run pipeline every other entry point uses.
//
// A scenario is a versioned JSON document:
//
//	{
//	  "version": 1,
//	  "name": "cross-platform-throughput",
//	  "platforms": ["wse", "rdu", "ipu", "gpu"],
//	  "base": {"model": "gpt2-small", "seq": 1024, "precision": "FP16"},
//	  "grid": {"layers": [6, 12], "batches": [256, 512]},
//	  "compare": ["speedup", "winners", "pareto"],
//	  "baseline": "gpu"
//	}
//
// Version is the format epoch: documents from a different epoch are
// rejected at parse time instead of silently misread. Grid axes that
// are omitted hold the base value fixed; every named axis contributes
// a segment to each point's label, so a point is identified the same
// way everywhere it is rendered.
//
// Execution goes through experiments.SharedPlatform and the sweep
// worker pool, so every compile lands in the process-wide graph and
// compile cache tiers — a scenario re-run against a warm daemon costs
// lookups and microsecond runs, not compiles. Placement failures are findings
// ("Fail" rows), never scenario errors. Rendering goes through
// experiments.Result.Render, the same path the CLI and the daemon use
// for experiment artifacts, which is what keeps a scenario's table and
// CSV output byte-identical across every entry point.
package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"dabench/internal/experiments"
	"dabench/internal/platform"
	"dabench/internal/report"
	"dabench/internal/sweep"
)

// FormatVersion is the scenario document epoch. Bump it whenever the
// schema or the execution semantics change incompatibly; old documents
// then fail loudly at Parse instead of executing under new rules.
const FormatVersion = 1

// Comparison names accepted in a scenario's "compare" list.
const (
	CompareSpeedup = "speedup" // per-point throughput ratio vs the baseline platform
	CompareWinners = "winners" // best platform per grid point, with its margin
	ComparePareto  = "pareto"  // (tokens/s, efficiency) frontier over every outcome
)

// maxGridPoints bounds one scenario's per-platform grid. It is an
// engine sanity cap against pathological documents; the serving caps
// (sync budget, job cap) are far below it.
const maxGridPoints = 1 << 30

// Scenario is one declarative multi-platform study.
type Scenario struct {
	// Version must equal FormatVersion.
	Version int `json:"version"`
	// Name identifies the scenario in tables, job journals and the
	// library. Required.
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Platforms is the set of platforms every grid point runs on
	// (aliases as accepted by experiments.SharedPlatform). Required,
	// no duplicates.
	Platforms []string `json:"platforms"`
	// Base is the fixed part of every point's TrainSpec.
	Base Base `json:"base"`
	// Grid names the swept axes; omitted axes hold the base value.
	Grid Grid `json:"grid,omitempty"`
	// Compare lists the comparisons to compute. Empty means every
	// comparison applicable to the platform set (speedup and winners
	// need at least two platforms; pareto always applies).
	Compare []string `json:"compare,omitempty"`
	// Baseline names the speedup denominator platform; default: the
	// first entry of Platforms. Must be a member of Platforms.
	Baseline string `json:"baseline,omitempty"`
}

// Base is the fixed workload underneath the grid: the same knobs as
// the server's run request, resolved by the same platform.ParseSpec
// with the same defaults (batch 512, seq 1024, FP16).
type Base struct {
	Model     string `json:"model"`
	Layers    int    `json:"layers,omitempty"`
	Batch     int    `json:"batch,omitempty"`
	Seq       int    `json:"seq,omitempty"`
	Precision string `json:"precision,omitempty"`
	// Mode is the RDU build-optimization level ("O0", "O1", "O3");
	// platforms without compile modes ignore it.
	Mode string `json:"mode,omitempty"`
}

// Outcome is one executed scenario: the wire form served by
// POST /v1/scenarios and stored as an async job's result, with the
// rendered tables carried whole so every consumer renders the same
// bytes.
type Outcome struct {
	Scenario  string   `json:"scenario"`
	Platforms []string `json:"platforms"`
	// GridPoints is the per-platform grid size; TotalPoints =
	// GridPoints × len(Platforms) is how many compile/run pairs the
	// scenario executed, and is the denominator Failed counts
	// against (it matches the async job view's points).
	GridPoints  int             `json:"grid_points"`
	TotalPoints int             `json:"total_points"`
	Failed      int             `json:"failed"`
	Tables      []*report.Table `json:"tables"`
}

// Render writes the outcome's tables through the shared
// experiments.Result.Render path — the one renderer the CLI, the
// synchronous endpoint and the async job result all use, byte for
// byte.
func (o *Outcome) Render(w io.Writer, csv bool) error {
	res := experiments.Result{ID: o.Scenario, Tables: o.Tables}
	return res.Render(w, csv)
}

// RunOptions tunes one Run call.
type RunOptions struct {
	// Workers overrides the sweep pool size (0: process default).
	Workers int
	// Progress, when non-nil, receives cumulative (done, failed)
	// counts as chunks of the platform×grid product complete — the
	// async job executor's progress beat.
	Progress func(done, failed int)
}

// Parse decodes and validates a scenario document. Decoding is strict:
// unknown fields, trailing data and wrong format versions are errors.
func Parse(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("scenario: decode: %w", err)
	}
	if dec.More() {
		return nil, errors.New("scenario: trailing data after JSON value")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// Validate checks the document without executing it.
func (sc *Scenario) Validate() error {
	_, err := sc.compile()
	return err
}

// Points returns the total number of compile/run pairs the scenario
// executes: the grid size times the platform count.
func (sc *Scenario) Points() (int, error) {
	a, err := sc.compile()
	if err != nil {
		return 0, err
	}
	return len(a.plats) * a.gridN, nil
}

// axes is a validated, resolved scenario: platforms bound to the
// process-wide cached simulators and the grid resolved against the
// base.
type axes struct {
	plats    []platform.CachedPlatform
	names    []string // display names, index-aligned with plats
	pts      *Points
	gridN    int
	compare  []string
	baseline int // index into plats
}

// compile resolves and validates the document into executable axes.
func (sc *Scenario) compile() (*axes, error) {
	if sc.Version != FormatVersion {
		return nil, fmt.Errorf("scenario: format version %d not supported (this engine speaks version %d)",
			sc.Version, FormatVersion)
	}
	if sc.Name == "" {
		return nil, errors.New("scenario: name is required")
	}
	if len(sc.Platforms) == 0 {
		return nil, fmt.Errorf("scenario: platforms is required (valid: %s)",
			strings.Join(experiments.PlatformNames(), ", "))
	}
	a := &axes{baseline: -1}
	seen := map[string]bool{}
	for _, name := range sc.Platforms {
		p, ok := experiments.SharedPlatform(name)
		if !ok {
			return nil, fmt.Errorf("scenario: unknown platform %q (valid: %s)",
				name, strings.Join(experiments.PlatformNames(), ", "))
		}
		if seen[p.Name()] {
			return nil, fmt.Errorf("scenario: duplicate platform %q", name)
		}
		seen[p.Name()] = true
		a.plats = append(a.plats, p)
		a.names = append(a.names, p.Name())
		if sc.Baseline != "" {
			if bp, ok := experiments.SharedPlatform(sc.Baseline); ok && bp.Name() == p.Name() {
				a.baseline = len(a.plats) - 1
			}
		}
	}
	if sc.Baseline == "" {
		a.baseline = 0
	} else if a.baseline < 0 {
		return nil, fmt.Errorf("scenario: baseline %q is not in platforms", sc.Baseline)
	}

	// The fixed base spec, resolved as every entry point resolves one.
	base, err := platform.ParseSpec(sc.Base.Model, sc.Base.Layers, sc.Base.Batch, sc.Base.Seq,
		sc.Base.Precision, sc.Base.Mode)
	if err != nil {
		return nil, fmt.Errorf("scenario: base: %w", err)
	}
	a.pts, err = sc.Grid.Resolve(base)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if a.pts.Size() > maxGridPoints {
		return nil, fmt.Errorf("scenario: grid exceeds %d points", maxGridPoints)
	}
	a.gridN = int(a.pts.Size())

	// Comparisons.
	if len(sc.Compare) == 0 {
		if len(a.plats) >= 2 {
			a.compare = []string{CompareSpeedup, CompareWinners, ComparePareto}
		} else {
			a.compare = []string{ComparePareto}
		}
	} else {
		for _, c := range sc.Compare {
			switch c {
			case CompareSpeedup, CompareWinners:
				if len(a.plats) < 2 {
					return nil, fmt.Errorf("scenario: comparison %q needs at least two platforms", c)
				}
			case ComparePareto:
			default:
				return nil, fmt.Errorf("scenario: unknown comparison %q (valid: %s, %s, %s)",
					c, CompareSpeedup, CompareWinners, ComparePareto)
			}
			a.compare = append(a.compare, c)
		}
	}
	return a, nil
}

// pointOut is one (platform, grid point) outcome.
type pointOut struct {
	failed bool
	reason string
	step   float64
	tps    float64
	tflops float64
	eff    float64
}

// Run executes the scenario on the process-wide cached platform set
// and assembles its comparison tables. Placement failures are
// tolerated findings; a context cancellation or simulator fault aborts
// with that error.
func Run(ctx context.Context, sc *Scenario, opts RunOptions) (*Outcome, error) {
	a, err := sc.compile()
	if err != nil {
		return nil, err
	}
	total := len(a.plats) * a.gridN
	var sweepOpts []sweep.Option
	if opts.Workers > 0 {
		sweepOpts = append(sweepOpts, sweep.Workers(opts.Workers))
	}

	results := make([]pointOut, 0, total)
	failed := 0
	for lo := 0; lo < total; lo += ChunkSize {
		hi := min(lo+ChunkSize, total)
		outs, err := sweep.MapN(ctx, hi-lo, func(_ context.Context, i int) (pointOut, error) {
			idx := lo + i
			p := a.plats[idx/a.gridN]
			spec := a.pts.Spec(idx % a.gridN)
			cr, err := p.Compile(spec)
			if err != nil {
				return pointOut{}, err // placement failures tolerated by MapN's default predicate
			}
			rr, err := p.Run(cr)
			if err != nil {
				return pointOut{}, err
			}
			return pointOut{
				step: float64(rr.StepTime), tps: rr.TokensPerSec,
				tflops: rr.Achieved.TFLOPS(), eff: rr.Efficiency,
			}, nil
		}, sweepOpts...)
		if err != nil {
			return nil, err
		}
		for _, o := range outs {
			po := o.Value
			if o.Failed() {
				po = pointOut{failed: true, reason: o.Err.Error()}
				failed++
			}
			results = append(results, po)
		}
		if opts.Progress != nil {
			opts.Progress(hi, failed)
		}
	}

	out := &Outcome{
		Scenario:    sc.Name,
		Platforms:   a.names,
		GridPoints:  a.gridN,
		TotalPoints: total,
		Failed:      failed,
	}
	out.Tables = append(out.Tables, a.resultsTable(sc.Name, results))
	if failed > 0 {
		// Placement failures are findings: their reasons must be
		// reachable from every entry point, not computed and dropped.
		out.Tables = append(out.Tables, a.failuresTable(sc.Name, results))
	}
	for _, c := range a.compare {
		switch c {
		case CompareSpeedup:
			out.Tables = append(out.Tables, a.speedupTable(sc.Name, results))
		case CompareWinners:
			out.Tables = append(out.Tables, a.winnersTable(sc.Name, results))
		case ComparePareto:
			out.Tables = append(out.Tables, a.paretoTable(sc.Name, results))
		}
	}
	return out, nil
}

// at returns the outcome of grid point pt on platform pi.
func at(results []pointOut, gridN, pi, pt int) pointOut { return results[pi*gridN+pt] }

// resultsTable is the raw per-platform outcome listing every scenario
// produces, in platform-major point order.
func (a *axes) resultsTable(name string, results []pointOut) *report.Table {
	tbl := report.New(fmt.Sprintf("Scenario %s — per-platform results", name),
		"Platform", "Config", "Status", "Step time s", "Tokens/s", "TFLOPS", "Efficiency %")
	for pi, pname := range a.names {
		for pt := 0; pt < a.gridN; pt++ {
			r := at(results, a.gridN, pi, pt)
			if r.failed {
				tbl.Add(pname, a.pts.Label(pt), "Fail", "-", "-", "-", "-")
				continue
			}
			tbl.Add(pname, a.pts.Label(pt), "ok", report.F(r.step), report.F(r.tps),
				report.F(r.tflops), report.F(100*r.eff))
		}
	}
	return tbl
}

// failuresTable lists every failed (platform, point) with the
// compiler's reason — the diagnostics behind the results table's Fail
// markers, in the same platform-major order.
func (a *axes) failuresTable(name string, results []pointOut) *report.Table {
	tbl := report.New(fmt.Sprintf("Scenario %s — failures", name),
		"Platform", "Config", "Reason")
	for pi, pname := range a.names {
		for pt := 0; pt < a.gridN; pt++ {
			if r := at(results, a.gridN, pi, pt); r.failed {
				tbl.Add(pname, a.pts.Label(pt), r.reason)
			}
		}
	}
	return tbl
}

// speedupTable reports each platform's tokens/s per grid point as a
// multiple of the baseline platform's.
func (a *axes) speedupTable(name string, results []pointOut) *report.Table {
	headers := append([]string{"Config"}, a.names...)
	tbl := report.New(fmt.Sprintf("Scenario %s — tokens/s speedup vs %s", name, a.names[a.baseline]),
		headers...)
	for pt := 0; pt < a.gridN; pt++ {
		base := at(results, a.gridN, a.baseline, pt)
		row := make([]string, 0, len(a.names)+1)
		row = append(row, a.pts.Label(pt))
		for pi := range a.names {
			r := at(results, a.gridN, pi, pt)
			if r.failed || base.failed || base.tps <= 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, report.F(r.tps/base.tps))
		}
		tbl.Add(row...)
	}
	return tbl
}

// winnersTable names the best platform (by tokens/s) per grid point
// and its margin over the runner-up.
func (a *axes) winnersTable(name string, results []pointOut) *report.Table {
	tbl := report.New(fmt.Sprintf("Scenario %s — best platform per point (tokens/s)", name),
		"Config", "Winner", "Tokens/s", "Margin x")
	for pt := 0; pt < a.gridN; pt++ {
		best, second := -1, -1
		for pi := range a.names {
			r := at(results, a.gridN, pi, pt)
			if r.failed {
				continue
			}
			switch {
			case best == -1 || r.tps > at(results, a.gridN, best, pt).tps:
				second = best
				best = pi
			case second == -1 || r.tps > at(results, a.gridN, second, pt).tps:
				second = pi
			}
		}
		if best == -1 {
			tbl.Add(a.pts.Label(pt), "-", "-", "-")
			continue
		}
		margin := "-"
		bestTPS := at(results, a.gridN, best, pt).tps
		if second != -1 {
			if secondTPS := at(results, a.gridN, second, pt).tps; secondTPS > 0 {
				margin = report.F(bestTPS / secondTPS)
			}
		}
		tbl.Add(a.pts.Label(pt), a.names[best], report.F(bestTPS), margin)
	}
	return tbl
}

// paretoTable lists the (tokens/s, efficiency) frontier over every
// successful (platform, point) outcome: the configurations no other
// configuration beats on both axes.
func (a *axes) paretoTable(name string, results []pointOut) *report.Table {
	tbl := report.New(fmt.Sprintf("Scenario %s — pareto frontier (tokens/s vs efficiency)", name),
		"Platform", "Config", "Tokens/s", "Efficiency %")
	type cand struct{ pi, pt int }
	var ok []cand
	for pi := range a.names {
		for pt := 0; pt < a.gridN; pt++ {
			if !at(results, a.gridN, pi, pt).failed {
				ok = append(ok, cand{pi, pt})
			}
		}
	}
	// Sorted by (tokens/s desc, efficiency desc, platform, point) — the
	// presentation order — one sweep finds the frontier in O(n log n)
	// (grids can reach the async job cap; a quadratic dominance scan
	// would dwarf the sweep itself there). A point survives iff it has
	// the best efficiency of its throughput class AND strictly beats
	// every higher-throughput point's efficiency; equal (tps, eff) ties
	// dominate nothing and all survive.
	sort.Slice(ok, func(i, j int) bool {
		ri := at(results, a.gridN, ok[i].pi, ok[i].pt)
		rj := at(results, a.gridN, ok[j].pi, ok[j].pt)
		if ri.tps != rj.tps {
			return ri.tps > rj.tps
		}
		if ri.eff != rj.eff {
			return ri.eff > rj.eff
		}
		if ok[i].pi != ok[j].pi {
			return ok[i].pi < ok[j].pi
		}
		return ok[i].pt < ok[j].pt
	})
	seenEff := false
	var maxEffAbove float64 // max efficiency among strictly faster points
	for i := 0; i < len(ok); {
		j := i // the equal-throughput group [i, j)
		tps := at(results, a.gridN, ok[i].pi, ok[i].pt).tps
		for j < len(ok) && at(results, a.gridN, ok[j].pi, ok[j].pt).tps == tps {
			j++
		}
		groupMaxEff := at(results, a.gridN, ok[i].pi, ok[i].pt).eff
		for k := i; k < j; k++ {
			r := at(results, a.gridN, ok[k].pi, ok[k].pt)
			if r.eff == groupMaxEff && (!seenEff || r.eff > maxEffAbove) {
				tbl.Add(a.names[ok[k].pi], a.pts.Label(ok[k].pt), report.F(r.tps), report.F(100*r.eff))
			}
		}
		if !seenEff || groupMaxEff > maxEffAbove {
			seenEff, maxEffAbove = true, groupMaxEff
		}
		i = j
	}
	return tbl
}
