// Command dabench runs the DABench-LLM benchmarking framework from the
// command line: Tier-1 profiles, Tier-2 sweeps, and the reproduction of
// every table and figure in the paper.
//
// Usage:
//
//	dabench experiments [-parallel N] [id ...]   reproduce paper tables/figures (default: all)
//	dabench profile -platform wse -model gpt2-small [-layers N] [-batch B]
//	dabench scenario run <file|name>             execute a declarative multi-platform study
//	dabench scenario list                        list the built-in scenario library
//	dabench analyze [-csv] trace.jsonl           summarize a saved -trace record stream
//	dabench provenance verify -data-dir DIR      verify a dabenchd data dir's provenance chain
//	         [-peer URL -node-id NAME]           ...and cross-check it against a cluster peer's remembered tip
//	dabench list                                 list platforms, models and experiment IDs
//	dabench version                              print the build version
//
// Add -csv to print CSV instead of aligned text. Experiment sweeps fan
// out over -parallel workers (default: all cores) through the shared
// graph and compile caches; per-experiment wall-clock and per-tier
// cache hit/miss stats go to stderr so they never pollute the table
// streams. -cpuprofile and -memprofile write pprof profiles so perf
// work on the pipeline stays measurement-driven. The CLI persists
// nothing: a run recomputes every outcome in memory, which is faster
// than reading stored outcomes back from disk.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dabench/internal/cluster"
	"dabench/internal/core"
	"dabench/internal/experiments"
	"dabench/internal/model"
	"dabench/internal/platform"
	"dabench/internal/provenance"
	"dabench/internal/report"
	"dabench/internal/scenario"
	"dabench/internal/store"
	"dabench/internal/sweep"
	"dabench/internal/trace"
	"dabench/internal/version"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dabench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	err := dispatch(args)
	if errors.Is(err, flag.ErrHelp) {
		return nil // -h: the flag set has printed its usage to stderr
	}
	return err
}

func dispatch(args []string) error {
	if len(args) == 0 {
		args = []string{"experiments"}
	}
	switch args[0] {
	case "experiments":
		return runExperiments(args[1:])
	case "profile":
		return runProfile(args[1:])
	case "scenario":
		return runScenario(args[1:])
	case "analyze":
		return runAnalyze(args[1:])
	case "provenance":
		return runProvenance(args[1:])
	case "list":
		return runList()
	case "version", "-version", "--version":
		fmt.Println("dabench", version.Version)
		return nil
	case "-h", "--help", "help":
		fmt.Println("usage: dabench {experiments [id ...] | profile [flags] | scenario {run <file|name> | list} | analyze [-csv] file | provenance verify -data-dir DIR | list | version}")
		return nil
	default:
		return fmt.Errorf("unknown command %q (try: experiments, profile, scenario, analyze, provenance, list, version)", args[0])
	}
}

func runExperiments(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	csv := fs.Bool("csv", false, "emit CSV")
	traceOut := fs.String("trace", "", "append raw measurement records (JSON lines) to this file")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "sweep worker pool size (1 = serial)")
	quiet := fs.Bool("q", false, "suppress per-experiment timing/cache stats on stderr")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parallel < 1 || *parallel > sweep.MaxWorkers {
		return fmt.Errorf("-parallel must be in [1, %d], got %d", sweep.MaxWorkers, *parallel)
	}
	if *traceOut != "" {
		if fi, err := os.Stat(*traceOut); err == nil && fi.IsDir() {
			return fmt.Errorf("-trace %q is a directory, want a file path", *traceOut)
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC() // flush unreachable allocations so the profile reflects live + cumulative alloc sites
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dabench: memprofile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "dabench: memprofile:", err)
			}
		}()
	}
	sweep.SetDefaultWorkers(*parallel)
	defer sweep.SetDefaultWorkers(0)
	ids := fs.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	var tw *trace.Writer
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		tw = trace.NewWriter(f)
	}
	all := experiments.All()
	for _, id := range ids {
		runner, ok := all[id]
		if !ok {
			return fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(experiments.IDs(), ", "))
		}
		res, err := runner(context.Background())
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if !*quiet {
			s, g := res.Cache, res.GraphCache
			fmt.Fprintf(os.Stderr, "# %-8s %8.2fms wall (%d workers) · compile cache %d/%d hits (%.0f%%) · graph cache %d/%d\n",
				id, float64(res.Elapsed.Microseconds())/1000, *parallel,
				s.Hits, s.Hits+s.Misses, 100*s.HitRate(), g.Hits, g.Hits+g.Misses)
		}
		// Render is shared with the HTTP server's /v1/experiments
		// endpoint — the same code path is what keeps the two outputs
		// byte-identical (CI diffs them).
		if err := res.Render(os.Stdout, *csv); err != nil {
			return err
		}
		if tw != nil {
			for _, rec := range res.Trace {
				if err := tw.Write(rec); err != nil {
					return err
				}
			}
		}
	}
	if !*quiet {
		total := experiments.CacheStats()
		g := experiments.GraphCacheStats()
		fmt.Fprintf(os.Stderr, "# total: compile cache %d/%d hits (%.0f%%) · graph cache %d/%d across %d experiments\n",
			total.Hits, total.Hits+total.Misses, 100*total.HitRate(),
			g.Hits, g.Hits+g.Misses, len(ids))
	}
	return nil
}

// runProvenance dispatches the provenance subcommands. The chain is the
// tamper-evident companion of the result store: every blob the store
// persists appends one hash-linked record, and verify replays both
// halves against each other — the chain must hash-link end to end, and
// every blob on disk must be claimed by a record that agrees on its
// identity. (The converse is not required: evicted blobs legitimately
// live on as chain-only records.)
func runProvenance(args []string) error {
	if len(args) == 0 || args[0] != "verify" {
		return errors.New("usage: dabench provenance verify -data-dir DIR [-peer URL -node-id NAME]")
	}
	fs := flag.NewFlagSet("provenance verify", flag.ContinueOnError)
	dataDir := fs.String("data-dir", "", "durable state directory whose chain and store to verify")
	peerURL := fs.String("peer", "", "base URL of a cluster peer whose gossip-remembered view of this node anchors the check")
	peerNodeID := fs.String("node-id", "", "this node's cluster name in the peer's view (required with -peer)")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *dataDir == "" {
		return errors.New("provenance verify: -data-dir is required")
	}
	if (*peerURL == "") != (*peerNodeID == "") {
		return errors.New("provenance verify: -peer and -node-id go together")
	}
	res, err := provenance.VerifyFile(filepath.Join(*dataDir, "provenance.log"))
	if err != nil {
		return fmt.Errorf("provenance chain FAILED verification: %w", err)
	}
	var blobs, bad int
	err = store.ScanBlobs(filepath.Join(*dataDir, "store"),
		func(addr, platformName, specKey string, ver int) error {
			blobs++
			if platformName == "" {
				bad++
				fmt.Fprintf(os.Stderr, "dabench: blob %s is unreadable or undecodable\n", addr)
				return nil
			}
			rec, ok := res.ByAddr[addr]
			switch {
			case !ok:
				bad++
				fmt.Fprintf(os.Stderr, "dabench: blob %s has no provenance record (written outside the chain?)\n", addr)
			case rec.Platform != platformName || rec.SpecKey != specKey || rec.PipelineVersion != ver:
				bad++
				fmt.Fprintf(os.Stderr, "dabench: blob %s disagrees with its record: disk (%s, %s, v%d) vs chain (%s, %s, v%d)\n",
					addr, platformName, specKey, ver, rec.Platform, rec.SpecKey, rec.PipelineVersion)
			}
			return nil
		})
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("provenance verify FAILED: %d of %d blobs unaccounted for or mismatched", bad, blobs)
	}
	fmt.Printf("provenance OK: %d records, %d blobs verified, tip %s\n", res.Records, blobs, res.TipHash)
	if *peerURL != "" {
		return verifyPeerTip(*peerURL, *peerNodeID, res)
	}
	return nil
}

// verifyPeerTip cross-checks the locally-verified chain against a
// cluster peer's memory of it. Gossip makes every peer remember the tip
// hash this node last advertised; a tip commits to the node's entire
// write history, so the remembered hash must be the current tip or one
// of its ancestors. A chain that was rewritten or truncated after the
// peer observed it cannot contain that hash — which is exactly the
// attack a purely local verification cannot see (replace the whole
// file, and every link still checks out).
func verifyPeerTip(peerURL, nodeID string, res *provenance.VerifyResult) error {
	u := strings.TrimRight(peerURL, "/") + "/v1/gossip"
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(u)
	if err != nil {
		return fmt.Errorf("provenance verify: peer gossip: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("provenance verify: peer %s answered %s", u, resp.Status)
	}
	var gr cluster.GossipResponse
	if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
		return fmt.Errorf("provenance verify: peer gossip: %w", err)
	}
	var view *cluster.PeerView
	for i := range gr.Peers {
		if gr.Peers[i].ID == nodeID {
			view = &gr.Peers[i]
			break
		}
	}
	if view == nil {
		return fmt.Errorf("provenance verify: peer at %s does not know a node %q (check -node-id against the fleet's -peers)", peerURL, nodeID)
	}
	if view.ChainTip == "" {
		fmt.Printf("peer anchor: %s has not yet observed a chain tip for %s — nothing to cross-check\n", peerURL, nodeID)
		return nil
	}
	if !res.Hashes[view.ChainTip] {
		return fmt.Errorf("provenance verify FAILED: peer %s remembers tip %.12s (at %d records), which is not in this chain — chain rewritten or truncated since the peer observed it",
			peerURL, view.ChainTip, view.ChainRecords)
	}
	fmt.Printf("peer anchor OK: %s remembers tip %.12s (at %d records), present in this chain\n",
		peerURL, view.ChainTip, view.ChainRecords)
	return nil
}

// runScenario dispatches the scenario subcommands: the declarative
// multi-platform studies of internal/scenario.
func runScenario(args []string) error {
	if len(args) == 0 {
		return errors.New("usage: dabench scenario {run [flags] <file|name> | list}")
	}
	switch args[0] {
	case "run":
		return runScenarioRun(args[1:])
	case "list":
		for _, sc := range scenario.Library() {
			n, err := sc.Points()
			if err != nil {
				return err
			}
			fmt.Printf("%-26s %3d points on %-18s %s\n",
				sc.Name, n, strings.Join(sc.Platforms, ","), sc.Description)
		}
		return nil
	default:
		return fmt.Errorf("unknown scenario command %q (try: run, list)", args[0])
	}
}

// runScenarioRun executes one scenario — a built-in library name or a
// JSON document on disk — and renders it through the same shared path
// the daemon uses, so the two outputs are byte-identical (CI diffs
// them).
func runScenarioRun(args []string) error {
	fs := flag.NewFlagSet("scenario run", flag.ContinueOnError)
	csv := fs.Bool("csv", false, "emit CSV")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "sweep worker pool size (1 = serial)")
	quiet := fs.Bool("q", false, "suppress timing/cache stats on stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parallel < 1 || *parallel > sweep.MaxWorkers {
		return fmt.Errorf("-parallel must be in [1, %d], got %d", sweep.MaxWorkers, *parallel)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: dabench scenario run [flags] <file|name> (got %d args)", fs.NArg())
	}
	arg := fs.Arg(0)
	sc, ok := scenario.ByName(arg)
	if !ok {
		data, err := os.ReadFile(arg)
		if err != nil {
			return fmt.Errorf("%q is neither a library scenario (try: dabench scenario list) nor a readable file: %w", arg, err)
		}
		if sc, err = scenario.Parse(data); err != nil {
			return err
		}
	}

	sweep.SetDefaultWorkers(*parallel)
	defer sweep.SetDefaultWorkers(0)

	start := time.Now()
	before := experiments.CacheStats()
	out, err := scenario.Run(context.Background(), sc, scenario.RunOptions{})
	if err != nil {
		return err
	}
	if !*quiet {
		d := experiments.CacheStats().Sub(before)
		fmt.Fprintf(os.Stderr, "# %-26s %8.2fms wall (%d workers) · %d points × %d platforms · %d failed · compile cache %d/%d hits (%.0f%%)\n",
			sc.Name, float64(time.Since(start).Microseconds())/1000, *parallel,
			out.GridPoints, len(out.Platforms), out.Failed,
			d.Hits, d.Hits+d.Misses, 100*d.HitRate())
	}
	return out.Render(os.Stdout, *csv)
}

func runProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	plat := fs.String("platform", "wse", "wse | rdu | ipu | gpu")
	mdl := fs.String("model", "gpt2-small", "model preset name")
	layers := fs.Int("layers", 0, "override layer count")
	batch := fs.Int("batch", 512, "batch size")
	seq := fs.Int("seq", 1024, "sequence length")
	prec := fs.String("precision", "FP16", "FP32 | FP16 | BF16 | CB16 | Mixed")
	mode := fs.String("mode", "", "RDU compile mode: O0 | O1 | O3")
	if err := fs.Parse(args); err != nil {
		return err
	}

	p, ok := experiments.SharedPlatform(*plat)
	if !ok {
		return fmt.Errorf("unknown platform %q (valid: %s)", *plat, strings.Join(experiments.PlatformNames(), ", "))
	}
	spec, err := platform.ParseSpec(*mdl, *layers, *batch, *seq, *prec, *mode)
	if err != nil {
		return err
	}
	prof, err := core.Profile(p, spec)
	if err != nil {
		return err
	}
	fmt.Println(prof.Summary())
	tbl := report.New("Insights", "#", "Finding")
	for i, ins := range prof.Insights {
		tbl.Add(fmt.Sprint(i+1), ins)
	}
	return tbl.WriteText(os.Stdout)
}

// runAnalyze summarizes a JSONL record stream saved with
// `experiments -trace` (the library's trace.Analyze, previously
// reachable only programmatically).
func runAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	csv := fs.Bool("csv", false, "emit CSV")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: dabench analyze [-csv] trace.jsonl (got %d args)", fs.NArg())
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := trace.Read(f)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("%s: no trace records", fs.Arg(0))
	}
	sums := trace.Analyze(recs)
	tbl := report.New(fmt.Sprintf("Trace analysis — %d records, %d groups", len(recs), len(sums)),
		"Experiment", "Platform", "Metric", "Count", "Failures", "Min", "Mean", "Max")
	for _, s := range sums {
		tbl.Add(s.Experiment, s.Platform, s.Metric, fmt.Sprint(s.Count), fmt.Sprint(s.Failures),
			report.F(s.Min), report.F(s.Mean), report.F(s.Max))
	}
	if *csv {
		return tbl.WriteCSV(os.Stdout)
	}
	return tbl.WriteText(os.Stdout)
}

func runList() error {
	fmt.Println("platforms: wse, rdu, ipu, gpu")
	fmt.Print("models:")
	for _, m := range model.Presets() {
		fmt.Printf(" %s", m.Name)
	}
	fmt.Println()
	fmt.Println("experiments:", strings.Join(experiments.IDs(), ", "))
	fmt.Println("scenarios:", strings.Join(scenario.Names(), ", "))
	return nil
}
