// Command perfbench is the repository's benchmark: three seeded,
// fixed-work workloads run against the code as users run it, each
// reporting end-to-end metrics on an untraced run and per-layer metrics
// on a traced one.
//
//	regen-cold   in-process: regenerate and render the 11 paper
//	             artifacts and the 6 library scenarios from cold caches
//	serve-zipf   a two-node dabenchd fleet answering zipfian /v1/run
//	             traffic over loopback HTTP
//	sweep-cold   one dabenchd computing design-space grids no earlier
//	             op requested, via /v1/sweep and /v1/jobs
//
// Run it through run.sh from the repository root, which builds this
// harness and dabenchd from the tree under test:
//
//	bash perfbench/run.sh --workload serve-zipf --seed 1 --seconds 10 --trace 0
//
// The last line of stdout is one JSON object: correct, attempted,
// failed and metrics. --trace 0 reports the end-to-end metrics; --trace
// 1 runs the workload untraced and then traced with the same seed and
// reports the per-layer metrics plus the tracing overhead. Any
// correctness mismatch makes the exit status 1.
//
// Every parameter of every workload is fixed in params.json. A run is
// a number of reps of the same fixed work on fresh state; --seconds
// sets how many (fixed work, not fixed duration). Set-up is timed on
// its own repetitions.
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// env is what one workload run is given.
type env struct {
	p       *params
	seed    int64
	seconds int
	tr      *tracer // nil on the untraced run
	bin     string  // dabenchd built from the tree under test
	probe   string  // setupprobe built from the tree under test
	work    string  // per-run scratch directory, removed afterwards
	log     io.Writer
}

// outcome is what one workload run measured.
type outcome struct {
	setup      []float64 // seconds, one per set-up repetition
	reps       []rep
	mismatches []string
	layer      map[string]float64 // per-layer metrics (traced run only)
}

// rep is one repetition of a workload's fixed work on fresh state.
// Throughput counts its completed ops; latency percentiles and CPU per
// op count every op it attempted.
type rep struct {
	lats   []float64 // ms per op; a failed op is +Inf, it misses every latency limit
	failed int
	wall   time.Duration
	cpu    time.Duration // of the processes under test
	rss    int64         // their peak resident bytes
	steal  int64         // host steal ticks during the rep
}

func (o *outcome) totals() (attempted, failed int) {
	for _, r := range o.reps {
		attempted += len(r.lats)
		failed += r.failed
	}
	return attempted, failed
}

// repCount is how many reps of repOps ops fill seconds at rate ops per
// second, and at least one.
func repCount(rate float64, seconds, repOps int) int {
	return max(1, int(math.Round(rate*float64(seconds)/float64(repOps))))
}

// phase logs how long a phase of the run took, and restarts the clock.
func (e *env) phase(name string, t0 *time.Time) {
	fmt.Fprintf(e.log, "  %-12s %8.3fs\n", name, time.Since(*t0).Seconds())
	*t0 = time.Now()
}

func (o *outcome) fail(format string, a ...any) {
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, a...))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"}, {"p50_ms", "ms"}, {"p99_ms", "ms"},
	{"ops_per_s", "1/s"}, {"cpu_ms_per_op", "ms"}, {"rss_peak_mb", "MB"},
}

// perLayer lists every per-layer metric in report order. Counts are
// totals over the timed phase unless the unit says per op; *_ms stage
// costs are means over the ops or calls that incurred them.
var perLayer = func() []metricDef {
	var d []metricDef
	for _, p := range []string{"wse", "rdu", "ipu", "gpu"} {
		d = append(d, metricDef{p + ".compiles", "1/op"}, metricDef{p + ".compile_ms", "ms/op"}, metricDef{p + ".run_ms", "ms/op"})
	}
	d = append(d,
		metricDef{"graph.builds", "count"}, metricDef{"graph.hits", "count"}, metricDef{"graph.build_ms", "ms"},
		metricDef{"platform.compile_hits", "count"}, metricDef{"platform.compile_misses", "count"},
		metricDef{"platform.run_hits", "count"}, metricDef{"platform.run_misses", "count"},
		metricDef{"platform.compile_hit_share", "ratio"},
		metricDef{"sweep.busy_share", "ratio"},
		metricDef{"experiments.self_ms", "ms"}, metricDef{"experiments.render_ms", "ms"},
		metricDef{"scenario.self_ms", "ms"}, metricDef{"scenario.render_ms", "ms"})
	for _, r := range rungs {
		d = append(d, metricDef{"server.rung_share." + r, "ratio"})
	}
	for _, r := range rungs {
		d = append(d, metricDef{"server.rung_ms." + r, "ms"})
	}
	d = append(d,
		metricDef{"server.decode_ms", "ms"}, metricDef{"server.render_ms", "ms"},
		metricDef{"server.admission_ms", "ms"}, metricDef{"server.rejected", "count"},
		metricDef{"memo.l0_evictions", "count"}, metricDef{"memo.l0_bytes", "MB"},
		metricDef{"store.raw_hits", "count"}, metricDef{"store.raw_misses", "count"},
		metricDef{"store.puts", "count"}, metricDef{"store.evictions", "count"},
		metricDef{"store.read_ms", "ms"}, metricDef{"store.write_ms", "ms"}, metricDef{"store.open_ms", "ms"},
		metricDef{"provenance.records", "count"}, metricDef{"provenance.open_ms", "ms"},
		metricDef{"cluster.fetch_hits", "count"}, metricDef{"cluster.fetch_misses", "count"},
		metricDef{"cluster.fetch_errors", "count"}, metricDef{"cluster.adoptions", "count"},
		metricDef{"cluster.fetch_hit_share", "ratio"},
		metricDef{"cluster.fetch_hit_ms", "ms"}, metricDef{"cluster.fetch_miss_ms", "ms"},
		metricDef{"jobs.queue_ms", "ms"}, metricDef{"jobs.run_ms", "ms"}, metricDef{"jobs.chunk_retries", "count"},
		metricDef{"bench.transport_ms", "ms"}, metricDef{"bench.cpu_ms_per_op", "ms"})
	for _, m := range endToEnd {
		d = append(d, metricDef{"bench.trace_overhead." + m.name, m.unit})
	}
	return d
}()

var workloads = map[string]func(*env) (*outcome, error){
	"regen-cold": regenCold,
	"serve-zipf": serveZipf,
	"sweep-cold": sweepCold,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "regen-cold | serve-zipf | sweep-cold")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "nominal measuring time; scales the fixed op count")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	bin := fs.String("dabenchd", "", "dabenchd binary built from the tree under test")
	workdir := fs.String("workdir", ".bench_build/perfbench", "directory for scratch state and traces")
	probe := fs.String("setup-probe", "", "setupprobe binary built from the tree under test (regen-cold set-up)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload regen-cold|serve-zipf|sweep-cold, --seconds >= 1, --trace 0|1")
		return 2
	}
	p, err := loadParams()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stderr, "perfbench: %s seed %d seconds %d trace %d on %s\n", *workload, *seed, *seconds, *traceFlag, hostLine())

	runOnce := func(tr *tracer) (*outcome, error) {
		if err := os.MkdirAll(*workdir, 0o755); err != nil {
			return nil, err
		}
		work, err := os.MkdirTemp(*workdir, "run-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(work)
		return fn(&env{p: p, seed: *seed, seconds: *seconds, tr: tr, bin: *bin, probe: *probe, work: work, log: stderr})
	}

	base, err := runOnce(nil)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	e2e, err := endToEndMetrics(base)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printMetrics(stderr, "end-to-end (untraced)", endToEnd, e2e)
	attempted, failed := base.totals()
	mismatches := base.mismatches
	reported := e2e

	if *traceFlag == 1 {
		tr := newTracer()
		traced, err := runOnce(tr)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		te2e, err := endToEndMetrics(traced)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		printMetrics(stderr, "end-to-end (traced)", endToEnd, te2e)
		for _, m := range endToEnd {
			traced.layer["bench.trace_overhead."+m.name] = te2e[m.name].Value - e2e[m.name].Value
		}
		layer := map[string]metric{}
		for _, m := range perLayer {
			v, ok := traced.layer[m.name]
			if !ok {
				v = 0 // a layer this workload never reaches
			}
			layer[m.name] = metric{Value: v, Unit: m.unit}
		}
		printMetrics(stderr, "per-layer (traced)", perLayer, layer)
		path := filepath.Join(*workdir, "traces", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		err = os.MkdirAll(filepath.Dir(path), 0o755)
		if err == nil {
			err = writeTrace(path, tr.spans, stderr)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: write trace:", err)
			return 1
		}
		mismatches = append(mismatches, traced.mismatches...)
		ta, tf := traced.totals()
		attempted, failed = attempted+ta, failed+tf
		reported = layer
	}

	// Failed ops make latency percentiles +Inf once they reach them;
	// JSON has no number for that, and such a run is not correct.
	res := result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	res.Correct = len(mismatches) == 0
	for k, v := range reported {
		if math.IsInf(v.Value, 0) || math.IsNaN(v.Value) {
			res.Correct = false
			continue
		}
		res.Metrics[k] = v
	}
	for i, m := range mismatches {
		if i == 20 {
			fmt.Fprintf(stderr, "perfbench: ... and %d more mismatches\n", len(mismatches)-i)
			break
		}
		fmt.Fprintln(stderr, "perfbench: MISMATCH:", m)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndMetrics reduces an outcome to the six end-to-end metrics.
// Set-up is the median over set-ups. The rest count only the reps in
// which the host stole at most maxStolen of this machine's CPU, or,
// when fewer than two reps were that calm, the least-stolen quarter of
// them. On a shared host, stolen CPU, not the program, is what moves a
// closed loop's throughput and tail from one rep to the next. Every
// metric is the median of its per-rep values over the kept reps, so a
// rep the host disturbed more than the rest moves none of them; each
// rep has enough ops for its own p99.
func endToEndMetrics(o *outcome) (map[string]metric, error) {
	if len(o.setup) == 0 || len(o.reps) == 0 {
		return nil, errors.New("workload measured nothing")
	}
	kept := keptReps(o.reps)
	var p50, p99, tput, cpu, rss []float64
	for i, r := range o.reps {
		lat, err := report(r.lats)
		if err != nil {
			return nil, fmt.Errorf("rep %d: %w", i+1, err)
		}
		rt := float64(len(r.lats)-r.failed) / r.wall.Seconds()
		rc := float64(r.cpu.Nanoseconds()) / 1e6 / float64(len(r.lats))
		rm := float64(r.rss) / (1 << 20)
		if kept[i] {
			p50, p99 = append(p50, lat.P50), append(p99, lat.P99)
			tput, cpu, rss = append(tput, rt), append(cpu, rc), append(rss, rm)
		}
		fmt.Fprintf(os.Stderr, "  rep %d: p50 %.4g ms, p99 %.4g ms, %.4g ops/s, %.4g cpu ms/op, %.4g MB, %.1f%% of CPU stolen, kept %v\n",
			i+1, lat.P50, lat.P99, rt, rc, rm, 100*stolenShare(r), kept[i])
	}
	fmt.Fprintf(os.Stderr, "  medians of %d kept reps (of %d, %d ops each), %d set-ups\n", len(p50), len(o.reps), len(o.reps[0].lats), len(o.setup))
	return map[string]metric{
		"setup_s":       {median(o.setup), "s"},
		"p50_ms":        {median(p50), "ms"},
		"p99_ms":        {median(p99), "ms"},
		"ops_per_s":     {median(tput), "1/s"},
		"cpu_ms_per_op": {median(cpu), "ms"},
		"rss_peak_mb":   {median(rss), "MB"},
	}, nil
}

// maxStolen is the share of this machine's CPU the host may steal
// during a rep that counts.
const maxStolen = 0.02

// stolenShare is the share of this machine's CPU the host stole during
// a rep (steal is in clock ticks; USER_HZ is 100 on Linux).
func stolenShare(r rep) float64 {
	return float64(r.steal) / 100 / r.wall.Seconds() / float64(runtime.NumCPU())
}

// keptReps marks the reps that count: those with at most maxStolen of
// the CPU stolen, or the least-stolen quarter when fewer than two are.
func keptReps(reps []rep) []bool {
	kept := make([]bool, len(reps))
	n := 0
	for i, r := range reps {
		if stolenShare(r) <= maxStolen {
			kept[i] = true
			n++
		}
	}
	if n >= 2 {
		return kept
	}
	order := make([]int, len(reps))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(stolenShare(reps[a]), stolenShare(reps[b])) })
	kept = make([]bool, len(reps))
	for _, i := range order[:max(1, len(reps)/4)] {
		kept[i] = true
	}
	return kept
}

func printMetrics(w io.Writer, title string, defs []metricDef, m map[string]metric) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.name, m[d.name].Value, d.unit)
	}
}

// hostLine names the host a run measured on.
func hostLine() string {
	cpu := "unknown cpu"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc %d, %s, %s", runtime.NumCPU(), cpu, runtime.Version())
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
