// Package dabench is the public facade of the DABench-LLM
// reproduction: a standardized, in-depth benchmarking framework for
// dataflow AI accelerators running LLM training workloads, validated on
// calibrated simulators of the Cerebras WSE-2, SambaNova SN30 RDU and
// Graphcore Bow-2000 IPU (plus a GPU reference baseline).
//
// The framework operates on two tiers:
//
//   - Tier 1 (intra-chip): Profile compiles and runs one workload on
//     one chip, reporting resource allocation ratio (paper Eq. 1/2),
//     load imbalance (Eq. 3/4), utilization efficiency and the roofline
//     regime.
//   - Tier 2 (inter-chip): Scalability sweeps DP/TP/PP configurations;
//     Deployment sweeps batch size and precision and extracts
//     recommendations.
//
// Quick start:
//
//	prof, err := dabench.Profile(dabench.NewWSE(), dabench.TrainSpec{
//	    Model: dabench.GPT2Small(), Batch: 512, Seq: 1024,
//	    Precision: dabench.FP16,
//	})
//	fmt.Println(prof.Summary())
//
// Every table and figure of the paper's evaluation can be regenerated
// via Experiments / RunExperiment (see also bench_test.go and
// EXPERIMENTS.md). Everything runs in memory: the shared platforms
// memoize compiles for the life of the process and persist nothing,
// because recomputing an outcome costs less than reading it back.
package dabench

import (
	"context"

	"dabench/internal/core"
	"dabench/internal/experiments"
	"dabench/internal/gpu"
	"dabench/internal/ipu"
	"dabench/internal/model"
	"dabench/internal/platform"
	"dabench/internal/precision"
	"dabench/internal/rdu"
	"dabench/internal/scenario"
	"dabench/internal/sweep"
	"dabench/internal/wse"
)

// Re-exported core types.
type (
	// Platform is one accelerator backend (Compile + Run).
	Platform = platform.Platform
	// TrainSpec describes one training workload.
	TrainSpec = platform.TrainSpec
	// Parallelism selects the multi-chip deployment.
	Parallelism = platform.Parallelism
	// CompileReport is the compile-time allocation/memory report.
	CompileReport = platform.CompileReport
	// RunReport is the runtime throughput report.
	RunReport = platform.RunReport
	// ModelConfig describes a decoder-only transformer.
	ModelConfig = model.Config
	// Format is a numeric precision format.
	Format = precision.Format
	// Tier1Result is the intra-chip profile.
	Tier1Result = core.Tier1Result
	// ScalePoint is one Tier-2 scalability outcome.
	ScalePoint = core.ScalePoint
	// DeploymentReport is the Tier-2 deployment-optimization result.
	DeploymentReport = core.DeploymentReport
	// ExperimentResult is one reproduced table/figure.
	ExperimentResult = experiments.Result
	// CachedPlatform is a Platform with a memoized Compile (see Cached).
	CachedPlatform = platform.CachedPlatform
	// CacheStats is a compile-cache hit/miss snapshot.
	CacheStats = platform.CacheStats
)

// Precision formats (paper Table IV).
const (
	FP32  = precision.FP32
	FP16  = precision.FP16
	BF16  = precision.BF16
	CB16  = precision.CB16
	Mixed = precision.Mixed
)

// RDU compile modes (paper Figure 4).
const (
	ModeO0 = platform.ModeO0
	ModeO1 = platform.ModeO1
	ModeO3 = platform.ModeO3
)

// NewWSE returns the Cerebras WSE-2 simulator.
func NewWSE() Platform { return wse.New() }

// NewRDU returns the SambaNova SN30 RDU simulator.
func NewRDU() Platform { return rdu.New() }

// NewIPU returns the Graphcore Bow-2000 IPU simulator.
func NewIPU() Platform { return ipu.New() }

// NewGPU returns the A100-node reference baseline.
func NewGPU() Platform { return gpu.New() }

// Platforms returns the three dataflow platforms plus the GPU baseline.
func Platforms() []Platform {
	return []Platform{NewWSE(), NewRDU(), NewIPU(), NewGPU()}
}

// Model presets used in the paper's experiments.
var (
	GPTMini    = model.GPTMini
	GPTTiny    = model.GPTTiny
	GPT2Small  = model.GPT2Small
	GPT2Medium = model.GPT2Medium
	GPT2Large  = model.GPT2Large
	GPT2XL     = model.GPT2XL
	LLaMA2_7B  = model.LLaMA2_7B
	LLaMA2_13B = model.LLaMA2_13B
	LLaMA2_70B = model.LLaMA2_70B
)

// Profile runs the Tier-1 intra-chip analysis.
func Profile(p Platform, spec TrainSpec) (*Tier1Result, error) {
	return core.Profile(p, spec)
}

// Scalability runs the Tier-2 multi-chip analysis.
func Scalability(p Platform, base TrainSpec, configs []Parallelism, labels []string) ([]ScalePoint, error) {
	return core.Scalability(context.Background(), p, base, configs, labels)
}

// ScalabilityContext is Scalability with a cancellation/deadline
// context threaded into the sweep pool (the serving path uses it).
func ScalabilityContext(ctx context.Context, p Platform, base TrainSpec, configs []Parallelism, labels []string) ([]ScalePoint, error) {
	return core.Scalability(ctx, p, base, configs, labels)
}

// Deployment runs the Tier-2 deployment optimizer.
func Deployment(p Platform, base TrainSpec, batches []int, formats []Format) (*DeploymentReport, error) {
	return core.Deployment(context.Background(), p, base, batches, formats)
}

// DeploymentContext is Deployment with a cancellation/deadline context
// threaded into the sweep pool.
func DeploymentContext(ctx context.Context, p Platform, base TrainSpec, batches []int, formats []Format) (*DeploymentReport, error) {
	return core.Deployment(ctx, p, base, batches, formats)
}

// ExperimentIDs lists the reproducible paper artifacts in paper order.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one paper table/figure by ID (e.g.
// "table1", "figure9").
func RunExperiment(id string) (*ExperimentResult, error) {
	return RunExperimentContext(context.Background(), id)
}

// RunExperimentContext is RunExperiment with a cancellation/deadline
// context threaded into every sweep the runner fans out — the dabenchd
// server's per-request timeouts ride on this.
func RunExperimentContext(ctx context.Context, id string) (*ExperimentResult, error) {
	r, ok := experiments.All()[id]
	if !ok {
		return nil, &platform.CompileError{Platform: "dabench", Reason: "unknown experiment " + id}
	}
	return r(ctx)
}

// Scenario engine re-exports: declarative multi-platform studies over
// the same cached pipeline (see internal/scenario).
type (
	// Scenario is one declarative multi-platform study (versioned
	// JSON document).
	Scenario = scenario.Scenario
	// ScenarioOutcome is one executed scenario: its comparison tables
	// plus failure counts, renderable via Render.
	ScenarioOutcome = scenario.Outcome
)

// ScenarioLibrary returns the built-in scenarios reproducing the
// paper's cross-platform comparisons, in stable order.
func ScenarioLibrary() []*Scenario { return scenario.Library() }

// ParseScenario strictly decodes and validates a scenario document.
func ParseScenario(data []byte) (*Scenario, error) { return scenario.Parse(data) }

// RunScenario executes a scenario on the shared cached platforms; the
// context bounds every sweep it fans out.
func RunScenario(ctx context.Context, sc *Scenario) (*ScenarioOutcome, error) {
	return scenario.Run(ctx, sc, scenario.RunOptions{})
}

// IsCompileFailure reports whether err is a placement failure (the
// paper's "Fail" table entries) rather than invalid input.
func IsCompileFailure(err error) bool { return platform.IsCompileFailure(err) }

// Cached wraps a platform with the concurrency-safe compile memoizer:
// identical TrainSpecs (by TrainSpec.Key) compile once, concurrent
// duplicate compiles are deduplicated in flight, and hit/miss counters
// are exposed via CacheStats. The simulators are deterministic and
// stateless, so cached reports are indistinguishable from fresh ones.
func Cached(p Platform) CachedPlatform { return platform.Cached(p) }

// SetSweepWorkers sets the process-wide sweep pool size used by the
// Tier-2 analyses and experiment runners (the CLI's -parallel flag).
// n = 1 forces the serial path; n <= 0 restores the automatic default
// of runtime.GOMAXPROCS(0); n > sweep.MaxWorkers (4096) is clamped —
// the pool is CPU-bound, so huge values buy goroutines, not speed.
func SetSweepWorkers(n int) { sweep.SetDefaultWorkers(n) }

// SweepWorkers returns the effective sweep pool size.
func SweepWorkers() int { return sweep.DefaultWorkers() }

// ResetExperimentCaches drops both memoization tiers the experiment
// runners share — the graph build cache and the per-platform compile
// caches — so benchmarks can measure cold-cache runs.
func ResetExperimentCaches() { experiments.ResetCaches() }

// ExperimentCacheStats aggregates the experiment runners' shared
// compile-cache counters.
func ExperimentCacheStats() CacheStats { return experiments.CacheStats() }

// ExperimentRunCacheStats returns zero counters: Run is not memoized,
// so there is no run-report cache to count.
//
// Deprecated: Run recomputes on every call; read ExperimentCacheStats
// for the compile tier.
func ExperimentRunCacheStats() CacheStats { return CacheStats{} }

// ExperimentGraphCacheStats reports the shared graph build cache's
// counters (the memoization tier below every compile cache).
func ExperimentGraphCacheStats() CacheStats { return experiments.GraphCacheStats() }
