package main

import (
	"cmp"
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"

	"dabench/internal/experiments"
	"dabench/internal/model"
	"dabench/internal/platform"
	"dabench/internal/precision"
	"dabench/internal/store"
)

// params.json fixes every parameter of every workload; the harness
// scales only the op count with --seconds.
//
//go:embed params.json
var paramsJSON []byte

// grid is the shape of one sweep-cold op: fixed layer counts, and how
// many batch sizes and precisions the seed draws.
type grid struct {
	Layers     []int `json:"layers"`
	Batches    int   `json:"batches"`
	Precisions int   `json:"precisions"`
}

func (g grid) points() int { return len(g.Layers) * g.Batches * g.Precisions }

type universe struct {
	Platforms  []string `json:"platforms"`
	Models     []string `json:"models"`
	Layers     []int    `json:"layers"`
	Batches    []int    `json:"batches"`
	Precisions []string `json:"precisions"`
}

// stratum is how many universe specs share a platform, model and
// depth: the batch × precision block, adjacent in universe order.
func (u universe) stratum() int { return len(u.Batches) * len(u.Precisions) }

type params struct {
	RegenCold struct {
		PassesPerSecond float64 `json:"passes_per_second"`
		RepPasses       int     `json:"rep_passes"`
		SetupRepeats    int     `json:"setup_repeats"`
		GraphSamples    int     `json:"graph_samples"`
	} `json:"regen_cold"`
	ServeZipf struct {
		Nodes            int      `json:"nodes"`
		Connections      int      `json:"connections"`
		RepOps           int      `json:"rep_ops"`
		OpsPerSecond     float64  `json:"ops_per_second"`
		ZipfSkew         float64  `json:"zipf_skew"`
		RespelledShare   float64  `json:"respelled_share"`
		ConditionalShare float64  `json:"conditional_share"`
		PopulateShare    float64  `json:"populate_share"`
		SetupRepeats     int      `json:"setup_repeats"`
		Universe         universe `json:"universe"`
		FetchSamples     int      `json:"fetch_samples"`
		OpenRepeats      int      `json:"open_repeats"`
		WriteSamples     int      `json:"write_samples"`
		GraphSamples     int      `json:"graph_samples"`
	} `json:"serve_zipf"`
	SweepCold sweepCfg `json:"sweep_cold"`
}

// sweepCfg fixes sweep-cold's work.
type sweepCfg struct {
	Connections        int      `json:"connections"`
	RepOps             int      `json:"rep_ops"`
	OpsPerSecond       float64  `json:"ops_per_second"`
	JobEvery           int      `json:"job_every"`
	LargeJobEvery      int      `json:"large_job_every"`
	PollIntervalMs     float64  `json:"poll_interval_ms"`
	SweepGrid          grid     `json:"sweep_grid"`
	JobGrid            grid     `json:"job_grid"`
	LargeJobGrid       grid     `json:"large_job_grid"`
	Platforms          []string `json:"platforms"`
	Models             []string `json:"models"`
	MaxBatch           int      `json:"max_batch"`
	Precisions         []string `json:"precisions"`
	VerifySweepSamples int      `json:"verify_sweep_samples"`
	VerifyJobSamples   int      `json:"verify_job_samples"`
	SetupRepeats       int      `json:"setup_repeats"`
	WriteSamples       int      `json:"write_samples"`
	GraphSamples       int      `json:"graph_samples"`
}

func loadParams() (*params, error) {
	var p params
	if err := json.Unmarshal(paramsJSON, &p); err != nil {
		return nil, fmt.Errorf("params.json: %w", err)
	}
	if p.ServeZipf.ZipfSkew <= 1 {
		return nil, fmt.Errorf("params.json: zipf_skew %v must exceed 1", p.ServeZipf.ZipfSkew)
	}
	return &p, nil
}

// runReq is one point of a workload in the daemon's /v1/run wire form.
// Zero fields take the daemon's defaults (batch 512, seq 1024, FP16).
type runReq struct {
	Platform  string
	Mode      string
	Model     string
	Layers    int
	Batch     int
	Seq       int
	Precision string
	TP        int
}

// parsePlatform splits a "rdu/O1"-style universe entry.
func parsePlatform(s string) (name, mode string) {
	name, mode, _ = strings.Cut(s, "/")
	return name, mode
}

// spec resolves the request the way the daemon does, for the harness's
// direct in-process calls (bare compiles, store writes).
func (r runReq) spec() (platform.TrainSpec, error) {
	var spec platform.TrainSpec
	cfg, ok := model.ByName(r.Model)
	if !ok {
		return spec, fmt.Errorf("unknown model %q", r.Model)
	}
	if r.Layers > 0 {
		cfg = cfg.WithLayers(r.Layers)
	}
	spec = platform.TrainSpec{Model: cfg, Batch: cmp.Or(r.Batch, 512), Seq: cmp.Or(r.Seq, 1024)}
	f, err := precision.Parse(cmp.Or(r.Precision, "FP16"))
	if err != nil {
		return spec, err
	}
	spec.Precision = f
	mode, err := platform.ParseMode(r.Mode)
	if err != nil {
		return spec, err
	}
	spec.Par = platform.Parallelism{Mode: mode, TensorParallel: r.TP}
	return spec, spec.Validate()
}

// address is the point's content address in the daemons' stores (and,
// quoted, its /v1/run ETag).
func (r runReq) address() (string, error) {
	p, ok := experiments.SharedPlatform(r.Platform)
	if !ok {
		return "", fmt.Errorf("unknown platform %q", r.Platform)
	}
	spec, err := r.spec()
	if err != nil {
		return "", err
	}
	return store.Address(p.Name(), spec.Key()), nil
}
