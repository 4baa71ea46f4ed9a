// Package core implements the DABench-LLM framework itself — the
// paper's primary contribution. Tier 1 profiles a single chip running
// an LLM workload (resource allocation ratio, load balance, resource
// utilization efficiency, roofline placement); Tier 2 studies
// inter-chip scalability (DP/TP/PP) and deployment optimization (batch
// size, precision). Both tiers operate through the vendor-neutral
// platform.Platform interface, so any backend — the four simulators
// here or a future real-hardware binding — gets the same analysis with
// no framework changes.
package core

import (
	"fmt"
	"sort"
	"strings"

	"dabench/internal/metrics"
	"dabench/internal/platform"
	"dabench/internal/roofline"
	"dabench/internal/units"
)

// imbalancer is implemented by platforms with a native operator-level
// LI computation (the RDU's section/operator hierarchy).
type imbalancer interface {
	LoadImbalance(*platform.CompileReport) (float64, error)
}

// Tier1Result is the intra-chip profile of one workload.
type Tier1Result struct {
	Platform string
	Spec     platform.TrainSpec
	Compile  *platform.CompileReport
	Run      *platform.RunReport

	// Allocation is the Eq.1/Eq.2 ratio per resource class.
	Allocation map[platform.Resource]float64
	// LI is the Eq.3/Eq.4 load-imbalance metric at the platform's
	// native task granularity (kernel for WSE, operator for RDU,
	// stage for IPU).
	LI float64
	// Regime is the roofline classification at the global tier.
	Regime roofline.Regime
	// RooflineBound is the attainable rate at the workload's AI.
	RooflineBound units.FLOPSRate
	// Insights are the framework's human-readable findings.
	Insights []string
}

// Profile runs the full Tier-1 analysis for one workload.
func Profile(p platform.Platform, spec platform.TrainSpec) (*Tier1Result, error) {
	cr, err := p.Compile(spec)
	if err != nil {
		return nil, err
	}
	rr, err := p.Run(cr)
	if err != nil {
		return nil, err
	}

	res := &Tier1Result{
		Platform:   p.Name(),
		Spec:       spec,
		Compile:    cr,
		Run:        rr,
		Allocation: map[platform.Resource]float64{},
	}
	for r := range cr.Capacity {
		res.Allocation[r] = cr.AllocationRatio(r)
	}

	res.LI, err = loadImbalance(p, cr)
	if err != nil {
		return nil, fmt.Errorf("core: load imbalance: %w", err)
	}

	hw := p.HardwareSpec()
	if hw.GlobalBW > 0 {
		m := roofline.Model{Name: p.Name(), Peak: hw.Peak16, BW: hw.GlobalBW}
		res.Regime = m.Classify(rr.AI)
		res.RooflineBound = m.Attainable(rr.AI)
	}

	res.Insights = insights(res, hw)
	return res, nil
}

// loadImbalance computes LI at the platform's native granularity.
func loadImbalance(p platform.Platform, cr *platform.CompileReport) (float64, error) {
	if im, ok := p.(imbalancer); ok {
		return im.LoadImbalance(cr)
	}
	var tasks []metrics.TaskSample
	for _, t := range cr.Tasks {
		if t.Kind != "kernel" && t.Kind != "stage" {
			continue
		}
		if t.Throughput <= 0 {
			continue
		}
		tasks = append(tasks, metrics.TaskSample{
			Name: t.Name, Resources: t.Units.Sum(), Throughput: t.Throughput,
		})
	}
	if len(tasks) == 0 {
		return 1, nil
	}
	return metrics.LoadImbalance(tasks)
}

// insights distills the paper-style findings from a profile.
func insights(r *Tier1Result, hw platform.Spec) []string {
	var out []string
	for _, res := range sortedResources(r.Allocation) {
		ratio := r.Allocation[res]
		switch {
		case ratio < 0.4:
			out = append(out, fmt.Sprintf("%s allocation at %.0f%% leaves most of the chip idle — the allocation ratio, not execution, bounds efficiency", res, 100*ratio))
		case ratio > 0.85:
			out = append(out, fmt.Sprintf("%s allocation saturated at %.0f%% — further gains must come from kernel-level efficiency", res, 100*ratio))
		}
	}
	if r.LI < 0.7 {
		out = append(out, fmt.Sprintf("load imbalance LI=%.2f: the slowest task throttles the pipeline; rebalance the partitioning", r.LI))
	}
	if r.Regime == roofline.MemoryBound {
		out = append(out, fmt.Sprintf("memory-bound at AI=%.0f FLOPs/B (%s global tier) — bandwidth, not compute, is the wall", r.Run.AI, hw.GlobalBW))
	} else {
		out = append(out, fmt.Sprintf("compute-bound at AI=%.1f FLOPs/B — the %s memory system keeps the datapath fed", r.Run.AI, hw.GlobalBW))
	}
	if mem := r.Compile.Memory; mem.Capacity > 0 {
		frac := float64(mem.Used()) / float64(mem.Capacity)
		if frac > 0.85 {
			out = append(out, fmt.Sprintf("on-chip memory %.0f%% full (config %s) — near the capacity wall", 100*frac, mem.Config))
		}
	}
	out = append(out, fmt.Sprintf("achieved %.1f TFLOPs = %.1f%% of peak", r.Run.Achieved.TFLOPS(), 100*r.Run.Efficiency))
	return out
}

func sortedResources(m map[platform.Resource]float64) []platform.Resource {
	out := make([]platform.Resource, 0, len(m))
	for r := range m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Summary renders a one-paragraph profile description.
func (r *Tier1Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s B=%d S=%d %s: ", r.Platform, r.Spec.Model.Name,
		r.Spec.Batch, r.Spec.Seq, r.Spec.Precision)
	for _, res := range sortedResources(r.Allocation) {
		fmt.Fprintf(&b, "%s=%.0f%% ", res, 100*r.Allocation[res])
	}
	fmt.Fprintf(&b, "LI=%.2f %.1fTF (%.0f%% peak, %s) %.1f tok/s",
		r.LI, r.Run.Achieved.TFLOPS(), 100*r.Run.Efficiency, r.Regime, r.Run.TokensPerSec)
	return b.String()
}
