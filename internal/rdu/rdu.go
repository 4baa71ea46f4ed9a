package rdu

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"dabench/internal/metrics"
	"dabench/internal/platform"
	"dabench/internal/units"
)

// Sim is the SN30 RDU simulator. The zero value is ready to use.
type Sim struct{}

// New returns an RDU simulator.
func New() *Sim { return &Sim{} }

// Name implements platform.Platform.
func (*Sim) Name() string { return "RDU" }

// HardwareSpec implements platform.Platform.
func (*Sim) HardwareSpec() platform.Spec {
	return platform.Spec{
		Name: "SambaNova SN30 RDU",
		Resources: map[platform.Resource]float64{
			platform.ResPCU: PCUs,
			platform.ResPMU: PMUs,
		},
		Peak16:       Peak16,
		OnChipMemory: PCUs * PMUBytes,
		OnChipBW:     0, // not published; the paper models only the DDR tier
		GlobalMemory: DDRBytes,
		GlobalBW:     DDRBW,
	}
}

// Compile implements platform.Platform: partition the training graph
// into sections per the selected compile mode.
func (s *Sim) Compile(spec platform.TrainSpec) (*platform.CompileReport, error) {
	mode, tp, err := resolve(spec)
	if err != nil {
		return nil, err
	}
	var secs []section
	switch mode {
	case platform.ModeO0:
		secs, err = buildO0(spec)
	case platform.ModeO1:
		secs, err = buildO1(spec)
	default:
		secs, err = buildO3(spec)
	}
	if err != nil {
		return nil, err
	}
	return s.report(spec, mode, tp, secs)
}

// resolve validates the spec for the RDU and returns its effective
// compile mode and tensor-parallel degree.
func resolve(spec platform.TrainSpec) (platform.CompileMode, int, error) {
	if err := spec.Validate(); err != nil {
		return 0, 0, err
	}
	if spec.Par.DataParallel > 1 {
		return 0, 0, fmt.Errorf("rdu: data parallelism is not modeled on SN30 (the paper scales via TP)")
	}
	if spec.Par.PipelineParallel > 1 {
		return 0, 0, fmt.Errorf("rdu: pipeline parallelism is not modeled on SN30")
	}
	tp := spec.Par.TensorParallel
	if tp < 1 {
		tp = 1
	}
	mode := spec.Par.Mode
	switch mode {
	case platform.ModeDefault:
		mode = platform.ModeO1
	case platform.ModeO0, platform.ModeO1, platform.ModeO3:
	default:
		return 0, 0, fmt.Errorf("rdu: unknown compile mode %v", mode)
	}
	return mode, tp, nil
}

// report turns a mode's section list into the compile report: the DDR
// capacity check, per-section timing under TP, and the Eq. 2 weighted
// allocation.
func (s *Sim) report(spec platform.TrainSpec, mode platform.CompileMode, tp int, secs []section) (*platform.CompileReport, error) {
	// DDR capacity check: weights + gradients + optimizer state.
	p := float64(spec.Model.Params())
	statePerChip := p * (2 + 2 + 8 + spec.Precision.MasterWeightBytes()) / float64(tp)
	if statePerChip > DDRBytes {
		return nil, &platform.CompileError{
			Platform: s.Name(),
			Reason: fmt.Sprintf("model state %s exceeds DDR capacity %s at TP=%d — increase tensor parallelism",
				units.Bytes(statePerChip), units.Bytes(float64(DDRBytes)), tp),
		}
	}

	// Tensor parallelism shards each section's work; crossing the
	// machine boundary (TP>2) costs allocation (Figure 11b).
	pcuDrop, pmuDrop := 1.0, 1.0
	if tp > ChipsPerNode {
		pcuDrop, pmuDrop = tpCrossPCUDrop, tpCrossPMUDrop
	}

	// Tasks are listed by section name, equal names in build order. The
	// stable sort permutes indices rather than moving the sections.
	order := make([]int, len(secs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return strings.Compare(secs[a].name, secs[b].name) })

	overhead := switchOverhead(mode)
	tasks := make([]platform.Task, 0, len(secs))
	for _, k := range order {
		sec := &secs[k]
		pcu := sec.pcus * pcuDrop
		pmu := sec.pmus * pmuDrop
		t := sectionTime(sec, pcu, spec, tp) + overhead
		thr := 0.0
		if t > 0 {
			thr = 1 / t
		}
		tasks = append(tasks, platform.Task{
			Name: sec.name, Kind: "section",
			Units:       platform.Units{PCU: pcu, PMU: pmu},
			Throughput:  thr,
			Runtime:     units.Seconds(t),
			Invocations: sec.invocations,
			FLOPs:       units.FLOPs(sec.flops / float64(tp)),
			Traffic:     units.Bytes(sec.ddrBytes / float64(tp)),
			Ops:         sec.ops,
		})
	}

	// Chip-level allocation is the time-weighted average over sections
	// (paper Eq. 2); store the weighted means as the allocation row.
	wPCU, wPMU := weightedAlloc(tasks)
	notes := []string{
		fmt.Sprintf("mode=%s sections=%d tp=%d", mode, len(secs), tp),
	}
	if sh := countShards(secs); sh > 0 {
		notes = append(notes, fmt.Sprintf("lm-head shard sections=%d", sh))
	}

	return &platform.CompileReport{
		Platform: s.Name(),
		Spec:     spec,
		Tasks:    tasks,
		Allocated: map[platform.Resource]float64{
			platform.ResPCU: wPCU * PCUs,
			platform.ResPMU: wPMU * PMUs,
		},
		Capacity: map[platform.Resource]float64{
			platform.ResPCU: PCUs,
			platform.ResPMU: PMUs,
		},
		Memory: platform.MemoryUse{
			Capacity: DDRBytes,
			Weights:  units.Bytes(statePerChip),
			Activations: spec.Model.ActivationBytesPerToken(spec.Seq, spec.Precision) *
				units.Bytes(spec.Tokens()/float64(tp)),
		},
		Notes: notes,
	}, nil
}

// switchOverhead is the per-invocation fabric reconfiguration cost.
func switchOverhead(mode platform.CompileMode) float64 {
	switch mode {
	case platform.ModeO0:
		return o0SwitchSec
	case platform.ModeO3:
		return o3SwitchSec
	default:
		return o1SwitchSec
	}
}

// sectionTime is one invocation's wall time (excluding switch
// overhead): the max of compute time and DDR streaming time.
func sectionTime(sec *section, pcus float64, spec platform.TrainSpec, tp int) float64 {
	if pcus <= 0 {
		return math.Inf(1)
	}
	comp := (sec.flops / float64(tp)) / (pcus * ratePerPCU * sectionEff)
	mem := (sec.ddrBytes / float64(tp)) / DDRBW
	if sec.kind == "shard" {
		comp /= headShardEffDiscount
	}
	if sec.kind == "matmul" {
		comp /= o1ModuleEffDiscount
	}
	// The precision factor applies to the whole streaming pipeline:
	// mixed precision accelerates the datapath and halves optimizer
	// DDR traffic; FP32 doubles both (Table IV).
	return math.Max(comp, mem) / precFactor(spec.Precision)
}

// weightedAlloc computes the Eq. 2 time-weighted PCU and PMU
// allocation ratios over the section schedule. Merged-mode matmul
// sections overlap across invocations (sub-linear growth), which is
// why O0/O1 allocation drifts down slightly with depth (Figure 7a).
func weightedAlloc(tasks []platform.Task) (pcu, pmu float64) {
	var num1, num2, den float64
	for _, t := range tasks {
		w := float64(t.Runtime) * effInvocations(t)
		num1 += w * t.Units.PCU / PCUs
		num2 += w * t.Units.PMU / PMUs
		den += w
	}
	if den == 0 {
		return 0, 0
	}
	return num1 / den, num2 / den
}

// effInvocations applies the merged-mode overlap exponent.
func effInvocations(t platform.Task) float64 {
	inv := float64(t.Invocations)
	if inv <= 1 {
		return 1
	}
	return math.Pow(inv, o0MatmulInvOverlapExp)
}

// Run implements platform.Platform.
func (s *Sim) Run(cr *platform.CompileReport) (*platform.RunReport, error) {
	if cr == nil || cr.Platform != s.Name() {
		return nil, fmt.Errorf("rdu: run requires an RDU compile report")
	}
	spec := cr.Spec
	tp := spec.Par.TensorParallel
	if tp < 1 {
		tp = 1
	}

	// Sections execute sequentially: step time is the invocation-
	// weighted sum, plus the fixed host orchestration cost (whose
	// amortization makes TFLOPs rise with depth, Figure 9b).
	var stepTime, traffic float64
	for _, t := range cr.Tasks {
		stepTime += float64(t.Runtime) * effInvocations(t)
		traffic += float64(t.Traffic) * float64(t.Invocations)
	}
	if stepTime <= 0 {
		return nil, fmt.Errorf("rdu: degenerate section schedule")
	}
	stepTime += hostOverheadSec

	// Batch amortization (Figure 12b): a fixed fraction of the step is
	// batch-independent orchestration.
	refBatch := 4.0
	overhead := stepTime * batchOverheadFrac * refBatch / math.Max(float64(spec.Batch), 1)
	stepTime = stepTime*(1-batchOverheadFrac) + overhead

	// Cross-machine TP serializes ring traffic on the slow link
	// (Table III's 1540 → 945 tokens/s collapse from TP2 to TP4).
	comm := 1.0
	if tp == 2 {
		comm = tpIntraFactor
	} else if tp > 2 {
		comm = tpIntraFactor / (1 + tpCrossKappa*float64(tp-2))
	}
	stepTime /= comm

	tokensPerSec := spec.Tokens() / stepTime
	flopsPerStep := float64(spec.Model.TrainFLOPs(spec.Batch, spec.Seq))
	achieved := units.FLOPSRate(flopsPerStep / stepTime / float64(tp))

	// DDR-tier arithmetic intensity from the compiled schedule
	// (Figure 10b): per-chip FLOPs over per-chip DDR traffic.
	ai := 0.0
	if traffic > 0 {
		ai = flopsPerStep / float64(tp) / traffic
	}

	return &platform.RunReport{
		Compile:       cr,
		StepTime:      units.Seconds(stepTime),
		TokensPerSec:  tokensPerSec,
		SamplesPerSec: tokensPerSec / float64(spec.Seq),
		Achieved:      achieved,
		Efficiency:    float64(achieved) / Peak16,
		AI:            ai,
	}, nil
}

// LoadImbalance computes the paper's operator-level LI for a compiled
// workload: Eq. 3 within each section, Eq. 4 time-weighted across
// sections. For O3, sections themselves are the operator-granularity
// tasks (one decoder per section), so LI is computed across sections.
func (s *Sim) LoadImbalance(cr *platform.CompileReport) (float64, error) {
	if cr == nil || cr.Platform != s.Name() {
		return 0, fmt.Errorf("rdu: LI requires an RDU compile report")
	}
	if cr.Spec.Par.Mode == platform.ModeO3 {
		// O3: one decoder per section, so cross-section imbalance is
		// the operator-granularity signal; IO sections are excluded as
		// in the paper's decoder-focused analysis.
		tasks := make([]metrics.TaskSample, 0, len(cr.Tasks))
		for _, t := range cr.Tasks {
			if t.Kind != "section" || len(t.Ops) == 0 ||
				!strings.HasPrefix(t.Name, "decoder.") {
				continue
			}
			if t.Ops[0].Throughput <= 0 {
				continue
			}
			tasks = append(tasks, metrics.TaskSample{
				Name:       t.Name,
				Resources:  t.Units.PCU,
				Throughput: t.Ops[0].Throughput,
			})
		}
		return metrics.LoadImbalance(tasks)
	}
	var rows []metrics.WeightedLI
	for _, t := range cr.Tasks {
		ops := measurable(t.Ops)
		if len(ops) == 0 {
			continue
		}
		li, err := metrics.LoadImbalance(ops)
		if err != nil {
			return 0, err
		}
		rows = append(rows, metrics.WeightedLI{
			Name:    t.Name,
			Runtime: units.Seconds(float64(t.Runtime) * effInvocations(t)),
			LI:      li,
		})
	}
	return metrics.TimeWeightedLI(rows)
}

// measurable drops the operator rows Eq. 3 cannot weigh: those
// without a positive, finite throughput. It returns ops itself, not a
// copy, when every row is measurable.
func measurable(ops []metrics.TaskSample) []metrics.TaskSample {
	if !slices.ContainsFunc(ops, unmeasurable) {
		return ops
	}
	return slices.DeleteFunc(slices.Clone(ops), unmeasurable)
}

func unmeasurable(o metrics.TaskSample) bool {
	return o.Throughput <= 0 || math.IsInf(o.Throughput, 1)
}

func countShards(secs []section) int {
	n := 0
	for _, s := range secs {
		if s.kind == "shard" {
			n++
		}
	}
	return n
}
