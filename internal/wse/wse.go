package wse

import (
	"fmt"
	"math"
	"sync"

	"dabench/internal/graph"
	"dabench/internal/model"
	"dabench/internal/platform"
	"dabench/internal/units"
)

// Sim is the WSE-2 simulator. The zero value is ready to use.
type Sim struct{}

// New returns a WSE-2 simulator.
func New() *Sim { return &Sim{} }

// Name implements platform.Platform.
func (*Sim) Name() string { return "WSE-2" }

// HardwareSpec implements platform.Platform.
func (*Sim) HardwareSpec() platform.Spec {
	return platform.Spec{
		Name:         "Cerebras WSE-2",
		Resources:    map[platform.Resource]float64{platform.ResPE: TotalPEs},
		Peak16:       Peak16,
		OnChipMemory: MemBytes,
		OnChipBW:     OnChipBW,
		// The WSE uses its unified on-chip memory as both the shared
		// and global tiers (paper Section V-C2).
		GlobalMemory: MemBytes,
		GlobalBW:     OnChipBW,
	}
}

// kernel is one placed layer-granularity kernel.
type kernel struct {
	name string
	// attention marks per-layer attention kernels (Figure 6 tracks
	// their individual allocation).
	attention bool
	decoder   bool // belongs to a decoder layer (variable region)
	// workPerToken is the kernel's training FLOPs per token.
	workPerToken float64
	// ioBytesPerToken is vocabulary-table traffic per token for
	// gather kernels (embedding); zero elsewhere.
	ioBytesPerToken float64
	// demandBoost multiplies the work-based demand (vocabulary
	// scatter fan-out of the LM head kernel).
	demandBoost float64
	pes         float64
}

// buildKernels lowers the model to the WSE kernel set: one attention
// kernel and one feed-forward kernel per decoder layer, plus embedding
// and a head kernel (final norm + LM head + loss).
func buildKernels(cfg model.Config, seq int) []kernel {
	h := float64(cfg.HiddenSize)
	f := float64(cfg.FFNHidden)
	v := float64(cfg.VocabSize)
	s := float64(seq)
	heads := float64(cfg.NumHeads)
	kvFrac := float64(cfg.KVHeads) / float64(cfg.NumHeads)

	qkvParams := h*h + 2*h*h*kvFrac
	upParams := h * f
	if cfg.Activation == model.SwiGLU {
		upParams = 2 * h * f
	}

	// Training FLOPs per token = 3 × forward (paper's 6P convention).
	attnWork := 3 * (2*(qkvParams+h*h) + 4*s*h + 5*s*heads + 10*h + 2*h)
	ffnWork := 3 * (2*(upParams+f*h) + 8*f + 5*h + h)
	embedWork := 3 * (2*h + 2*h)
	headWork := 3 * (2*h*v + 5*v + 5*h)

	ks := make([]kernel, 0, 2*cfg.NumLayers+2)
	embedIO := (2*h + 4) * math.Pow(h/768.0, 0.8)
	ks = append(ks, kernel{name: "embedding", workPerToken: embedWork, ioBytesPerToken: embedIO})
	for l := 0; l < cfg.NumLayers; l++ {
		prefix := graph.LayerPrefix(l)
		ks = append(ks,
			kernel{name: prefix + "attention", attention: true, decoder: true, workPerToken: attnWork},
			kernel{name: prefix + "ffn", decoder: true, workPerToken: ffnWork},
		)
	}
	// The head's scatter fan-out shrinks rapidly for narrower models
	// (its vocabulary projection tiles on fewer PE columns), which is
	// what lets the paper run 8 replicas of the tiny model (Table III).
	headBoost := headDemandBoost * math.Pow(h/768.0, 3.0)
	ks = append(ks, kernel{name: "head", workPerToken: headWork, demandBoost: headBoost})
	return ks
}

// refWork is the reference attention kernel's work (GPT-2 HS 768,
// S 1024), the unit of the allocation curve. The reference kernel set
// is a constant of the model, so it is lowered once per process
// (Compile used to rebuild the full GPT-2 set on every call).
var refWork = sync.OnceValue(func() float64 {
	ref := buildKernels(model.GPT2Small(), 1024)
	for _, k := range ref {
		if k.attention {
			return k.workPerToken
		}
	}
	panic("wse: reference kernel set has no attention kernel")
})

// demand returns the optimal (unconstrained) PE allocation for a
// kernel: work-proportional with diminishing returns, overridden by
// table-access demand for gather/scatter kernels, under hard caps.
func demand(k kernel, ref float64) float64 {
	u := refKernelPEs * math.Pow(k.workPerToken/ref, kernelScaleExp)
	if k.demandBoost > 0 {
		u *= k.demandBoost
	}
	if io := ioDemandPEsPerByte * k.ioBytesPerToken; io > u {
		u = io
	}
	return units.Clamp(u, minKernelPEs, maxKernelPEs)
}

// usableFrac returns the placeable fraction of the wafer for an
// L-layer graph (placement fragmentation shrinks with kernel count).
func usableFrac(layers int) float64 {
	if layers < 1 {
		layers = 1
	}
	return units.Clamp(usableMax-fragPerLayer/float64(layers), usableMin, usableMax)
}

// jitter returns the deterministic placement-quantization factor for
// kernel index i, in [1-allocJitter, 1+allocJitter].
func jitter(i int) float64 {
	// Small multiplicative hash → uniform-ish in [0,1).
	x := math.Mod(float64(i)*0.6180339887498949+0.137, 1.0)
	return 1 + allocJitter*(2*x-1)
}

// configBytes models compiler configuration memory (kernel code,
// routing tables) for an L-layer, hidden-size-H graph.
func configBytes(layers, hidden int) units.Bytes {
	l := float64(layers)
	scale := math.Max(float64(hidden)/cfgRefHS, cfgScaleLo)
	gb := (cfgBaseGB + cfgLinGB*l + cfgQuadGB*l*l) * scale
	return units.Bytes(gb * 1e9)
}

// Compile implements platform.Platform.
func (s *Sim) Compile(spec platform.TrainSpec) (*platform.CompileReport, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Par.TensorParallel > 1 {
		return nil, fmt.Errorf("wse: tensor parallelism is not supported on WSE-2")
	}
	if spec.Par.PipelineParallel > 1 {
		return nil, fmt.Errorf("wse: pipeline parallelism requires CS-3 root access (paper Section VI-A1)")
	}
	replicas := spec.Par.DataParallel
	if replicas < 1 {
		replicas = 1
	}

	cfg := spec.Model
	kernels := buildKernels(cfg, spec.Seq)
	ref := refWork()

	// Per-replica PE budget (compute + transmission).
	usable := usableFrac(cfg.NumLayers) * TotalPEs
	budget := usable / float64(replicas)

	// Optimal demands.
	var fixedDemand, varDemand float64
	for i := range kernels {
		kernels[i].pes = demand(kernels[i], ref) * jitter(i)
		if kernels[i].decoder {
			varDemand += kernels[i].pes
		} else {
			fixedDemand += kernels[i].pes
		}
	}

	notes := []string{fmt.Sprintf("kernels=%d replicas=%d", len(kernels), replicas)}

	// Elastic shrink-to-fit: decoder kernels scale down first; if the
	// fixed kernels alone exceed the budget, everything scales.
	computeBudget := budget / (1 + txFraction)
	if fixedDemand+varDemand > computeBudget {
		if varDemand > 0 && fixedDemand < computeBudget {
			scale := (computeBudget - fixedDemand) / varDemand
			for i := range kernels {
				if kernels[i].decoder {
					kernels[i].pes = math.Max(kernels[i].pes*scale, minKernelPEs)
				}
			}
			notes = append(notes, fmt.Sprintf("elastic shrink: decoder kernels scaled to %.2f of optimum", scale))
		} else {
			scale := computeBudget / (fixedDemand + varDemand)
			for i := range kernels {
				kernels[i].pes = math.Max(kernels[i].pes*scale, minKernelPEs)
			}
			notes = append(notes, fmt.Sprintf("global shrink: all kernels scaled to %.2f of optimum", scale))
		}
	}

	var computePEs float64
	for _, k := range kernels {
		computePEs += k.pes
	}
	if computePEs*(1+txFraction) > budget*1.02 {
		return nil, &platform.CompileError{
			Platform: s.Name(),
			Reason: fmt.Sprintf("kernel floor demand %.0f PEs exceeds per-replica budget %.0f",
				computePEs*(1+txFraction), budget),
		}
	}
	txPEs := computePEs * txFraction

	// Memory map. Weights, optimizer state and configuration must be
	// resident; activations adapt to whatever remains (the data-driven
	// pipeline keeps only in-flight samples on chip, so a shrinking
	// activation region degrades throughput rather than failing —
	// until even a single sample no longer fits).
	p := float64(cfg.Params())
	state := units.Bytes(p * trainStateBytesPerParam)
	cfgMem := configBytes(cfg.NumLayers, cfg.HiddenSize)
	if spec.Par.WeightStreaming {
		// Streaming keeps one layer group's weights resident;
		// configuration shrinks accordingly.
		group := math.Max(1, float64(cfg.NumLayers)/8)
		state = units.Bytes(p * trainStateBytesPerParam * group / math.Max(1, float64(cfg.NumLayers)))
		cfgMem = configBytes(int(group), cfg.HiddenSize)
		notes = append(notes, "weight streaming enabled")
	}
	// Replicas share kernel code images; only per-replica routing and
	// placement tables duplicate (enables the paper's DP8 runs).
	cfgTotal := cfgMem * units.Bytes(1+0.15*float64(replicas-1))
	resident := cfgTotal + state*units.Bytes(replicas)
	actPerToken := cfg.ActivationBytesPerToken(spec.Seq, spec.Precision)
	actPerSample := actPerToken * units.Bytes(spec.Seq)
	free := units.Bytes(MemBytes) - resident
	if free < actPerToken*minActTokens {
		if !spec.Par.WeightStreaming {
			return nil, &platform.CompileError{
				Platform: s.Name(),
				Reason: fmt.Sprintf("on-chip memory exhausted: resident %s of %s (config %s, training state %s) leaves no room for activations — enable weight streaming",
					resident, units.Bytes(MemBytes), cfgMem, state),
			}
		}
		return nil, &platform.CompileError{
			Platform: s.Name(),
			Reason:   fmt.Sprintf("streaming working set %s exceeds on-chip memory %s", resident+actPerSample, units.Bytes(MemBytes)),
		}
	}
	desiredAct := actPerSample * units.Bytes(spec.Batch)
	act := desiredAct
	if act > free {
		act = free
		notes = append(notes, fmt.Sprintf("activation region limited to %s of desired %s", act, desiredAct))
	}
	mem := platform.MemoryUse{
		Capacity:    MemBytes,
		Config:      cfgTotal,
		Weights:     state * units.Bytes(replicas),
		Activations: act,
	}

	// Task rows: per-kernel throughput at the compiled allocation. The
	// efficiency ramp models inter-PE communication overhead dominating
	// shallow graphs (paper Section V-C1).
	pf := precFactor(spec.Precision)
	eff := kernelEff * float64(cfg.NumLayers) / (float64(cfg.NumLayers) + kernelEffRampLayers)
	tokens := spec.Tokens() / float64(replicas)
	tasks := make([]platform.Task, 0, len(kernels)+1)
	for _, k := range kernels {
		rate := k.pes * ratePerPE * eff * pf
		flops := k.workPerToken * tokens
		thr := math.Inf(1)
		var rt units.Seconds
		if flops > 0 && rate > 0 {
			thr = rate / flops // samples (steps) per second in isolation
			rt = units.Seconds(flops / rate)
		}
		tasks = append(tasks, platform.Task{
			Name: k.name, Kind: "kernel",
			Units:      platform.Units{PE: k.pes},
			Throughput: thr, Runtime: rt, Invocations: 1,
			FLOPs: units.FLOPs(flops),
		})
	}
	tasks = append(tasks, platform.Task{
		Name: "fabric-transmission", Kind: "transmission",
		Units:       platform.Units{PE: txPEs},
		Invocations: 1,
	})

	total := (computePEs + txPEs) * float64(replicas)
	return &platform.CompileReport{
		Platform:  s.Name(),
		Spec:      spec,
		Tasks:     tasks,
		Allocated: map[platform.Resource]float64{platform.ResPE: total},
		Capacity:  map[platform.Resource]float64{platform.ResPE: TotalPEs},
		Memory:    mem,
		Notes:     notes,
	}, nil
}

// Run implements platform.Platform.
func (s *Sim) Run(cr *platform.CompileReport) (*platform.RunReport, error) {
	if cr == nil || cr.Platform != s.Name() {
		return nil, fmt.Errorf("wse: run requires a WSE-2 compile report")
	}
	spec := cr.Spec
	replicas := spec.Par.DataParallel
	if replicas < 1 {
		replicas = 1
	}

	// Bottleneck decoder kernel sets the pipeline rate (data-driven
	// execution). Embedding and head kernels are IO stages that stream
	// concurrently with the decoder pipeline and do not gate it.
	bottleneck := math.Inf(1)
	for _, t := range cr.Tasks {
		if t.Kind == "kernel" && len(t.Name) > 0 && t.Name[0] == 'L' &&
			t.Throughput < bottleneck {
			bottleneck = t.Throughput
		}
	}
	if math.IsInf(bottleneck, 1) || bottleneck <= 0 {
		return nil, fmt.Errorf("wse: degenerate kernel set")
	}

	// Batch utilisation: the wafer needs deep batches to fill the
	// pipeline (Figure 12a).
	perReplicaBatch := float64(spec.Batch) / float64(replicas)
	// Memory-limited effective batch: configuration growth shrinks the
	// activation region (Figure 9a).
	free := float64(cr.Memory.Capacity - cr.Memory.Config - cr.Memory.Weights)
	actPerSample := float64(spec.Model.ActivationBytesPerToken(spec.Seq, spec.Precision)) * float64(spec.Seq)
	effBatch := perReplicaBatch
	if actPerSample > 0 {
		effBatch = math.Min(perReplicaBatch, math.Max(free, 0)/actPerSample)
	}
	if effBatch <= 0 {
		return nil, fmt.Errorf("wse: no activation memory available at batch %d", spec.Batch)
	}
	batchUtil := perReplicaBatch / (perReplicaBatch + batchHalfSat)
	memUtil := effBatch / (effBatch + memBatchHalfSat)

	// Replica communication penalty (Figure 11a): two replicas place
	// adjacently; beyond that inter-replica distance grows.
	commPenalty := 1.0
	if replicas > 2 {
		commPenalty = 1 / (1 + dpCommSlope*float64(replicas-2))
	}
	if spec.Par.WeightStreaming {
		commPenalty *= streamingFactor
	}

	// Replicas process the global batch concurrently, so the global
	// step rate equals the per-replica step rate.
	stepsPerSec := bottleneck * batchUtil * memUtil * commPenalty
	tokensPerSec := stepsPerSec * spec.Tokens()

	flopsPerStep := float64(spec.Model.TrainFLOPs(spec.Batch, spec.Seq))
	achieved := units.FLOPSRate(flopsPerStep * stepsPerSec)

	ai := globalAI(spec)
	return &platform.RunReport{
		Compile:       cr,
		StepTime:      units.Seconds(1 / stepsPerSec),
		TokensPerSec:  tokensPerSec,
		SamplesPerSec: tokensPerSec / float64(spec.Seq),
		Achieved:      achieved,
		Efficiency:    float64(achieved) / Peak16,
		AI:            ai,
	}, nil
}

// globalAI is the platform-level arithmetic intensity at the WSE's
// global tier: training FLOPs per byte of fabric-level weight traffic.
func globalAI(spec platform.TrainSpec) float64 {
	cfg := spec.Model
	p := float64(cfg.Params())
	embedHeadBytes := 2 * float64(cfg.EmbeddingParams()+cfg.EmbeddingHeadMatmulParams())
	layerBytes := 2 * float64(cfg.LayerParams())
	perTokenTraffic := aiEmbedFrac*embedHeadBytes + aiLayerFrac*layerBytes*float64(cfg.NumLayers)
	if perTokenTraffic <= 0 {
		return 0
	}
	return 6 * p / perTokenTraffic
}
