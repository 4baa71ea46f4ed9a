package wse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"dabench/internal/graph"
	"dabench/internal/model"
	"dabench/internal/platform"
	"dabench/internal/precision"
	"dabench/internal/units"
)

// The reference below is the byte-identity oracle for the WSE compiler:
// Compile, buildKernels and jitter verbatim from before kernel names
// came from a table and notes were built without fmt. It shares the
// kernel type and the demand, usableFrac, configBytes and refWork
// helpers with the production code.

// refBuildKernels lowers the model to the WSE kernel set: one attention
// kernel and one feed-forward kernel per decoder layer, plus embedding
// and a head kernel (final norm + LM head + loss).
func refBuildKernels(cfg model.Config, seq int) []kernel {
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

// refJitter returns the deterministic placement-quantization factor for
// kernel index i, in [1-allocJitter, 1+allocJitter].
func refJitter(i int) float64 {
	// Small multiplicative hash → uniform-ish in [0,1).
	x := math.Mod(float64(i)*0.6180339887498949+0.137, 1.0)
	return 1 + allocJitter*(2*x-1)
}

// refCompile is Sim.Compile.
func refCompile(s *Sim, spec platform.TrainSpec) (*platform.CompileReport, error) {
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
	kernels := refBuildKernels(cfg, spec.Seq)
	ref := refWork()

	// Per-replica PE budget (compute + transmission).
	usable := usableFrac(cfg.NumLayers) * TotalPEs
	budget := usable / float64(replicas)

	// Optimal demands.
	var fixedDemand, varDemand float64
	for i := range kernels {
		kernels[i].pes = demand(kernels[i], ref) * refJitter(i)
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

// TestCompileMatchesReference compiles a grid through the reference and
// through Sim and requires identical report JSON, or identical error
// text. The depths cross the end of the kernel-name table (128 layers)
// and reach placement failures; the grid must reach every note the
// compiler writes.
func TestCompileMatchesReference(t *testing.T) {
	models := []model.Config{model.GPTTiny(), model.GPTMini(), model.GPT2Small()}
	depths := []int{1, 12, 78, 127, 128, 129, 500, 1024}
	sim := New()
	// Every note the compiler writes, by its leading words.
	notes := map[string]int{
		"kernels=": 0, "elastic shrink:": 0, "global shrink:": 0,
		"weight streaming enabled": 0, "activation region limited": 0,
	}
	var specs, compiled int
	for _, m := range models {
		for _, depth := range depths {
			for _, streaming := range []bool{false, true} {
				for _, dp := range []int{1, 2, 4, 8} {
					for _, prec := range precision.All() {
						spec := platform.TrainSpec{
							Model: m.WithLayers(depth), Batch: 512, Seq: 1024, Precision: prec,
							Par: platform.Parallelism{DataParallel: dp, WeightStreaming: streaming},
						}
						specs++
						want, wantErr := refCompile(sim, spec)
						got, gotErr := sim.Compile(spec)
						if msg := diffResult(want, wantErr, got, gotErr); msg != "" {
							t.Fatalf("%s: %s", spec.Key(), msg)
						}
						if wantErr != nil {
							continue
						}
						compiled++
						for _, n := range want.Notes {
							for lead := range notes {
								if strings.HasPrefix(n, lead) {
									notes[lead]++
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d specs identical to the reference (%d compiled); notes: %v", specs, compiled, notes)
	if compiled == 0 || compiled == specs {
		t.Errorf("grid compiled %d of %d specs, want both successes and failures", compiled, specs)
	}
	for lead, n := range notes {
		if n == 0 {
			t.Errorf("no compiled spec wrote a %q note", lead)
		}
	}
}

// diffResult describes the first difference between a reference and a
// Sim compile ("" if none).
func diffResult(want *platform.CompileReport, wantErr error, got *platform.CompileReport, gotErr error) string {
	switch {
	case wantErr != nil && gotErr != nil:
		if wantErr.Error() != gotErr.Error() {
			return "error " + strconv.Quote(gotErr.Error()) + ", reference " + strconv.Quote(wantErr.Error())
		}
		return ""
	case wantErr != nil:
		return "compiled, reference failed (" + wantErr.Error() + ")"
	case gotErr != nil:
		return "failed (" + gotErr.Error() + "), reference compiled"
	}
	wb, err := json.Marshal(want)
	if err != nil {
		return "marshal reference: " + err.Error()
	}
	gb, err := json.Marshal(got)
	if err != nil {
		return "marshal: " + err.Error()
	}
	if bytes.Equal(wb, gb) {
		return ""
	}
	i := 0
	for i < len(wb) && i < len(gb) && wb[i] == gb[i] {
		i++
	}
	lo := max(i-80, 0)
	return "report JSON differs at byte " + strconv.Itoa(i) + ":\n  got " + string(gb[lo:min(i+80, len(gb))]) +
		"\n  ref " + string(wb[lo:min(i+80, len(wb))])
}

// TestJitterMatchesReference pins jitter, which takes the fractional
// part with math.Floor, to the math.Mod form it replaces, bit for bit,
// over more kernel indices than a 1,024-layer graph has.
func TestJitterMatchesReference(t *testing.T) {
	for i := 0; i < 1<<16; i++ {
		if got, want := jitter(i), refJitter(i); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("jitter(%d) = %v, reference %v", i, got, want)
		}
	}
}
