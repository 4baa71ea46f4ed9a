// Package ipu simulates the Graphcore Bow-2000 IPU system: pipeline
// parallelism assigns the embedding to one IPU and groups decoder
// layers across the rest; each IPU's 1472 tiles hold the resident
// working set in on-tile SRAM, and the absence of flexible memory
// management makes on-chip capacity the hard wall (paper Figure 9d:
// linear memory growth, execution failure near 10 layers at HS 768).
//
// Throughput under pipeline parallelism is set by the most heavily
// loaded IPU (paper Figure 11c): t_stage = overhead + perLayer·layers.
package ipu

import (
	"fmt"
	"math"
	"strconv"

	"dabench/internal/platform"
	"dabench/internal/precision"
	"dabench/internal/sched"
	"dabench/internal/units"
)

// Hardware constants (paper Section II-B3).
const (
	// IPUsPerSystem is the Bow-2000 IPU count.
	IPUsPerSystem = 4
	// TilesPerIPU is the tile count of one Bow IPU.
	TilesPerIPU = 1472
	// TileMemBytes is the per-tile SRAM (paper: 64 KB shared on-tile).
	TileMemBytes = 64 * 1024
	// MemPerIPU is the nominal on-chip capacity.
	MemPerIPU = TilesPerIPU * TileMemBytes
	// DDRBytes is the external memory shared by the four IPUs.
	DDRBytes = 256e9
	// ExchangeBW is the all-to-all IPU-Exchange bandwidth.
	ExchangeBW = 8e12
	// Peak16 is the per-IPU peak 16-bit rate; the paper's 41% peak
	// efficiency at 143 TFLOPs implies ≈350 TFLOPs.
	Peak16 = 350e12
)

// Calibration constants with paper anchors.
const (
	// usableMemFrac reserves tile memory for code and exchange
	// buffers. Anchor: Figure 9d — ≈65 MB used at 8 layers, failure at
	// 10 layers (HS 768).
	usableMemFrac = 0.75 // ≈71 MB of 94 MB
	// baseMemBytes is the resident runtime (code, vertex state,
	// host buffers) on a single-IPU placement.
	baseMemBytes = 37e6
	// stageBaseMemBytes is the same for one pipeline stage.
	stageBaseMemBytes = 20e6
	// residentTokens is the number of tokens whose layer activations
	// stay on tile between pipeline steps. Anchor: Figure 9d's
	// ≈3.6 MB/layer slope at HS 768, S 1024.
	residentTokens = 41.0

	// peakEff is the asymptotic tile-level compute efficiency before
	// the precision factor; shallow models pay a tile-utilization ramp
	// L/(L+effRampLayers). With the FP16 factor (0.65) this yields the
	// paper's 41% peak efficiency, plateauing by ≈4 layers
	// (Figure 9d).
	peakEff       = 0.63
	effRampLayers = 0.6

	// pipeEff is the per-stage compute efficiency under pipeline
	// parallelism, and stageOverheadSec the per-stage latency
	// (exchange + recompute + host sync). Anchor: Table III's IPU rows
	// — throughput roughly inversely proportional to the maximum
	// layers on any IPU.
	pipeEff          = 0.54
	stageOverheadSec = 0.5e-3

	// batchHalfSat keeps the batch curve near-linear across the
	// paper's 50–225 range (Figure 12c).
	batchHalfSat = 300.0

	// AI curve for the Figure 10c roofline: AI = aiBase + aiPerLayer·L
	// (weights are re-streamed per microbatch; deeper models amortize
	// better), capped just below the 43.75 FLOPs/byte ridge. Anchor:
	// the paper's 20–42 FLOPs/byte band straddling the memory/compute
	// boundary.
	aiBase     = 19.0
	aiPerLayer = 2.9
	aiCap      = 42.5
)

// precFactor returns the datapath fraction of Peak16 each format
// sustains. Mixed/full anchor: Table IV — mixed precision gains 22.0%
// over full ("Full" 154k → "Mixed" 188k samples/s).
func precFactor(f precision.Format) float64 {
	switch f {
	case precision.Mixed:
		return 0.61
	case precision.FP16, precision.BF16, precision.CB16:
		return 0.65
	default:
		return 0.50
	}
}

// Sim is the Bow-2000 simulator. The zero value is ready to use.
type Sim struct{}

// New returns an IPU simulator.
func New() *Sim { return &Sim{} }

// Name implements platform.Platform.
func (*Sim) Name() string { return "IPU" }

// HardwareSpec implements platform.Platform.
func (*Sim) HardwareSpec() platform.Spec {
	return platform.Spec{
		Name:         "Graphcore Bow-2000 IPU",
		Resources:    map[platform.Resource]float64{platform.ResTile: TilesPerIPU},
		Peak16:       Peak16,
		OnChipMemory: MemPerIPU,
		OnChipBW:     ExchangeBW,
		GlobalMemory: DDRBytes,
		GlobalBW:     ExchangeBW, // the paper's Fig. 10c models the DDR tier behind the exchange
	}
}

// assignment returns decoder layers per decoder IPU.
func assignment(spec platform.TrainSpec) ([]int, error) {
	L := spec.Model.NumLayers
	pp := spec.Par.PipelineParallel
	if la := spec.Par.LayerAssignment; len(la) > 0 {
		sum := 0
		for _, v := range la {
			if v < 0 {
				return nil, fmt.Errorf("ipu: negative layer count in assignment %v", la)
			}
			sum += v
		}
		if sum != L {
			return nil, fmt.Errorf("ipu: assignment %v covers %d layers, model has %d", la, sum, L)
		}
		if pp > 1 && len(la) != pp-1 {
			return nil, fmt.Errorf("ipu: assignment %v needs %d decoder IPUs, PP=%d provides %d",
				la, len(la), pp, pp-1)
		}
		return la, nil
	}
	if pp <= 1 {
		// Single-IPU placement (Tier-1 analysis).
		return []int{L}, nil
	}
	// Balanced default: spread layers over pp-1 decoder IPUs (one IPU
	// is dedicated to the embedding, paper Section III-C), minimizing
	// the most heavily loaded IPU.
	return sched.BalanceLayers(L, pp-1)
}

// layerMemBytes is the resident on-tile memory one decoder layer
// needs.
func layerMemBytes(spec platform.TrainSpec) float64 {
	perTokenLayer := float64(spec.Model.ActivationBytesPerToken(spec.Seq, spec.Precision)) /
		float64(spec.Model.NumLayers)
	return perTokenLayer * residentTokens
}

// Compile implements platform.Platform.
func (s *Sim) Compile(spec platform.TrainSpec) (*platform.CompileReport, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Par.TensorParallel > 1 {
		return nil, fmt.Errorf("ipu: tensor parallelism is not supported; IPUs scale via PP")
	}
	if spec.Par.DataParallel > 1 {
		return nil, fmt.Errorf("ipu: replicated data parallelism is not modeled; the paper scales via PP")
	}
	layers, err := assignment(spec)
	if err != nil {
		return nil, err
	}
	pp := spec.Par.PipelineParallel
	single := pp <= 1

	// Per-IPU memory wall (Figure 9d).
	usable := usableMemFrac * MemPerIPU
	perLayer := layerMemBytes(spec)
	base := baseMemBytes
	if !single {
		base = stageBaseMemBytes
	}
	maxLayers := 0
	for _, l := range layers {
		if l > maxLayers {
			maxLayers = l
		}
	}
	worst := base + float64(maxLayers)*perLayer
	if worst > usable {
		return nil, &platform.CompileError{
			Platform: s.Name(),
			Reason: fmt.Sprintf("per-IPU memory exhausted: stage with %d layers needs %s of %s usable — no tensor swapping available",
				maxLayers, units.Bytes(worst), units.Bytes(usable)),
		}
	}

	// Stage tasks: embedding IPU plus decoder IPUs.
	pf := precFactor(spec.Precision)
	cfg := spec.Model
	// One decoder layer's training FLOPs per sample (3× forward).
	attnFFNParams := cfg.AttentionParams() + cfg.FFNParams()
	perLayerPerToken := 3 * (2*float64(attnFFNParams) +
		4*float64(spec.Seq)*float64(cfg.HiddenSize) +
		5*float64(spec.Seq)*float64(cfg.NumHeads) + 12*float64(cfg.HiddenSize))
	layerFlopsPerSample := perLayerPerToken * float64(spec.Seq)
	totalFlopsPerSample := float64(cfg.TrainFLOPsPerToken(spec.Seq)) * float64(spec.Seq)
	sharedFlopsPerSample := math.Max(0, totalFlopsPerSample-layerFlopsPerSample*float64(cfg.NumLayers))
	eff := pipeEff
	if single {
		l := float64(spec.Model.NumLayers)
		eff = peakEff * l / (l + effRampLayers)
	}
	perLayerSec := layerFlopsPerSample / (Peak16 * eff * pf)

	tasks := make([]platform.Task, 0, len(layers)+1)
	tiles := float64(TilesPerIPU)
	if !single {
		tasks = append(tasks, platform.Task{
			Name: "ipu0/embedding", Kind: "stage",
			Units:      platform.Units{Tile: tiles * 0.6},
			Runtime:    units.Seconds(stageOverheadSec),
			Throughput: 1 / stageOverheadSec, Invocations: 1,
		})
	}
	for i, l := range layers {
		rt := float64(l)*perLayerSec + stageOverheadSec
		if single {
			// A single IPU also executes the embedding, head and loss.
			rt = float64(l)*perLayerSec + sharedFlopsPerSample/(Peak16*eff*pf)
		}
		tasks = append(tasks, platform.Task{
			Name: "ipu" + strconv.Itoa(i+1) + "/decoder[" + strconv.Itoa(l) + " layers]", Kind: "stage",
			Units:       platform.Units{Tile: tiles * 0.92},
			Runtime:     units.Seconds(rt),
			Throughput:  1 / rt,
			Invocations: 1,
			FLOPs:       units.FLOPs(float64(l) * layerFlopsPerSample),
		})
	}

	mem := platform.MemoryUse{
		Capacity:    units.Bytes(usable),
		Other:       units.Bytes(base),
		Activations: units.Bytes(float64(maxLayers) * perLayer),
	}
	ipus := pp
	if single {
		ipus = 1
	}
	return &platform.CompileReport{
		Platform: s.Name(),
		Spec:     spec,
		Tasks:    tasks,
		Allocated: map[platform.Resource]float64{
			platform.ResTile: tiles * 0.92,
		},
		Capacity: map[platform.Resource]float64{platform.ResTile: tiles},
		Memory:   mem,
		Notes:    []string{stageNote(ipus, layers, maxLayers)},
	}, nil
}

// stageNote is the report's note on the IPU count, the layers each
// stage holds ("[a b c]") and the deepest stage.
func stageNote(ipus int, layers []int, maxLayers int) string {
	var buf [128]byte
	b := append(buf[:0], "ipus="...)
	b = strconv.AppendInt(b, int64(ipus), 10)
	b = append(b, " assignment=["...)
	for i, l := range layers {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(l), 10)
	}
	b = append(b, "] maxLayers="...)
	b = strconv.AppendInt(b, int64(maxLayers), 10)
	return string(b)
}

// Run implements platform.Platform.
func (s *Sim) Run(cr *platform.CompileReport) (*platform.RunReport, error) {
	if cr == nil || cr.Platform != s.Name() {
		return nil, fmt.Errorf("ipu: run requires an IPU compile report")
	}
	spec := cr.Spec

	// Pipeline throughput is set by the slowest stage (Figure 11c).
	slowest := 0.0
	for _, t := range cr.Tasks {
		if rt := float64(t.Runtime); rt > slowest {
			slowest = rt
		}
	}
	if slowest <= 0 {
		return nil, fmt.Errorf("ipu: degenerate stage schedule")
	}
	// Batch fills the pipeline near-linearly across the paper's range
	// (Figure 12c).
	b := float64(spec.Batch)
	batchUtil := b / (b + batchHalfSat)
	samplesPerSec := batchUtil / slowest
	tokensPerSec := samplesPerSec * float64(spec.Seq)

	flopsPerSample := float64(spec.Model.TrainFLOPsPerToken(spec.Seq)) * float64(spec.Seq)
	achieved := units.FLOPSRate(flopsPerSample * samplesPerSec)
	// Efficiency normalizes by the aggregate peak of all IPUs in the
	// pipeline (one per stage task).
	ipus := float64(len(cr.Tasks))
	if ipus < 1 {
		ipus = 1
	}

	l := float64(spec.Model.NumLayers)
	ai := math.Min(aiCap, (aiBase+aiPerLayer*l)*math.Pow(float64(spec.Model.HiddenSize)/768, 0.2))

	return &platform.RunReport{
		Compile:       cr,
		StepTime:      units.Seconds(b / samplesPerSec),
		TokensPerSec:  tokensPerSec,
		SamplesPerSec: tokensPerSec / float64(spec.Seq),
		Achieved:      achieved,
		Efficiency:    float64(achieved) / (Peak16 * ipus),
		AI:            ai,
	}, nil
}
