package scenario

import (
	"fmt"
	"math"
	"strconv"

	"dabench/internal/model"
	"dabench/internal/platform"
	"dabench/internal/precision"
)

// ChunkSize is how many grid points one progress beat covers, in
// Run and in the server's async job executor: large enough to amortize
// the bookkeeping, small enough that progress and cancellation stay
// responsive.
const ChunkSize = 256

// Grid is the swept cross product. Point order is deterministic:
// layers-major, then batches, precisions, tensor-parallel degrees and
// modes — the order every results array and table follows.
//
// Grid.Resolve is the one grid resolver: scenarios, /v1/sweep and
// /v1/jobs all expand their cross products through it.
type Grid struct {
	Layers         []int    `json:"layers,omitempty"`
	Batches        []int    `json:"batches,omitempty"`
	Precisions     []string `json:"precisions,omitempty"`
	TensorParallel []int    `json:"tensor_parallel,omitempty"`
	// Modes sweeps the RDU build-optimization levels.
	Modes []string `json:"modes,omitempty"`
}

// Points is a validated grid in unexpanded form: the i-th point is
// derived on demand, so an arbitrarily large product (an async job
// walks one chunk by chunk) never materializes whole.
type Points struct {
	base   platform.TrainSpec
	layers []int
	// models holds the model each distinct layer value resolves to (by
	// its Validate probe), so Spec allocates nothing. Keyed by value, it
	// holds at most model.MaxLayers entries however long the axis is.
	models  map[int]model.Config
	batches []int
	formats []precision.Format
	tps     []int
	modes   []platform.CompileMode
	// labeled marks the axes the grid named; only those appear in
	// point labels.
	labeled [5]bool
	size    int64
}

// Resolve validates the grid against base and returns its points. An
// omitted axis holds the base value and stays out of the labels. Every
// point is a valid TrainSpec: the batch and tensor-parallel axes are
// checked against the bounds TrainSpec.Validate applies to them, and
// precisions and modes feed no Validate rule, so one Validate probe
// per distinct layer value covers the whole product without expanding
// it. The axis slices are g's own, not copies.
func (g Grid) Resolve(base platform.TrainSpec) (*Points, error) {
	p := &Points{base: base, layers: g.Layers, batches: g.Batches, tps: g.TensorParallel}
	p.labeled = [5]bool{len(g.Layers) > 0, len(g.Batches) > 0, len(g.Precisions) > 0,
		len(g.TensorParallel) > 0, len(g.Modes) > 0}
	if len(p.layers) == 0 {
		p.layers = []int{base.Model.NumLayers}
	}
	if len(p.batches) == 0 {
		p.batches = []int{base.Batch}
	}
	for _, l := range p.layers {
		if l <= 0 {
			return nil, fmt.Errorf("grid axes must be positive (layer %d)", l)
		}
	}
	for _, b := range p.batches {
		if b <= 0 {
			return nil, fmt.Errorf("grid axes must be positive (batch %d)", b)
		}
	}
	if len(g.Precisions) == 0 {
		p.formats = []precision.Format{base.Precision}
	} else {
		p.formats = make([]precision.Format, 0, len(g.Precisions))
		for _, s := range g.Precisions {
			f, err := precision.Parse(s)
			if err != nil {
				return nil, fmt.Errorf("grid: %w", err)
			}
			p.formats = append(p.formats, f)
		}
	}
	if len(p.tps) == 0 {
		p.tps = []int{base.Par.TensorParallel}
	}
	for _, tp := range p.tps {
		// 0 is legal here: it means "no tensor parallelism", matching
		// TrainSpec's own >= 0 rule.
		if tp < 0 || tp > platform.MaxParallelism {
			return nil, fmt.Errorf("tensor_parallel must be in [0, %d] (got %d)", platform.MaxParallelism, tp)
		}
	}
	if len(g.Modes) == 0 {
		p.modes = []platform.CompileMode{base.Par.Mode}
	} else {
		p.modes = make([]platform.CompileMode, 0, len(g.Modes))
		for _, s := range g.Modes {
			m, err := platform.ParseMode(s)
			if err != nil {
				return nil, err
			}
			p.modes = append(p.modes, m)
		}
	}
	p.models = make(map[int]model.Config, min(len(p.layers), model.MaxLayers))
	for _, l := range p.layers {
		if _, ok := p.models[l]; ok {
			continue
		}
		probe := base
		probe.Model = base.Model.WithLayers(l)
		if err := probe.Validate(); err != nil {
			return nil, err
		}
		p.models[l] = probe.Model
	}
	p.size = 1
	for _, n := range [...]int{len(p.layers), len(p.batches), len(p.formats), len(p.tps), len(p.modes)} {
		if p.size > math.MaxInt64/int64(n) {
			p.size = math.MaxInt64
			break
		}
		p.size *= int64(n)
	}
	return p, nil
}

// Size is the number of points, saturating at math.MaxInt64.
func (p *Points) Size() int64 { return p.size }

// Spec derives point i's TrainSpec: layers-major, then batches,
// precisions, TP degrees, modes.
func (p *Points) Spec(i int) platform.TrainSpec {
	nm := len(p.modes)
	nt := len(p.tps) * nm
	nf := len(p.formats) * nt
	nb := len(p.batches) * nf
	spec := p.base
	spec.Model = p.models[p.layers[i/nb]]
	spec.Batch = p.batches[(i/nf)%len(p.batches)]
	spec.Precision = p.formats[(i/nt)%len(p.formats)]
	spec.Par.TensorParallel = p.tps[(i/nm)%len(p.tps)]
	spec.Par.Mode = p.modes[i%nm]
	return spec
}

// Label names point i by the axes the grid named, "/"-joined in axis
// order; a grid that names no axis has the single label "base".
func (p *Points) Label(i int) string {
	spec := p.Spec(i)
	var arr [64]byte
	b := arr[:0]
	if p.labeled[0] {
		b = append(b, "L="...)
		b = strconv.AppendInt(b, int64(spec.Model.NumLayers), 10)
	}
	if p.labeled[1] {
		b = append(labelSep(b), "B="...)
		b = strconv.AppendInt(b, int64(spec.Batch), 10)
	}
	if p.labeled[2] {
		b = append(labelSep(b), spec.Precision.String()...)
	}
	if p.labeled[3] {
		b = append(labelSep(b), "TP"...)
		b = strconv.AppendInt(b, int64(spec.Par.TensorParallel), 10)
	}
	if p.labeled[4] {
		b = append(labelSep(b), spec.Par.Mode.String()...)
	}
	if len(b) == 0 {
		return "base"
	}
	return string(b)
}

// labelSep appends the "/" between two label segments.
func labelSep(b []byte) []byte {
	if len(b) > 0 {
		b = append(b, '/')
	}
	return b
}
