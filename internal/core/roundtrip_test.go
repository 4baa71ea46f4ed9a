package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"dabench/internal/gpu"
	"dabench/internal/ipu"
	"dabench/internal/model"
	"dabench/internal/platform"
	"dabench/internal/precision"
	"dabench/internal/rdu"
	"dabench/internal/wse"
)

// TestCompileReportsSurviveJSON decodes compile reports from JSON, the
// form the store persists them in, and requires the decoded report to
// be as good as the original: it re-marshals to the same bytes, and
// Run, the RDU's operator-level LI and the Tier-1 LI computed on it are
// bit-identical to those computed on the original.
func TestCompileReportsSurviveJSON(t *testing.T) {
	type variant struct {
		p   platform.Platform
		par platform.Parallelism
	}
	var variants []variant
	for _, mode := range []platform.CompileMode{platform.ModeO0, platform.ModeO1, platform.ModeO3} {
		for _, tp := range []int{1, 2} {
			variants = append(variants, variant{rdu.New(), platform.Parallelism{Mode: mode, TensorParallel: tp}})
		}
	}
	variants = append(variants,
		variant{wse.New(), platform.Parallelism{}},
		variant{wse.New(), platform.Parallelism{DataParallel: 2}},
		variant{ipu.New(), platform.Parallelism{}},
		variant{ipu.New(), platform.Parallelism{PipelineParallel: 4}},
		variant{gpu.New(), platform.Parallelism{TensorParallel: 2}},
	)
	models := []model.Config{model.GPTTiny(), model.GPT2Small(), model.LLaMA2_7B()}

	compiled := make([]int, len(variants))
	for i, v := range variants {
		for _, m := range models {
			for _, layers := range []int{2, 12, 48} {
				spec := platform.TrainSpec{
					Model: m.WithLayers(layers), Batch: 8, Seq: 1024,
					Precision: precision.BF16, Par: v.par,
				}
				prof, err := Profile(v.p, spec)
				if platform.IsCompileFailure(err) {
					continue
				}
				if err != nil {
					t.Fatalf("%s %s: %v", v.p.Name(), spec.Key(), err)
				}
				compiled[i]++
				checkRoundTrip(t, v.p, spec, prof)
			}
		}
	}
	for i, v := range variants {
		if compiled[i] == 0 {
			t.Errorf("%s %+v: no spec compiled, nothing was checked", v.p.Name(), v.par)
		}
	}
}

func checkRoundTrip(t *testing.T, p platform.Platform, spec platform.TrainSpec, prof *Tier1Result) {
	t.Helper()
	name := p.Name() + " " + spec.Key()
	orig := prof.Compile
	enc, err := json.Marshal(orig)
	if err != nil {
		t.Fatalf("%s: marshal: %v", name, err)
	}
	var dec platform.CompileReport
	if err := json.Unmarshal(enc, &dec); err != nil {
		t.Fatalf("%s: unmarshal: %v", name, err)
	}
	if re, err := json.Marshal(&dec); err != nil || !bytes.Equal(re, enc) {
		t.Errorf("%s: decoded report re-marshals differently (err %v)", name, err)
	}

	wantRun, err := p.Run(orig)
	if err != nil {
		t.Fatalf("%s: run original: %v", name, err)
	}
	gotRun, err := p.Run(&dec)
	if err != nil {
		t.Fatalf("%s: run decoded: %v", name, err)
	}
	w, g := *wantRun, *gotRun
	w.Compile, g.Compile = nil, nil
	wb, _ := json.Marshal(w)
	gb, _ := json.Marshal(g)
	if !bytes.Equal(wb, gb) {
		t.Errorf("%s: run on the decoded report\n got %s\nwant %s", name, gb, wb)
	}

	if sim, ok := p.(*rdu.Sim); ok {
		want, err := sim.LoadImbalance(orig)
		if err != nil {
			t.Fatalf("%s: RDU LI on original: %v", name, err)
		}
		got, err := sim.LoadImbalance(&dec)
		if err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: RDU LI on the decoded report = %v (err %v), want %v", name, got, err, want)
		}
	}
	got, err := loadImbalance(p, &dec)
	if err != nil || math.Float64bits(got) != math.Float64bits(prof.LI) {
		t.Errorf("%s: Tier-1 LI on the decoded report = %v (err %v), want %v", name, got, err, prof.LI)
	}
}
