package server

import (
	"testing"

	"dabench/internal/gpu"
	"dabench/internal/ipu"
	"dabench/internal/model"
	"dabench/internal/platform"
	"dabench/internal/rdu"
	"dabench/internal/wse"
)

// FuzzRunRequest drives /v1/run's decode and validation with arbitrary
// bodies. decodeBody and resolve must never panic, and a request they
// accept must be within the model and parallelism bounds and must
// compile on its platform without panicking; a successful compile must
// also run without error, or /v1/run would answer 500. The simulators
// are called directly, not through the shared memo cells, so fuzzing
// neither grows the process-wide caches nor hides a panic behind a
// poisoned cache entry.
//
//	go test -run '^$' -fuzz FuzzRunRequest -fuzztime 20s ./internal/server
func FuzzRunRequest(f *testing.F) {
	for _, body := range []string{
		warmRunBody,
		`{"platform":"wse","model":"gpt2-small"}`,
		`{"platform":"wse","model":"gpt2-small","layers":78}`,
		`{"platform":"wse","model":"gpt2-small","batch":-4}`,
		`{"platform":"wse","model":"gpt2-small","seq":999999}`,
		`{"platform":"wse","model":"gpt2-small","precision":"int4"}`,
		`{"platform":"wse","model":"gpt2-small","bogus":1}`,
		`{"platform":"rdu","model":"gpt2-small","mode":"O3","layers":1025}`,
		`{"platform":"rdu","model":"gpt2-small","layers":4,"batch":4,"precision":"BF16","mode":"O1"}`,
		`{"platform":"rdu","model":"llama2-7b","batch":8,"seq":4096,"precision":"BF16","mode":"O1","tensor_parallel":2}`,
		`{"platform":"ipu","model":"gpt2-small","layers":4,"batch":2048,"precision":"FP16","pipeline_parallel":4}`,
		`{"platform":"ipu","model":"gpt2-small","pipeline_parallel":1024}`,
		`{"platform":"ipu","model":"gpt2-small","pipeline_parallel":1025}`,
		// The crasher: the IPU simulator allocated pp-1 stages.
		`{"platform":"ipu","model":"gpt2-small","pipeline_parallel":4611686018427387904}`,
		`{"platform":"ipu","model":"gpt2-small","layers":3,"pipeline_parallel":3,"layer_assignment":[2,1]}`,
		`{"platform":"gpu","model":"gpt2-small","batch":8,"precision":"FP16","data_parallel":2,"tensor_parallel":2,"pipeline_parallel":2}`,
		`{"platform":"tpu","model":"gpt2-small"}`,
	} {
		f.Add([]byte(body))
	}
	sims := map[string]platform.Platform{}
	for _, p := range []platform.Platform{wse.New(), rdu.New(), ipu.New(), gpu.New()} {
		sims[p.Name()] = p
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req RunRequest
		if err := decodeBody(&bodyBuf{}, body, &req); err != nil {
			return
		}
		p, spec, err := req.resolve()
		if err != nil {
			return
		}
		par := spec.Par
		if spec.Model.NumLayers > model.MaxLayers ||
			par.DataParallel > platform.MaxParallelism || par.TensorParallel > platform.MaxParallelism ||
			par.PipelineParallel > platform.MaxParallelism || len(par.LayerAssignment) > platform.MaxParallelism {
			t.Fatalf("accepted a spec past the bounds: %d layers, parallelism %+v", spec.Model.NumLayers, par)
		}
		sim, ok := sims[p.Name()]
		if !ok {
			t.Fatalf("resolve returned platform %q with no simulator", p.Name())
		}
		cr, err := sim.Compile(spec)
		if err != nil {
			return
		}
		if _, err := sim.Run(cr); err != nil {
			t.Errorf("run after a successful compile failed (/v1/run would answer 500): %v", err)
		}
	})
}
