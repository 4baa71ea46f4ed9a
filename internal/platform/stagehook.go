package platform

import (
	"sync/atomic"
	"time"
)

// Pipeline stage names reported through the stage hook. They name the
// two real units of simulator work — everything else a request does
// (decode, render, store I/O) is timed by the layer that does it.
const (
	StageCompile = "compile"
	StageRun     = "run"
)

// StageHook observes one real simulator invocation: the platform, the
// stage (StageCompile or StageRun) and its wall-clock duration. Cache
// hits never fire — the hook measures where simulation time actually
// goes, which is what makes warm/cold latency distributions
// attributable: a warm request's stage histogram entry is the serving
// layer's, not a phantom zero-cost compile here.
type StageHook func(platformName, stage string, d time.Duration)

// stageHook is package-wide, not per cached wrapper: one observer sees
// every wrapper's stages, the shared experiment platforms and any
// wrapper a caller builds with Cached alike. One atomic load + nil
// compare per compile miss and per Run; a compile hit never consults
// it.
var stageHook atomic.Pointer[StageHook]

// SetStageHook installs (or, with nil, removes) the pipeline stage
// observer. Serving layers mount it to feed their stage histograms;
// production CLIs may leave it unset at zero cost.
func SetStageHook(fn StageHook) {
	if fn == nil {
		stageHook.Store(nil)
		return
	}
	stageHook.Store(&fn)
}

// observeStage times fn under the mounted hook (or plainly without
// one) and returns its results.
func observeStage[T any](platformName, stage string, fn func() (T, error)) (T, error) {
	hook := stageHook.Load()
	if hook == nil {
		return fn()
	}
	start := time.Now()
	v, err := fn()
	(*hook)(platformName, stage, time.Since(start))
	return v, err
}
