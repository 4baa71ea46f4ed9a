package platform

import "dabench/internal/memo"

// Stored is the durable form of one spec's pipeline outcome: the
// compile report, the run report once the workload has executed, or a
// placement failure. It is what a ResultStore persists per (platform,
// spec-key) pair — internal/store serializes it as a versioned JSON
// blob.
type Stored struct {
	Compile *CompileReport `json:"compile,omitempty"`
	Run     *RunReport     `json:"run,omitempty"`
	// Failed marks a persisted placement failure (the paper's "Fail"
	// entries): re-loading it reproduces the CompileError without
	// re-running the simulator.
	Failed     bool   `json:"failed,omitempty"`
	FailReason string `json:"fail_reason,omitempty"`
}

// ResultStore is the persistent L2 tier under the in-memory compile
// memo: a durable, content-addressed map from (platform name,
// TrainSpec.Key) to the spec's Stored outcome. Implementations must be
// safe for concurrent use and are expected to treat corruption as a
// miss, never an error — the pipeline can always recompute.
//
// Store is fire-and-forget (write-behind): implementations may
// persist asynchronously, and callers never learn about write
// failures — a lost write costs a future recompute, nothing more.
type ResultStore interface {
	Load(platformName, specKey string) (Stored, bool)
	Store(platformName, specKey string, s Stored)
}

// CachedWithStore is Cached with a persistent read-through /
// write-behind tier underneath the compile memo: a compile miss
// consults rs before running the simulator, and computed outcomes are
// written behind to rs so the next process starts warm. rs may be nil,
// which is plain Cached.
//
// Each computed outcome is written once: a successful compile miss
// runs the report and stores compile and run together (compile alone
// if Run fails), because a Run costs microseconds and a store write a
// marshal and a file. Run itself never writes; after a store hit it
// recomputes from the stored compile report.
func CachedWithStore(p Platform, rs ResultStore) CachedPlatform {
	c := &cached{p: p, rs: rs, compile: memo.New[string, *CompileReport]()}
	if li, ok := p.(Imbalancer); ok {
		return &cachedImbalancer{cached: c, li: li}
	}
	return c
}
