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

// ResultStore is the persistent L2 tier under the in-memory memo
// cells: a durable, content-addressed map from (platform name,
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
// write-behind tier underneath the in-memory cells: a compile miss in
// the memo consults rs before running the simulator, and computed
// outcomes are written behind to rs so the next process starts warm.
// When a loaded entry already carries its run report, the run cell is
// seeded too — a fully warm spec costs two map lookups and zero
// simulation. rs may be nil, which is plain Cached.
//
// Each computed outcome is written once. A successful compile miss
// runs the report through the run cell before returning, and that
// cell's miss stores compile and run together; the caller's own Run is
// then a cell hit. A Run costs microseconds while a store write costs
// a marshal and a file, so this beats persisting a compile-only blob
// and rewriting it when the run lands. It also means a compile-only
// caller persists the run report too. The compile cell itself writes
// only placement failures, plus a compile-only blob when Run fails.
func CachedWithStore(p Platform, rs ResultStore) CachedPlatform {
	c := &cached{
		p:       p,
		rs:      rs,
		compile: memo.New[string, *CompileReport](),
		run:     memo.New[*CompileReport, *RunReport](),
	}
	if li, ok := p.(Imbalancer); ok {
		return &cachedImbalancer{cached: c, li: li}
	}
	return c
}
