package platform

import (
	"dabench/internal/cachestats"
	"dabench/internal/memo"
)

// Imbalancer is implemented by platforms with a native operator-level
// load-imbalance computation (the RDU's section/operator hierarchy).
// Cached wrappers preserve it so the core's LI dispatch is unchanged.
type Imbalancer interface {
	LoadImbalance(*CompileReport) (float64, error)
}

// CacheStats is a snapshot of a cache's hit/miss counters (the shared
// cachestats.Stats — one type across the graph and compile tiers).
type CacheStats = cachestats.Stats

// CachedPlatform is a Platform whose Compile is memoized.
type CachedPlatform interface {
	Platform
	// CacheStats returns the compile cache's hit/miss counters.
	CacheStats() CacheStats
	// ResetCache drops all cached compile reports and zeroes the
	// counters.
	ResetCache()
	// Unwrap returns the underlying platform.
	Unwrap() Platform
}

// Cached wraps p with a concurrency-safe compile memo (a memo.Cache
// singleflight cell).
//
// Compile: identical TrainSpecs (by TrainSpec.Key) compile once while
// their entry stays within the memo's two generations of 128 (see
// memo.Cache); concurrent callers of an in-flight key block until the
// single underlying compile finishes and then share its report. Both
// successful reports and compile errors are cached — the simulators
// are deterministic, stateless pure functions of the spec, so a cached
// outcome is indistinguishable from a fresh one. Cached reports are
// shared, not copied: callers must treat a CompileReport as immutable
// (Run already does).
//
// Run is not memoized: it is a pure function of the compile report
// that costs 0.3–2 µs, less than the memo entry that would hold its
// report for the life of the process. Each call runs the simulator
// (through the stage hook), so concurrent Runs of one shared report
// execute side by side.
//
// If p natively computes load imbalance (Imbalancer), the wrapper
// forwards it so core.Profile keeps using the operator-level path.
func Cached(p Platform) CachedPlatform {
	c := &cached{p: p, compile: memo.New[string, *CompileReport]()}
	if li, ok := p.(Imbalancer); ok {
		return &cachedImbalancer{cached: c, li: li}
	}
	return c
}

type cached struct {
	p       Platform
	compile *memo.Cache[string, *CompileReport]
}

func (c *cached) Name() string       { return c.p.Name() }
func (c *cached) HardwareSpec() Spec { return c.p.HardwareSpec() }
func (c *cached) Unwrap() Platform   { return c.p }

func (c *cached) Compile(spec TrainSpec) (*CompileReport, error) {
	return c.compile.Do(spec.Key(), func() (*CompileReport, error) {
		return observeStage(c.p.Name(), StageCompile, func() (*CompileReport, error) {
			return c.p.Compile(spec)
		})
	})
}

func (c *cached) Run(cr *CompileReport) (*RunReport, error) {
	return observeStage(c.p.Name(), StageRun, func() (*RunReport, error) {
		return c.p.Run(cr)
	})
}

func (c *cached) CacheStats() CacheStats { return c.compile.Stats() }

func (c *cached) ResetCache() { c.compile.Reset() }

// cachedImbalancer adds the native-LI forwarding for platforms that
// implement it; a separate type so a cached WSE does not spuriously
// satisfy Imbalancer.
type cachedImbalancer struct {
	*cached
	li Imbalancer
}

func (c *cachedImbalancer) LoadImbalance(cr *CompileReport) (float64, error) {
	return c.li.LoadImbalance(cr)
}
