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
// cachestats.Stats — one type across the graph/compile/run tiers).
type CacheStats = cachestats.Stats

// CachedPlatform is a Platform whose Compile and Run are memoized.
type CachedPlatform interface {
	Platform
	// CacheStats returns the compile cache's hit/miss counters.
	CacheStats() CacheStats
	// RunCacheStats returns the run-report cache's hit/miss counters.
	RunCacheStats() CacheStats
	// ResetCache drops all cached reports (compile and run) and zeroes
	// the counters.
	ResetCache()
	// Unwrap returns the underlying platform.
	Unwrap() Platform
}

// Cached wraps p with two concurrency-safe memoization tiers (both
// memo.Cache singleflight cells).
//
// Compile: identical TrainSpecs (by TrainSpec.Key) compile once;
// concurrent callers of an in-flight key block until the single
// underlying compile finishes and then share its report. Both
// successful reports and compile errors are cached — the simulators
// are deterministic, stateless pure functions of the spec, so a cached
// outcome is indistinguishable from a fresh one. Cached reports are
// shared, not copied: callers must treat a CompileReport as immutable
// (Run already does).
//
// Run: Run is a deterministic pure function of the compile report, and
// the compile cache hands every caller of an identical spec the same
// *CompileReport — so the run cache keys on pointer identity, which is
// both allocation-free and exactly as discriminating as a value key for
// reports that came out of this wrapper. Reports compiled elsewhere
// simply occupy their own cache slot; correctness only needs the shared
// immutability contract. Run errors are cached alongside successes for
// the same determinism reason.
//
// If p natively computes load imbalance (Imbalancer), the wrapper
// forwards it so core.Profile keeps using the operator-level path.
func Cached(p Platform) CachedPlatform { return CachedWithStore(p, nil) }

type cached struct {
	p       Platform
	rs      ResultStore // optional persistent L2; nil = RAM only
	compile *memo.Cache[string, *CompileReport]
	run     *memo.Cache[*CompileReport, *RunReport]
}

func (c *cached) Name() string       { return c.p.Name() }
func (c *cached) HardwareSpec() Spec { return c.p.HardwareSpec() }
func (c *cached) Unwrap() Platform   { return c.p }

func (c *cached) Compile(spec TrainSpec) (*CompileReport, error) {
	key := spec.Key()
	return c.compile.Do(key, func() (*CompileReport, error) {
		if c.rs != nil {
			if st, ok := c.rs.Load(c.p.Name(), key); ok {
				if st.Failed {
					return nil, &CompileError{Platform: c.p.Name(), Reason: st.FailReason}
				}
				if st.Run != nil {
					// The run report rides along; seed the run cell so
					// Run on this report is a pure lookup too.
					c.run.Seed(st.Compile, st.Run)
				}
				return st.Compile, nil
			}
		}
		cr, err := observeStage(c.p.Name(), StageCompile, func() (*CompileReport, error) {
			return c.p.Compile(spec)
		})
		if c.rs != nil {
			switch {
			case err == nil:
				// One write per outcome: the run cell's miss stores
				// compile and run together (see CachedWithStore). Only a
				// Run error leaves the compile report to persist alone.
				if _, rerr := c.Run(cr); rerr != nil {
					c.rs.Store(c.p.Name(), key, Stored{Compile: cr})
				}
			case IsCompileFailure(err):
				// Placement failures are deterministic findings, worth
				// persisting; validation errors are cheap to rediscover.
				c.rs.Store(c.p.Name(), key, Stored{Failed: true, FailReason: err.(*CompileError).Reason})
			}
		}
		return cr, err
	})
}

func (c *cached) Run(cr *CompileReport) (*RunReport, error) {
	return c.run.Do(cr, func() (*RunReport, error) {
		rr, err := observeStage(c.p.Name(), StageRun, func() (*RunReport, error) {
			return c.p.Run(cr)
		})
		if err == nil && c.rs != nil {
			c.rs.Store(c.p.Name(), cr.Spec.Key(), Stored{Compile: cr, Run: rr})
		}
		return rr, err
	})
}

func (c *cached) CacheStats() CacheStats    { return c.compile.Stats() }
func (c *cached) RunCacheStats() CacheStats { return c.run.Stats() }

func (c *cached) ResetCache() {
	c.compile.Reset()
	c.run.Reset()
}

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
