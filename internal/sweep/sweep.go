// Package sweep is the concurrent sweep engine behind every Tier-2
// analysis and experiment runner. The calling goroutine runs sweep
// points itself, beside up to workers-1 helper goroutines; each claims
// its next index from one shared counter and writes the result into
// that index's slot, so results stay exactly as ordered — and therefore
// exactly as rendered — as the serial loops the engine replaces.
//
// The engine distinguishes two failure classes, mirroring the
// framework's own semantics:
//
//   - Tolerated errors (by default placement failures, the paper's
//     "Fail" table entries) are findings: they are recorded in the
//     point's Outcome and the sweep continues.
//   - Hard errors (invalid input, simulator bugs) cancel the sweep, so
//     no further point starts; the one at the lowest index is returned.
//
// The worker count defaults to runtime.GOMAXPROCS(0) and can be
// overridden per call with Workers or process-wide with
// SetDefaultWorkers (the CLI's -parallel flag). At 1 no goroutine
// starts: the caller runs the points in index order, the serial path
// itself, which the determinism tests compare with parallel runs.
package sweep

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"dabench/internal/platform"
)

// defaultWorkers holds the process-wide override; <= 0 means
// "automatic" (GOMAXPROCS at call time).
var defaultWorkers atomic.Int64

// MaxWorkers is the upper clamp on the process-wide pool size. The
// pool is CPU-bound (simulator math, no blocking I/O), so anything
// past this is goroutine bloat, not throughput; flag validation in the
// CLIs rejects larger values and SetDefaultWorkers clamps them.
const MaxWorkers = 4096

// SetDefaultWorkers sets the process-wide default pool size used when a
// Map call passes no Workers option. n <= 0 restores the automatic
// default of runtime.GOMAXPROCS(0); n > MaxWorkers clamps to
// MaxWorkers.
func SetDefaultWorkers(n int) {
	switch {
	case n < 0:
		n = 0
	case n > MaxWorkers:
		n = MaxWorkers
	}
	defaultWorkers.Store(int64(n))
}

// DefaultWorkers returns the effective default pool size.
func DefaultWorkers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Outcome couples one sweep point's value with its tolerated error.
// Err is non-nil only when fn returned an error the sweep's tolerance
// predicate accepted (a recorded finding, not a fault).
type Outcome[R any] struct {
	Value R
	Err   error
}

// Failed reports whether the point was a tolerated failure.
func (o Outcome[R]) Failed() bool { return o.Err != nil }

// Option configures one Map call.
type Option func(*options)

type options struct {
	workers  int
	tolerate func(error) bool
}

// Workers bounds this call at n concurrent workers, the caller
// included.
func Workers(n int) Option {
	return func(o *options) { o.workers = n }
}

// Tolerating replaces the tolerated-error predicate (default:
// platform.IsCompileFailure). Tolerating(nil) makes every error hard.
func Tolerating(f func(error) bool) Option {
	return func(o *options) {
		if f == nil {
			f = func(error) bool { return false }
		}
		o.tolerate = f
	}
}

// Map applies fn to every item and returns the outcomes in input order.
// fn receives the item's index alongside the item so callers can pair
// results with parallel label slices.
//
// A tolerated error (see Tolerating) is stored in that index's Outcome
// together with whatever partial value fn returned. A hard error
// cancels the sweep's context, so no further point starts, and is
// returned once the running points finish; when several points hit
// hard errors the one at the lowest index wins, and cancellation
// fallout (context.Canceled / DeadlineExceeded surfaced by
// ctx-respecting fns after another point failed) never outranks a real
// error — so the reported error does not depend on scheduling.
// Cancellation of the caller's ctx is returned as ctx.Err() unless a
// hard error was also observed.
func Map[T, R any](ctx context.Context, items []T, fn func(ctx context.Context, i int, item T) (R, error), opts ...Option) ([]Outcome[R], error) {
	return MapN(ctx, len(items), func(ctx context.Context, i int) (R, error) {
		return fn(ctx, i, items[i])
	}, opts...)
}

// MapN is Map over the index range [0, n) instead of a materialized
// slice: fn derives the i-th sweep point itself. It exists for sweeps
// whose cross products are generated rather than stored — the async
// job executor walks arbitrarily large products chunk by chunk without
// ever holding the full spec slice in memory.
func MapN[R any](ctx context.Context, n int, fn func(ctx context.Context, i int) (R, error), opts ...Option) ([]Outcome[R], error) {
	o := options{workers: DefaultWorkers(), tolerate: platform.IsCompileFailure}
	for _, opt := range opts {
		opt(&o)
	}
	out := make([]Outcome[R], n)
	if n == 0 {
		return out, ctx.Err()
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next      atomic.Int64
		mu        sync.Mutex
		firstIdx  = -1
		firstErr  error
		cancelErr error
	)
	fail := func(i int, err error) {
		mu.Lock()
		// Cancellation fallout from a ctx-respecting fn must not mask
		// the root-cause error another point reported: real errors
		// always outrank context errors, whatever their indices.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if cancelErr == nil {
				cancelErr = err
			}
		} else if firstIdx == -1 || i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		cancel()
	}
	work := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			v, err := fn(ctx, i)
			if err != nil && !o.tolerate(err) {
				fail(i, err)
				return
			}
			out[i] = Outcome[R]{Value: v, Err: err}
		}
	}

	var wg sync.WaitGroup
	for w := 1; w < min(o.workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	if err := parent.Err(); err != nil {
		return nil, err
	}
	if cancelErr != nil {
		return nil, cancelErr
	}
	return out, nil
}

// Values unwraps a fully successful sweep into its plain values,
// dropping the Outcome envelopes. It is a convenience for callers whose
// fn never returns tolerated errors (failures already folded into R).
func Values[R any](outs []Outcome[R]) []R {
	vals := make([]R, len(outs))
	for i, o := range outs {
		vals[i] = o.Value
	}
	return vals
}
