// Package memo provides the generic singleflight memoization cell
// behind both cache tiers (graph build and compile): one
// lock/map/done-channel implementation with hit/miss counters, so
// pattern-level fixes land once instead of per tier.
package memo

import (
	"errors"
	"sync"
	"sync/atomic"

	"dabench/internal/cachestats"
)

// ErrPanicked is the cached outcome of a memoized call that panicked:
// the panic propagates to the caller that ran the function, while
// waiters (and later callers of the key, while it stays cached) receive
// this error instead of blocking forever on a done channel that never
// closes.
var ErrPanicked = errors.New("memo: memoized call panicked")

// generation bounds each of a Cache's two maps. One full regeneration
// of the paper's artifacts and library scenarios misses at most 73
// times in any one cache (the RDU's compile memo), so a generation of
// 128 keeps every in-process hit while capping each cache at 256
// entries however long a daemon runs.
const generation = 128

type entry[V any] struct {
	done chan struct{} // closed when val/err are final
	val  V
	err  error
}

// Cache is a concurrency-safe memoization table with singleflight
// semantics: the first caller of a key runs the function; concurrent
// callers of an in-flight key block until it finishes and then share
// the outcome. Both successes and errors are cached — callers must
// only memoize deterministic functions.
//
// Entries live in two generations of at most 128 each. A lookup checks
// the current map, then the previous one, and a hit in the previous one
// moves back into the current one. Inserting into a full current map
// first makes it the previous one, dropping the old previous map. An
// entry dropped while still computing finishes for the callers already
// waiting on it; a later caller recomputes, which is safe because the
// function is pure.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*entry[V] // current generation
	old     map[K]*entry[V] // previous generation
	hits    atomic.Int64
	misses  atomic.Int64
}

// New returns an empty cache.
func New[K comparable, V any]() *Cache[K, V] {
	return &Cache[K, V]{entries: map[K]*entry[V]{}}
}

// Do returns the memoized outcome for key, computing it with fn on
// first call. The entry's fields are written before its done channel
// closes and read only after receiving from it, so sharing the value
// across goroutines is race-free.
func (c *Cache[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		if e, ok = c.old[key]; ok {
			delete(c.old, key)
			c.insertLocked(key, e)
		}
	}
	if ok {
		c.mu.Unlock()
		c.hits.Add(1)
		<-e.done
		return e.val, e.err
	}
	// Pre-set the panic outcome: if fn panics the assignment below
	// never runs, the deferred close still releases waiters, and the
	// key stays poisoned with ErrPanicked rather than wedged for as
	// long as it stays within the two generations.
	e = &entry[V]{done: make(chan struct{}), err: ErrPanicked}
	c.insertLocked(key, e)
	c.mu.Unlock()
	c.misses.Add(1)
	defer close(e.done)
	e.val, e.err = fn()
	return e.val, e.err
}

// insertLocked adds e to the current generation, first rotating a full
// one into the previous slot. Caller holds mu.
func (c *Cache[K, V]) insertLocked(key K, e *entry[V]) {
	if len(c.entries) >= generation {
		c.old, c.entries = c.entries, map[K]*entry[V]{}
	}
	c.entries[key] = e
}

// Stats returns the current hit/miss counters.
func (c *Cache[K, V]) Stats() cachestats.Stats {
	return cachestats.Stats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}

// Reset drops every entry of both generations and zeroes the counters.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	c.entries, c.old = map[K]*entry[V]{}, nil
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
}
