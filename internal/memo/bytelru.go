package memo

import (
	"sync"

	"dabench/internal/cachestats"
)

// byteNode is one ByteLRU entry on the intrusive recency list.
type byteNode[K comparable, V any] struct {
	key        K
	val        V
	size       int64
	prev, next *byteNode[K, V]
}

// ByteLRU is a byte-budgeted LRU cache: every entry carries an
// explicit size, and inserts evict from the cold end until the total
// is back under budget. It is the shape the server's response-byte
// tier needs, which the singleflight Cache is not: entries here are
// plain values (no in-flight coalescing — the caller's slow path
// already coalesces on the memo cells below), recency matters, and the
// bound is bytes, not entries.
//
// The zero value is not usable; create with NewByteLRU. Safe for
// concurrent use. Get is allocation-free — it is on the warm serve
// hot path.
type ByteLRU[K comparable, V any] struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	entries map[K]*byteNode[K, V]
	// head is the most recently used node, tail the eviction candidate.
	head, tail *byteNode[K, V]

	hits, misses, evictions int64
}

// NewByteLRU returns an empty cache bounded to budget bytes of
// caller-declared entry sizes. budget must be positive: a caller that
// wants the tier off holds no cache at all rather than a zero-budget
// one.
func NewByteLRU[K comparable, V any](budget int64) *ByteLRU[K, V] {
	if budget <= 0 {
		panic("memo: ByteLRU budget must be positive")
	}
	return &ByteLRU[K, V]{budget: budget, entries: map[K]*byteNode[K, V]{}}
}

// Get returns the cached value for key, marking it most recently used.
func (c *ByteLRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.entries[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.moveToFrontLocked(n)
	return n.val, true
}

// Put inserts (or replaces) key with val accounted at size bytes,
// evicting least-recently-used entries as needed. An entry larger than
// the whole budget is not cached — inserting it would only evict
// everything else and then itself.
func (c *ByteLRU[K, V]) Put(key K, val V, size int64) {
	if size < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.budget {
		return
	}
	if n, ok := c.entries[key]; ok {
		c.bytes += size - n.size
		n.val, n.size = val, size
		c.moveToFrontLocked(n)
	} else {
		n = &byteNode[K, V]{key: key, val: val, size: size}
		c.entries[key] = n
		c.bytes += size
		c.pushFrontLocked(n)
	}
	for c.bytes > c.budget && c.tail != nil {
		c.evictions++
		c.bytes -= c.tail.size
		delete(c.entries, c.tail.key)
		c.unlinkLocked(c.tail)
	}
}

// LookupBytes is Get for a string-keyed cache whose caller holds the
// key as bytes: the map index uses Go's no-copy string(b) lookup, so
// the warm serve path pays zero allocations even for the key. The
// semantics are identical to Get — a hit marks the entry most recently
// used, and both outcomes count in the hit/miss totals.
func LookupBytes[V any](c *ByteLRU[string, V], key []byte) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.entries[string(key)]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.moveToFrontLocked(n)
	return n.val, true
}

// Stats returns the current counters and size gauges.
func (c *ByteLRU[K, V]) Stats() cachestats.ByteStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cachestats.ByteStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: int64(len(c.entries)), Bytes: c.bytes, BudgetBytes: c.budget,
	}
}

func (c *ByteLRU[K, V]) pushFrontLocked(n *byteNode[K, V]) {
	n.prev, n.next = nil, c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *ByteLRU[K, V]) unlinkLocked(n *byteNode[K, V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *ByteLRU[K, V]) moveToFrontLocked(n *byteNode[K, V]) {
	if c.head == n {
		return
	}
	c.unlinkLocked(n)
	c.pushFrontLocked(n)
}
