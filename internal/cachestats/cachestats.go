// Package cachestats provides the hit/miss counter snapshot shared by
// both memoization tiers (graph build cache and compile cache). It
// sits below both internal/graph and internal/platform so neither
// layer has to import the other to report uniform stats.
package cachestats

// Stats is a snapshot of a cache's hit/miss counters. Snapshot is the
// wire form; Stats itself never crosses the API boundary.
type Stats struct {
	Hits   int64
	Misses int64
}

// Sub returns the counter deltas since an earlier snapshot.
func (s Stats) Sub(earlier Stats) Stats {
	return Stats{Hits: s.Hits - earlier.Hits, Misses: s.Misses - earlier.Misses}
}

// Add merges two snapshots.
func (s Stats) Add(o Stats) Stats {
	return Stats{Hits: s.Hits + o.Hits, Misses: s.Misses + o.Misses}
}

// HitRate returns hits over total lookups (0 when no lookups).
func (s Stats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// Snapshot is the wire form of one tier's counters: the raw counters
// plus the derived rate, so API consumers never recompute it.
type Snapshot struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// Snapshot derives the serializable view of the counters.
func (s Stats) Snapshot() Snapshot {
	return Snapshot{Hits: s.Hits, Misses: s.Misses, HitRate: s.HitRate()}
}

// ByteStats is the counter set of a byte-budgeted cache tier (the
// server's response-byte LRU): the usual hit/miss pair plus the size
// gauges its eviction budget works against.
type ByteStats struct {
	Hits        int64
	Misses      int64
	Evictions   int64
	Entries     int64
	Bytes       int64
	BudgetBytes int64
}

// HitRate returns hits over total lookups (0 when no lookups).
func (s ByteStats) HitRate() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// ByteSnapshot is the wire form of ByteStats.
type ByteSnapshot struct {
	Hits        int64   `json:"hits"`
	Misses      int64   `json:"misses"`
	HitRate     float64 `json:"hit_rate"`
	Entries     int64   `json:"entries"`
	Bytes       int64   `json:"bytes"`
	BudgetBytes int64   `json:"budget_bytes,omitempty"`
	Evictions   int64   `json:"evictions"`
}

// Snapshot derives the serializable view of the counters.
func (s ByteStats) Snapshot() ByteSnapshot {
	return ByteSnapshot{
		Hits: s.Hits, Misses: s.Misses, HitRate: s.HitRate(),
		Entries: s.Entries, Bytes: s.Bytes, BudgetBytes: s.BudgetBytes,
		Evictions: s.Evictions,
	}
}
