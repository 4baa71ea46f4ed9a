package platform

import (
	"sync"
	"testing"
)

// mapStore is an in-memory ResultStore: the wrapper-mechanics tests
// don't need a disk (internal/store has its own durability suite).
type mapStore struct {
	mu      sync.Mutex
	entries map[string]Stored
	loads   int
	stores  int
}

func newMapStore() *mapStore { return &mapStore{entries: map[string]Stored{}} }

func (m *mapStore) key(p, k string) string { return p + "\x00" + k }

func (m *mapStore) Load(p, k string) (Stored, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.loads++
	s, ok := m.entries[m.key(p, k)]
	return s, ok
}

func (m *mapStore) Store(p, k string, s Stored) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stores++
	m.entries[m.key(p, k)] = s
}

// TestStoreBackedRestartSkipsCompile is the warm-restart contract at
// the wrapper level: a second "process" (a fresh memo over a fresh
// simulator) sharing the first one's ResultStore must answer the same
// spec with zero Compile calls; its Run recomputes from the restored
// compile report.
func TestStoreBackedRestartSkipsCompile(t *testing.T) {
	rs := newMapStore()
	spec := testSpec(8)

	first := &countingPlatform{}
	c1 := CachedWithStore(first, rs)
	cr1, err := c1.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	rr1, err := c1.Run(cr1)
	if err != nil {
		t.Fatal(err)
	}

	second := &countingPlatform{}
	c2 := CachedWithStore(second, rs)
	cr2, err := c2.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	rr2, err := c2.Run(cr2)
	if err != nil {
		t.Fatal(err)
	}
	if second.compiles.Load() != 0 || second.runs.Load() != 1 {
		t.Errorf("restart: %d compiles, %d runs, want 0/1",
			second.compiles.Load(), second.runs.Load())
	}
	if cr2.Spec.Key() != cr1.Spec.Key() || rr2.TokensPerSec != rr1.TokensPerSec {
		t.Errorf("restored reports diverge: %+v vs %+v", rr2, rr1)
	}
	if rr2.Compile != cr2 {
		t.Error("restored run report not linked to restored compile report")
	}
}

// TestStoreBackedPersistsPlacementFailure: the paper's "Fail" entries
// are deterministic findings, so a restart must reproduce the
// CompileError from the store without consulting the simulator.
func TestStoreBackedPersistsPlacementFailure(t *testing.T) {
	rs := newMapStore()
	spec := testSpec(8)

	first := &countingPlatform{fail: true}
	if _, err := CachedWithStore(first, rs).Compile(spec); !IsCompileFailure(err) {
		t.Fatalf("want compile failure, got %v", err)
	}

	second := &countingPlatform{fail: true}
	_, err := CachedWithStore(second, rs).Compile(spec)
	if !IsCompileFailure(err) {
		t.Fatalf("restart lost the failure: %v", err)
	}
	if second.compiles.Load() != 0 {
		t.Errorf("restart re-ran a persisted failing compile %d times", second.compiles.Load())
	}
}

// TestStoreBackedWritesOnce: a computed outcome costs one store write.
// The compile miss runs the report and stores compile and run
// together; the caller's own Run recomputes and rewrites nothing.
func TestStoreBackedWritesOnce(t *testing.T) {
	spec := testSpec(8)

	t.Run("compile then run", func(t *testing.T) {
		rs := newMapStore()
		under := &countingPlatform{}
		c := CachedWithStore(under, rs)
		cr, err := c.Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		st, ok := rs.entries[rs.key("fake", spec.Key())]
		if !ok || st.Compile == nil || st.Run == nil || len(rs.entries) != 1 {
			t.Fatalf("after compile: stored = %+v, %v, %d entries (want one compile+run entry)", st, ok, len(rs.entries))
		}
		if rs.stores != 1 || under.runs.Load() != 1 {
			t.Fatalf("after compile: %d stores, %d runs, want 1/1", rs.stores, under.runs.Load())
		}
		if _, err := c.Run(cr); err != nil {
			t.Fatal(err)
		}
		if rs.stores != 1 || under.runs.Load() != 2 {
			t.Errorf("caller's Run: %d stores, %d runs, want 1/2", rs.stores, under.runs.Load())
		}
	})

	t.Run("compile only", func(t *testing.T) {
		rs := newMapStore()
		if _, err := CachedWithStore(&countingPlatform{}, rs).Compile(spec); err != nil {
			t.Fatal(err)
		}
		if st := rs.entries[rs.key("fake", spec.Key())]; rs.stores != 1 || st.Compile == nil {
			t.Errorf("compile-only caller: %d stores, entry %+v, want 1 persisted", rs.stores, st)
		}
	})

	t.Run("placement failure", func(t *testing.T) {
		rs := newMapStore()
		if _, err := CachedWithStore(&countingPlatform{fail: true}, rs).Compile(spec); !IsCompileFailure(err) {
			t.Fatalf("want compile failure, got %v", err)
		}
		st := rs.entries[rs.key("fake", spec.Key())]
		if rs.stores != 1 || !st.Failed || st.Compile != nil || st.Run != nil {
			t.Errorf("placement failure: %d stores, entry %+v, want one Failed entry", rs.stores, st)
		}
	})

	t.Run("run error", func(t *testing.T) {
		rs := newMapStore()
		under := &countingPlatform{runFail: true}
		c := CachedWithStore(under, rs)
		cr, err := c.Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		st := rs.entries[rs.key("fake", spec.Key())]
		if rs.stores != 1 || st.Compile == nil || st.Run != nil || st.Failed {
			t.Errorf("run error: %d stores, entry %+v, want one compile-only entry", rs.stores, st)
		}
		if _, err := c.Run(cr); err == nil {
			t.Error("caller's Run lost the run error")
		}
		if rs.stores != 1 || under.runs.Load() != 2 {
			t.Errorf("caller's Run after error: %d stores, %d runs, want 1/2", rs.stores, under.runs.Load())
		}
	})
}

// TestCachedWithNilStoreIsPlainCached guards the default path: Cached
// must behave exactly as before the L2 existed.
func TestCachedWithNilStoreIsPlainCached(t *testing.T) {
	under := &countingPlatform{}
	c := CachedWithStore(under, nil)
	cr, err := c.Compile(testSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(cr); err != nil {
		t.Fatal(err)
	}
	if under.compiles.Load() != 1 || under.runs.Load() != 1 {
		t.Errorf("nil-store wrapper: %d compiles / %d runs, want 1/1",
			under.compiles.Load(), under.runs.Load())
	}
}
