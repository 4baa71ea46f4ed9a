package memo

import (
	"strconv"
	"sync"
	"testing"
)

func TestByteLRUGetPut(t *testing.T) {
	c := NewByteLRU[string, string](100)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("a", "alpha", 10)
	if v, ok := c.Get("a"); !ok || v != "alpha" {
		t.Fatalf("Get(a) = %q, %v; want alpha, true", v, ok)
	}
	// Replacement re-accounts the entry's size, not just its value.
	c.Put("a", "ALPHA", 60)
	if v, ok := c.Get("a"); !ok || v != "ALPHA" {
		t.Fatalf("Get(a) after replace = %q, %v", v, ok)
	}
	st := c.Stats()
	if st.Bytes != 60 || st.Entries != 1 {
		t.Errorf("stats after replace = %+v, want bytes 60, entries 1", st)
	}
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1", st.Hits, st.Misses)
	}
}

func TestByteLRUEvictsColdEnd(t *testing.T) {
	c := NewByteLRU[string, int](100)
	c.Put("a", 1, 40)
	c.Put("b", 2, 40)
	c.Get("a") // a is now warmer than b
	c.Put("c", 3, 40)
	if _, ok := c.Get("b"); ok {
		t.Error("b (coldest) survived eviction")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted, want kept", k)
		}
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}

func TestByteLRUOversizedEntryNotCached(t *testing.T) {
	c := NewByteLRU[string, int](50)
	c.Put("a", 1, 10)
	c.Put("huge", 2, 51)
	if _, ok := c.Get("huge"); ok {
		t.Error("over-budget entry was cached")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("existing entry evicted by a rejected oversized insert")
	}
}

func TestByteLRUConcurrent(t *testing.T) {
	c := NewByteLRU[string, int](1 << 12)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := strconv.Itoa(i % 32)
				c.Put(k, i, 64)
				c.Get(k)
			}
		}()
	}
	wg.Wait()
	if n := c.Stats().Entries; n == 0 || n > 32 {
		t.Errorf("Entries = %d after concurrent churn", n)
	}
}
