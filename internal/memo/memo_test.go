package memo

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dabench/internal/cachestats"
)

func TestDoMemoizes(t *testing.T) {
	c := New[string, int]()
	var calls atomic.Int64
	fn := func() (int, error) { calls.Add(1); return 42, nil }
	for i := 0; i < 3; i++ {
		v, err := c.Do("k", fn)
		if err != nil || v != 42 {
			t.Fatalf("Do = %v, %v", v, err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("fn ran %d times, want 1", n)
	}
	if s := c.Stats(); s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss", s)
	}
}

func TestDoCachesErrors(t *testing.T) {
	c := New[string, int]()
	boom := errors.New("boom")
	var calls atomic.Int64
	for i := 0; i < 3; i++ {
		if _, err := c.Do("k", func() (int, error) { calls.Add(1); return 0, boom }); err != boom {
			t.Fatalf("err = %v, want boom", err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("failing fn ran %d times, want 1 (errors are cached)", n)
	}
}

func TestDoSingleflight(t *testing.T) {
	c := New[string, int]()
	var calls atomic.Int64
	const callers = 64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, err := c.Do("k", func() (int, error) { calls.Add(1); return 7, nil })
			if err != nil || v != 7 {
				t.Errorf("Do = %v, %v", v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("concurrent identical calls ran %d times, want 1", n)
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != callers-1 {
		t.Errorf("stats = %+v, want %d hits / 1 miss", s, callers-1)
	}
}

func TestReset(t *testing.T) {
	c := New[string, int]()
	if _, err := c.Do("k", func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	if s := c.Stats(); s != (cachestats.Stats{}) {
		t.Errorf("stats after reset = %+v", s)
	}
	var calls atomic.Int64
	if _, err := c.Do("k", func() (int, error) { calls.Add(1); return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Error("reset cache still deduped")
	}
}

// TestDoPanicPoisonsKey guards the wedge the defer exists for: a
// panicking fn must release waiters with ErrPanicked instead of
// leaving them blocked on a never-closed done channel.
func TestDoPanicPoisonsKey(t *testing.T) {
	c := New[string, int]()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the running caller")
			}
		}()
		c.Do("k", func() (int, error) { panic("boom") })
	}()
	// Later callers must not block, and must see the poisoned outcome.
	done := make(chan error, 1)
	go func() {
		_, err := c.Do("k", func() (int, error) { return 1, nil })
		done <- err
	}()
	if err := <-done; !errors.Is(err, ErrPanicked) {
		t.Errorf("poisoned key returned %v, want ErrPanicked", err)
	}
}

// TestLen pins what the removed Len reported, through Do: an entry
// within the two generations stays resolved until Reset, and Reset
// drops them all, so each key computed before it computes again after
// it.
func TestLen(t *testing.T) {
	c := New[string, int]()
	var calls atomic.Int64
	compute := func() (int, error) { calls.Add(1); return 1, nil }
	for _, k := range []string{"a", "b", "a", "b"} {
		_, _ = c.Do(k, compute)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("computed %d times before Reset, want 2", n)
	}
	c.Reset()
	for _, k := range []string{"a", "b"} {
		_, _ = c.Do(k, compute)
	}
	if n := calls.Load(); n != 4 {
		t.Errorf("computed %d times after Reset, want 4 (both keys again)", n)
	}
}

// size reports how many entries both generations hold.
func (c *Cache[K, V]) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries) + len(c.old)
}

// counted returns a compute function for c that counts its calls per key.
func counted(calls map[int]int) func(int) func() (int, error) {
	return func(k int) func() (int, error) {
		return func() (int, error) { calls[k]++; return k, nil }
	}
}

// TestGenerationsKeepTwo: a key inserted within the last two
// generations hits; one inserted earlier has been dropped and
// recomputes.
func TestGenerationsKeepTwo(t *testing.T) {
	c := New[int, int]()
	calls := map[int]int{}
	fn := counted(calls)
	// Keys 0..3g-1: key 0 sits in a generation that has rotated out
	// twice by the time key 3g-1 lands; key g sits in the previous one.
	for k := 0; k < 3*generation; k++ {
		_, _ = c.Do(k, fn(k))
	}
	if _, _ = c.Do(generation, fn(generation)); calls[generation] != 1 {
		t.Errorf("key from the previous generation computed %d times, want 1 (a hit)", calls[generation])
	}
	if _, _ = c.Do(3*generation-1, fn(3*generation-1)); calls[3*generation-1] != 1 {
		t.Errorf("key from the current generation computed %d times, want 1", calls[3*generation-1])
	}
	if _, _ = c.Do(0, fn(0)); calls[0] != 2 {
		t.Errorf("key from two generations back computed %d times, want 2 (recomputed)", calls[0])
	}
}

// TestPreviousGenerationHitIsPromoted: a hit in the previous generation
// moves the key into the current one, so it outlives the next rotation
// while its untouched neighbours do not.
func TestPreviousGenerationHitIsPromoted(t *testing.T) {
	c := New[int, int]()
	calls := map[int]int{}
	fn := counted(calls)
	for k := 0; k < 2*generation; k++ { // keys 0..g-1 now in old
		_, _ = c.Do(k, fn(k))
	}
	_, _ = c.Do(0, fn(0)) // promoted: a hit in old
	if calls[0] != 1 {
		t.Fatalf("key 0 computed %d times before the rotation, want 1", calls[0])
	}
	// Fill the current generation so old (keys 0..g-1 bar 0) is dropped.
	for k := 2 * generation; k < 3*generation; k++ {
		_, _ = c.Do(k, fn(k))
	}
	_, _ = c.Do(0, fn(0))
	_, _ = c.Do(1, fn(1))
	if calls[0] != 1 {
		t.Errorf("promoted key computed %d times, want 1 (it survived the rotation)", calls[0])
	}
	if calls[1] != 2 {
		t.Errorf("unpromoted neighbour computed %d times, want 2 (dropped with its generation)", calls[1])
	}
}

// TestSingleflightAcrossRotations: concurrent callers of an in-flight
// key share one call even while other keys rotate the generations out
// from under it, and a caller arriving after the entry was dropped
// recomputes.
func TestSingleflightAcrossRotations(t *testing.T) {
	c := New[int, int]()
	var calls atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})
	slow := func() (int, error) {
		if calls.Add(1) == 1 {
			close(started)
		}
		<-release
		return 7, nil
	}
	const waiters = 16
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if v, err := c.Do(-1, slow); v != 7 || err != nil {
			t.Errorf("runner got %v, %v", v, err)
		}
	}()
	<-started
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := c.Do(-1, slow); v != 7 || err != nil {
				t.Errorf("waiter got %v, %v", v, err)
			}
		}()
	}
	// Wait until every waiter holds the in-flight entry (each counts a
	// hit), then rotate it out with other keys.
	for c.Stats().Hits < waiters {
		runtime.Gosched()
	}
	for k := 0; k < 2*generation; k++ {
		_, _ = c.Do(k, func() (int, error) { return k, nil })
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("in-flight key ran %d times, want 1 shared call", n)
	}
	if v, err := c.Do(-1, slow); v != 7 || err != nil || calls.Load() != 2 {
		t.Errorf("after the rotation: %v, %v and %d calls, want a recompute (2)", v, err, calls.Load())
	}
}

// TestResetEmptiesBothGenerations: Reset drops the previous generation
// as well as the current one.
func TestResetEmptiesBothGenerations(t *testing.T) {
	c := New[int, int]()
	calls := map[int]int{}
	fn := counted(calls)
	for k := 0; k < generation+1; k++ { // key 0 now in old
		_, _ = c.Do(k, fn(k))
	}
	c.Reset()
	if n := c.size(); n != 0 {
		t.Errorf("%d entries after Reset, want 0", n)
	}
	_, _ = c.Do(0, fn(0))
	_, _ = c.Do(generation, fn(generation))
	if calls[0] != 2 || calls[generation] != 2 {
		t.Errorf("after Reset keys computed %d and %d times, want 2 each", calls[0], calls[generation])
	}
}

// TestPanicPoisonsForTwoGenerations: a panicked key serves ErrPanicked
// while it stays within the two generations, then recomputes.
func TestPanicPoisonsForTwoGenerations(t *testing.T) {
	c := New[int, int]()
	func() {
		defer func() { _ = recover() }()
		_, _ = c.Do(-1, func() (int, error) { panic("boom") })
	}()
	for k := 0; k < generation; k++ { // -1 rotates into old
		_, _ = c.Do(k, func() (int, error) { return k, nil })
	}
	if _, err := c.Do(-1, func() (int, error) { return 1, nil }); !errors.Is(err, ErrPanicked) {
		t.Fatalf("poisoned key in the previous generation returned %v, want ErrPanicked", err)
	}
	// That lookup promoted -1, so two more generations' worth of keys
	// pass before it is gone.
	for k := generation; k < 3*generation; k++ {
		_, _ = c.Do(k, func() (int, error) { return k, nil })
	}
	if v, err := c.Do(-1, func() (int, error) { return 1, nil }); err != nil || v != 1 {
		t.Errorf("poisoned key two generations on = %v, %v; want a recompute", v, err)
	}
}

// TestCacheIsBounded: however many distinct keys pass through, the
// cache holds at most two generations.
func TestCacheIsBounded(t *testing.T) {
	c := New[int, int]()
	for k := 0; k < 10000; k++ {
		_, _ = c.Do(k, func() (int, error) { return k, nil })
		if n := c.size(); n > 2*generation {
			t.Fatalf("%d entries after %d keys, want at most %d", n, k+1, 2*generation)
		}
	}
	if s := c.Stats(); s.Misses != 10000 || s.Hits != 0 {
		t.Errorf("stats = %+v, want 10000 misses", s)
	}
}
