package memo

import (
	"errors"
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

// TestLen pins what the removed Len reported, through Do: every entry
// stays resolved until Reset, and Reset drops them all, so each key
// computed before it computes again after it.
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
