package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dabench/internal/platform"
)

func TestMapPreservesOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	outs, err := Map(context.Background(), items, func(_ context.Context, i, v int) (int, error) {
		return v * v, nil
	}, Workers(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(items) {
		t.Fatalf("got %d outcomes for %d items", len(outs), len(items))
	}
	for i, o := range outs {
		if o.Err != nil || o.Value != i*i {
			t.Fatalf("outs[%d] = %+v, want %d", i, o, i*i)
		}
	}
}

func TestMapPassesIndex(t *testing.T) {
	labels := []string{"a", "b", "c"}
	outs, err := Map(context.Background(), []int{10, 20, 30}, func(_ context.Context, i, v int) (string, error) {
		return fmt.Sprintf("%s=%d", labels[i], v), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a=10", "b=20", "c=30"}
	for i, o := range outs {
		if o.Value != want[i] {
			t.Errorf("outs[%d] = %q, want %q", i, o.Value, want[i])
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var active, peak atomic.Int64
	items := make([]int, 64)
	_, err := Map(context.Background(), items, func(_ context.Context, _, _ int) (int, error) {
		n := active.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		active.Add(-1)
		return 0, nil
	}, Workers(workers))
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent workers, bound is %d", p, workers)
	}
}

func TestMapToleratesCompileFailures(t *testing.T) {
	items := []int{1, 2, 3, 4}
	outs, err := Map(context.Background(), items, func(_ context.Context, _, v int) (int, error) {
		if v%2 == 0 {
			return 0, &platform.CompileError{Platform: "test", Reason: "no fit"}
		}
		return v * 10, nil
	}, Workers(4))
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		wantFail := items[i]%2 == 0
		if o.Failed() != wantFail {
			t.Errorf("outs[%d].Failed() = %v, want %v", i, o.Failed(), wantFail)
		}
		if !wantFail && o.Value != items[i]*10 {
			t.Errorf("outs[%d].Value = %d", i, o.Value)
		}
	}
}

// trackCalls wraps a MapN point function so a test can tell whether
// any call is in flight, or starts, after MapN has returned.
type trackCalls struct {
	active   atomic.Int64
	returned atomic.Bool
	late     atomic.Int64
}

func (c *trackCalls) wrap(fn func(ctx context.Context, i int) (int, error)) func(ctx context.Context, i int) (int, error) {
	return func(ctx context.Context, i int) (int, error) {
		if c.returned.Load() {
			c.late.Add(1)
		}
		c.active.Add(1)
		defer c.active.Add(-1)
		return fn(ctx, i)
	}
}

// checkStopped requires that MapN left nothing running: no call in
// flight at its return, none started after it, and the goroutine count
// back to before. A helper that has signalled its WaitGroup may still
// be exiting for a moment, so the count gets a second to settle.
func (c *trackCalls) checkStopped(t *testing.T, goroutinesBefore int) {
	t.Helper()
	if n := c.active.Load(); n != 0 {
		t.Errorf("%d calls still running when MapN returned", n)
	}
	c.returned.Store(true)
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > goroutinesBefore && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutinesBefore {
		t.Errorf("%d goroutines after MapN returned, %d before: a helper is still running", n, goroutinesBefore)
	}
	if n := c.late.Load(); n != 0 {
		t.Errorf("%d calls started after MapN returned", n)
	}
}

func TestMapHardErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int64
	var calls trackCalls
	items := make([]int, 1000)
	before := runtime.NumGoroutine()
	point := calls.wrap(func(ctx context.Context, i int) (int, error) {
		started.Add(1)
		if i == 3 {
			return 0, boom
		}
		select {
		case <-ctx.Done():
		case <-time.After(2 * time.Millisecond):
		}
		return 0, nil
	})
	outs, err := Map(context.Background(), items, func(ctx context.Context, i, _ int) (int, error) {
		return point(ctx, i)
	}, Workers(2))
	calls.checkStopped(t, before)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if outs != nil {
		t.Error("failed sweep should return nil outcomes")
	}
	if n := started.Load(); n == int64(len(items)) {
		t.Error("hard error did not stop the sweep")
	}
}

func TestMapLowestIndexErrorWins(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	var release sync.WaitGroup
	release.Add(1)
	_, err := Map(context.Background(), []int{0, 1}, func(_ context.Context, i, _ int) (int, error) {
		if i == 0 {
			release.Wait() // ensure index 1 fails first
			return 0, errLow
		}
		defer release.Done()
		return 0, errHigh
	}, Workers(2), Tolerating(nil))
	if !errors.Is(err, errLow) {
		t.Errorf("err = %v, want the lowest-index error", err)
	}
}

func TestMapContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items := make([]int, 50)
	var calls atomic.Int64
	_, err := Map(ctx, items, func(_ context.Context, _, _ int) (int, error) {
		calls.Add(1)
		return 0, nil
	}, Workers(4))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("fn ran %d times on an already-cancelled context", n)
	}
}

func TestMapEmptyAndSerial(t *testing.T) {
	outs, err := Map(context.Background(), nil, func(_ context.Context, _ int, _ struct{}) (int, error) {
		t.Fatal("fn called for empty input")
		return 0, nil
	})
	if err != nil || len(outs) != 0 {
		t.Fatalf("empty sweep: outs=%v err=%v", outs, err)
	}

	// Workers(1) must visit items strictly in order, on the calling
	// goroutine: no goroutine starts. The count inside fn is compared
	// with >, not !=, because a goroutine of an earlier test may still
	// be exiting and can only make it fall.
	var seen []int
	before := runtime.NumGoroutine()
	_, err = Map(context.Background(), []int{5, 6, 7}, func(_ context.Context, i, _ int) (int, error) {
		seen = append(seen, i)
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("point %d ran with %d goroutines, %d before the call: Workers(1) started one", i, n, before)
		}
		return 0, nil
	}, Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seen, []int{0, 1, 2}) {
		t.Fatalf("serial visit order %v", seen)
	}
}

func TestDefaultWorkers(t *testing.T) {
	if got := DefaultWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("automatic default = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	SetDefaultWorkers(3)
	if got := DefaultWorkers(); got != 3 {
		t.Errorf("explicit default = %d, want 3", got)
	}
	SetDefaultWorkers(0)
	if got := DefaultWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("reset default = %d, want GOMAXPROCS", got)
	}
}

func TestValues(t *testing.T) {
	outs := []Outcome[int]{{Value: 1}, {Value: 2}}
	vals := Values(outs)
	if len(vals) != 2 || vals[0] != 1 || vals[1] != 2 {
		t.Errorf("Values = %v", vals)
	}
}

// TestMapNMatchesMap pins the contract the job executor builds on:
// mapping over the index range [0, n) is observably identical to
// mapping over a materialized slice of the same points.
func TestMapNMatchesMap(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i * i
	}
	fromSlice, err := Map(context.Background(), items,
		func(_ context.Context, _ int, v int) (int, error) { return v + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	fromRange, err := MapN(context.Background(), len(items),
		func(_ context.Context, i int) (int, error) { return items[i] + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromSlice, fromRange) {
		t.Errorf("MapN diverged from Map:\n%v\n%v", fromRange, fromSlice)
	}
}

func TestMapNHardErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var calls trackCalls
	before := runtime.NumGoroutine()
	_, err := MapN(context.Background(), 64, calls.wrap(func(ctx context.Context, i int) (int, error) {
		if i == 3 {
			return 0, boom
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		default:
			return i, nil
		}
	}), Tolerating(nil))
	calls.checkStopped(t, before)
	if err != boom {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestMapNEmpty(t *testing.T) {
	outs, err := MapN(context.Background(), 0, func(context.Context, int) (int, error) {
		t.Fatal("fn ran for empty range")
		return 0, nil
	})
	if err != nil || len(outs) != 0 {
		t.Errorf("empty MapN = %v, %v", outs, err)
	}
}
