package platform

import (
	"sync"
	"sync/atomic"
	"testing"

	"dabench/internal/model"
	"dabench/internal/precision"
)

// countingPlatform is a deterministic fake that counts Compile and Run
// calls.
type countingPlatform struct {
	compiles atomic.Int64
	runs     atomic.Int64
	fail     bool // Compile reports a placement failure
}

func (p *countingPlatform) Name() string       { return "fake" }
func (p *countingPlatform) HardwareSpec() Spec { return Spec{Name: "fake"} }

func (p *countingPlatform) Compile(spec TrainSpec) (*CompileReport, error) {
	p.compiles.Add(1)
	if p.fail {
		return nil, &CompileError{Platform: "fake", Reason: "does not fit"}
	}
	return &CompileReport{Platform: "fake", Spec: spec}, nil
}

func (p *countingPlatform) Run(cr *CompileReport) (*RunReport, error) {
	p.runs.Add(1)
	return &RunReport{Compile: cr, TokensPerSec: 1}, nil
}

// countingImbalancer adds a native LI path.
type countingImbalancer struct{ countingPlatform }

func (p *countingImbalancer) LoadImbalance(*CompileReport) (float64, error) { return 0.5, nil }

func testSpec(batch int) TrainSpec {
	return TrainSpec{Model: model.GPT2Small(), Batch: batch, Seq: 1024, Precision: precision.FP16}
}

func TestCachedDedupsIdenticalSpecs(t *testing.T) {
	under := &countingPlatform{}
	c := Cached(under)

	cr1, err := c.Compile(testSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	cr2, err := c.Compile(testSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	if cr1 != cr2 {
		t.Error("cache should return the shared report")
	}
	if _, err := c.Compile(testSpec(16)); err != nil {
		t.Fatal(err)
	}
	if n := under.compiles.Load(); n != 2 {
		t.Errorf("underlying compiled %d times, want 2", n)
	}
	if s := c.CacheStats(); s.Hits != 1 || s.Misses != 2 {
		t.Errorf("stats = %+v, want 1 hit / 2 misses", s)
	}
	if r := c.CacheStats().HitRate(); r < 0.33 || r > 0.34 {
		t.Errorf("hit rate = %v", r)
	}
}

func TestCachedCachesCompileFailures(t *testing.T) {
	under := &countingPlatform{fail: true}
	c := Cached(under)
	for i := 0; i < 3; i++ {
		if _, err := c.Compile(testSpec(8)); !IsCompileFailure(err) {
			t.Fatalf("want compile failure, got %v", err)
		}
	}
	if n := under.compiles.Load(); n != 1 {
		t.Errorf("failure compiled %d times, want 1 (failures are deterministic findings)", n)
	}
}

func TestCachedSingleflight(t *testing.T) {
	under := &countingPlatform{}
	c := Cached(under)
	const callers = 64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := c.Compile(testSpec(8)); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := under.compiles.Load(); n != 1 {
		t.Errorf("concurrent identical compiles ran %d times, want 1", n)
	}
	s := c.CacheStats()
	if s.Misses != 1 || s.Hits != callers-1 {
		t.Errorf("stats = %+v, want %d hits / 1 miss", s, callers-1)
	}
}

func TestCachedReset(t *testing.T) {
	under := &countingPlatform{}
	c := Cached(under)
	cr, err := c.Compile(testSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(cr); err != nil {
		t.Fatal(err)
	}
	c.ResetCache()
	if s := c.CacheStats(); s != (CacheStats{}) {
		t.Errorf("stats after reset = %+v", s)
	}
	if _, err := c.Compile(testSpec(8)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(cr); err != nil {
		t.Fatal(err)
	}
	if n := under.compiles.Load(); n != 2 {
		t.Errorf("reset cache still deduped: %d compiles", n)
	}
	if n := under.runs.Load(); n != 2 {
		t.Errorf("reset run cache still deduped: %d runs", n)
	}
}

// TestCachedRunIsNotMemoized: Run is a pure function that costs
// microseconds, so every call reaches the simulator, and Run traffic
// leaves the compile counters alone.
func TestCachedRunIsNotMemoized(t *testing.T) {
	under := &countingPlatform{}
	c := Cached(under)
	cr1, err := c.Compile(testSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	// A compile-cache hit hands back the same pointer; its run still
	// executes.
	cr2, err := c.Compile(testSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	rr1, err := c.Run(cr1)
	if err != nil {
		t.Fatal(err)
	}
	rr2, err := c.Run(cr2)
	if err != nil {
		t.Fatal(err)
	}
	if rr1 == rr2 {
		t.Error("two Runs shared one report: the run was memoized")
	}
	if n := under.runs.Load(); n != 2 {
		t.Errorf("underlying ran %d times, want 2", n)
	}
	// Compile stats are untouched by Run traffic.
	if s := c.CacheStats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("compile stats polluted by runs: %+v", s)
	}
}

func TestCachedForwardsImbalancer(t *testing.T) {
	c := Cached(&countingImbalancer{})
	im, ok := c.(Imbalancer)
	if !ok {
		t.Fatal("cached imbalancer platform lost the Imbalancer interface")
	}
	li, err := im.LoadImbalance(nil)
	if err != nil || li != 0.5 {
		t.Errorf("LoadImbalance = %v, %v", li, err)
	}
	// A platform without the native path must NOT gain it.
	if _, ok := Cached(&countingPlatform{}).(Imbalancer); ok {
		t.Error("plain cached platform spuriously implements Imbalancer")
	}
	if Cached(&countingPlatform{}).Unwrap().Name() != "fake" {
		t.Error("Unwrap lost the underlying platform")
	}
}

func TestCacheStatsArithmetic(t *testing.T) {
	a := CacheStats{Hits: 5, Misses: 3}
	b := CacheStats{Hits: 2, Misses: 1}
	if d := a.Sub(b); d.Hits != 3 || d.Misses != 2 {
		t.Errorf("Sub = %+v", d)
	}
	if s := a.Add(b); s.Hits != 7 || s.Misses != 4 {
		t.Errorf("Add = %+v", s)
	}
	if (CacheStats{}).HitRate() != 0 {
		t.Error("empty hit rate should be 0")
	}
}

func TestTrainSpecKey(t *testing.T) {
	base := testSpec(8)
	if base.Key() != testSpec(8).Key() {
		t.Error("identical specs must share a key")
	}

	// Every observable knob must change the key.
	variants := map[string]TrainSpec{}
	v := base
	v.Batch = 16
	variants["batch"] = v
	v = base
	v.Seq = 2048
	variants["seq"] = v
	v = base
	v.Precision = precision.BF16
	variants["precision"] = v
	v = base
	v.Model = v.Model.WithLayers(7)
	variants["layers"] = v
	v = base
	v.Model = v.Model.WithHidden(1024)
	variants["hidden"] = v
	v = base
	v.Par.DataParallel = 4
	variants["dp"] = v
	v = base
	v.Par.TensorParallel = 2
	variants["tp"] = v
	v = base
	v.Par.PipelineParallel = 4
	variants["pp"] = v
	v = base
	v.Par.WeightStreaming = true
	variants["streaming"] = v
	v = base
	v.Par.Mode = ModeO3
	variants["mode"] = v
	v = base
	v.Par.LayerAssignment = []int{2, 2, 1}
	variants["assignment"] = v

	seen := map[string]string{base.Key(): "base"}
	for name, spec := range variants {
		k := spec.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %q collides with %q: %s", name, prev, k)
		}
		seen[k] = name
	}

	// LayerAssignment order matters (Figure 11c sweeps permutations).
	a, b := base, base
	a.Par.LayerAssignment = []int{2, 1, 1}
	b.Par.LayerAssignment = []int{1, 1, 2}
	if a.Key() == b.Key() {
		t.Error("layer-assignment permutations must not collide")
	}
}

// TestTrainSpecKeyEscapesName guards against delimiter forgery: a
// crafted Model.Name must not alias another spec's fingerprint.
func TestTrainSpecKeyEscapesName(t *testing.T) {
	honest := testSpec(8)
	honest.Model.HiddenSize = 1024
	forged := testSpec(8)
	forged.Model.Name = honest.Model.Name + `";fam=0;h=1024`
	if honest.Key() == forged.Key() {
		t.Error("crafted model name forged another spec's key")
	}
}
