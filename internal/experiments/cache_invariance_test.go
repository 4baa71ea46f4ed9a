package experiments

import (
	"reflect"
	"sync"
	"testing"

	"dabench/internal/gpu"
	"dabench/internal/ipu"
	"dabench/internal/model"
	"dabench/internal/platform"
	"dabench/internal/precision"
	"dabench/internal/rdu"
	"dabench/internal/sweep"
	"dabench/internal/wse"
)

// TestColdWarmCacheInvariance is the determinism contract of both
// memoization tiers (graph → compile): a cold-cache render and a
// warm re-render of every experiment must be byte-identical, serially
// and on a wide pool. Run under -race in CI, this also exercises
// concurrent cache hits against in-flight misses.
func TestColdWarmCacheInvariance(t *testing.T) {
	defer sweep.SetDefaultWorkers(0)
	for _, workers := range []int{1, 8} {
		sweep.SetDefaultWorkers(workers)
		for _, id := range IDs() {
			runner := All()[id]

			ResetCaches()
			cold, err := runner(t.Context())
			if err != nil {
				t.Fatalf("workers=%d %s (cold): %v", workers, id, err)
			}
			warm, err := runner(t.Context())
			if err != nil {
				t.Fatalf("workers=%d %s (warm): %v", workers, id, err)
			}

			if got, want := render(t, warm), render(t, cold); got != want {
				t.Errorf("workers=%d %s: warm render diverges from cold:\n--- cold ---\n%s\n--- warm ---\n%s",
					workers, id, want, got)
			}
			if !reflect.DeepEqual(cold.Trace, warm.Trace) {
				t.Errorf("workers=%d %s: warm trace diverges from cold", workers, id)
			}
		}
	}
}

// TestCachedMatchesUncached pins the cached wrappers to the raw
// simulators: for representative specs on every platform, Compile and
// Run through platform.Cached must produce reports deeply equal to a
// fresh, cache-free simulator's.
func TestCachedMatchesUncached(t *testing.T) {
	cases := []struct {
		name string
		p    platform.Platform
		spec platform.TrainSpec
	}{
		{"wse", wse.New(), platform.TrainSpec{
			Model: model.GPT2Small(), Batch: 512, Seq: 1024, Precision: precision.FP16}},
		{"rdu-o1", rdu.New(), platform.TrainSpec{
			Model: model.LLaMA2_7B(), Batch: 8, Seq: 4096, Precision: precision.BF16,
			Par: platform.Parallelism{Mode: platform.ModeO1, TensorParallel: 2}}},
		{"rdu-o0", rdu.New(), platform.TrainSpec{
			Model: model.GPT2Small().WithLayers(8), Batch: 4, Seq: 1024, Precision: precision.BF16,
			Par: platform.Parallelism{Mode: platform.ModeO0}}},
		{"rdu-o3", rdu.New(), platform.TrainSpec{
			Model: model.GPT2Small().WithLayers(8), Batch: 4, Seq: 1024, Precision: precision.BF16,
			Par: platform.Parallelism{Mode: platform.ModeO3}}},
		{"ipu", ipu.New(), platform.TrainSpec{
			Model: model.GPT2Small().WithLayers(4), Batch: 2048, Seq: 1024, Precision: precision.FP16,
			Par: platform.Parallelism{PipelineParallel: 4}}},
		{"gpu", gpu.New(), platform.TrainSpec{
			Model: model.GPT2XL(), Batch: 64, Seq: 1024, Precision: precision.BF16,
			Par: platform.Parallelism{TensorParallel: 8, PipelineParallel: 1, DataParallel: 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			crRaw, err := tc.p.Compile(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			rrRaw, err := tc.p.Run(crRaw)
			if err != nil {
				t.Fatal(err)
			}

			c := platform.Cached(tc.p)
			// Twice, so the second pass is a compile-cache hit.
			for pass := 0; pass < 2; pass++ {
				cr, err := c.Compile(tc.spec)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(cr, crRaw) {
					t.Fatalf("pass %d: cached compile report diverges from uncached", pass)
				}
				rr, err := c.Run(cr)
				if err != nil {
					t.Fatal(err)
				}
				// The run reports embed different *CompileReport
				// pointers (cached vs raw); compare values.
				gotRun, wantRun := *rr, *rrRaw
				gotRun.Compile, wantRun.Compile = nil, nil
				if !reflect.DeepEqual(gotRun, wantRun) {
					t.Fatalf("pass %d: cached run report diverges from uncached", pass)
				}
			}
			if s := c.CacheStats(); s.Hits != 1 || s.Misses != 1 {
				t.Errorf("compile stats = %+v, want 1 hit / 1 miss", s)
			}
		})
	}
}

// TestConcurrentRunsOnSharedReport: Run is not memoized, so many Runs
// execute at once on the one *CompileReport the compile memo hands
// out. Each must equal a serial Run, and none may mutate the shared
// report (the -race run catches a write; the final comparison catches
// a lasting one).
func TestConcurrentRunsOnSharedReport(t *testing.T) {
	cases := []struct {
		name, platform string
		spec           platform.TrainSpec
	}{
		{"wse", "wse", platform.TrainSpec{
			Model: model.GPT2Small(), Batch: 512, Seq: 1024, Precision: precision.FP16}},
		{"rdu-o0", "rdu", platform.TrainSpec{
			Model: model.GPT2Small().WithLayers(8), Batch: 4, Seq: 1024, Precision: precision.BF16,
			Par: platform.Parallelism{Mode: platform.ModeO0}}},
		{"rdu-o1", "rdu", platform.TrainSpec{
			Model: model.LLaMA2_7B(), Batch: 8, Seq: 4096, Precision: precision.BF16,
			Par: platform.Parallelism{Mode: platform.ModeO1, TensorParallel: 2}}},
		{"rdu-o3", "rdu", platform.TrainSpec{
			Model: model.GPT2Small().WithLayers(8), Batch: 4, Seq: 1024, Precision: precision.BF16,
			Par: platform.Parallelism{Mode: platform.ModeO3}}},
		{"ipu", "ipu", platform.TrainSpec{
			Model: model.GPT2Small().WithLayers(4), Batch: 2048, Seq: 1024, Precision: precision.FP16,
			Par: platform.Parallelism{PipelineParallel: 4}}},
		{"gpu", "gpu", platform.TrainSpec{
			Model: model.GPT2XL(), Batch: 64, Seq: 1024, Precision: precision.BF16,
			Par: platform.Parallelism{TensorParallel: 8, PipelineParallel: 1, DataParallel: 1}}},
	}
	ResetCaches()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, ok := SharedPlatform(tc.platform)
			if !ok {
				t.Fatalf("no shared platform %q", tc.platform)
			}
			cr, err := p.Compile(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := p.Run(cr)
			if err != nil {
				t.Fatal(err)
			}
			want := *serial
			want.Compile = nil

			const callers = 64
			got := make([]*platform.RunReport, callers)
			errs := make([]error, callers)
			var wg sync.WaitGroup
			start := make(chan struct{})
			for i := range callers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					got[i], errs[i] = p.Run(cr)
				}()
			}
			close(start)
			wg.Wait()
			for i, rr := range got {
				if errs[i] != nil {
					t.Fatalf("run %d: %v", i, errs[i])
				}
				v := *rr
				v.Compile = nil
				if !reflect.DeepEqual(v, want) {
					t.Fatalf("run %d diverges from the serial run", i)
				}
			}
			fresh, err := p.Unwrap().Compile(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cr, fresh) {
				t.Error("concurrent runs mutated the shared compile report")
			}
		})
	}
}

// TestResultCarriesTierStats asserts the instrument wrapper accounts
// both tiers, and that warm re-runs are pure hits on every tier that
// saw traffic.
func TestResultCarriesTierStats(t *testing.T) {
	ResetCaches()
	// figure7 drives the RDU mode grid: compile misses plus graph-cache
	// sharing between O0 and O1.
	cold, err := All()["figure7"](t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cache.Misses == 0 {
		t.Errorf("cold run reported no compile misses: %+v", cold.Cache)
	}
	if cold.GraphCache.Misses == 0 {
		t.Errorf("cold run reported no graph builds: %+v", cold.GraphCache)
	}
	if cold.GraphCache.Hits == 0 {
		t.Errorf("O0/O1 grids share byte-identical graphs, want graph hits: %+v", cold.GraphCache)
	}

	warm, err := All()["figure7"](t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache.Misses != 0 || warm.Cache.Hits == 0 {
		t.Errorf("warm compile stats = %+v, want pure hits", warm.Cache)
	}
	if warm.GraphCache.Misses != 0 {
		t.Errorf("warm run rebuilt graphs: %+v", warm.GraphCache)
	}
}
