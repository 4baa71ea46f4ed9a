package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dabench/internal/model"
	"dabench/internal/platform"
	"dabench/internal/precision"
	"dabench/internal/units"
)

func testSpec(layers int) platform.TrainSpec {
	return platform.TrainSpec{
		Model: model.GPT2Small().WithLayers(layers), Batch: 512, Seq: 1024,
		Precision: precision.FP16,
	}
}

func testStored(layers int) platform.Stored {
	spec := testSpec(layers)
	cr := &platform.CompileReport{
		Platform:  "WSE-2",
		Spec:      spec,
		Allocated: map[platform.Resource]float64{platform.ResPE: 123.5},
		Capacity:  map[platform.Resource]float64{platform.ResPE: 850 * 994},
		Memory:    platform.MemoryUse{Capacity: 40 << 30, Weights: 1 << 20},
		Notes:     []string{"note"},
		Tasks: []platform.Task{{
			Name: "L0/attention", Kind: "kernel",
			Units:      platform.Units{PE: 17},
			Throughput: 3.25, Runtime: units.Seconds(0.125), Invocations: 2,
			FLOPs: 1e12, Traffic: 1e9,
		}},
	}
	rr := &platform.RunReport{
		Compile: cr, StepTime: 0.5, TokensPerSec: 1e6, SamplesPerSec: 1e3,
		Achieved: 2.5e14, Efficiency: 0.33, AI: 87.5,
	}
	return platform.Stored{Compile: cr, Run: rr}
}

func mustOpen(t *testing.T, dir string, budget int64) *Store {
	t.Helper()
	s, err := Open(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestMissOnUnknownKey(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	if _, ok := s.LoadRaw("WSE-2", "nope"); ok {
		t.Fatal("hit on unknown key")
	}
	if st := s.Stats(); st.RawMisses != 1 || st.RawHits != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestCorruptBlobIsAMiss is the corruption-tolerance contract: a blob
// that fails to verify is deleted and reported as a miss, never an
// error or a crash.
func TestCorruptBlobIsAMiss(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(12)
	s := mustOpen(t, dir, 0)
	s.StoreWithResponse("WSE-2", spec.Key(), testStored(12), []byte("resp-bytes"))
	s.Snapshot()
	s.Close()

	// Truncate the blob mid-frame — a torn write from a crashed process.
	name := address("WSE-2", spec.Key())
	path := filepath.Join(dir, name[:2], name+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, 0)
	if _, ok := s2.LoadRaw("WSE-2", spec.Key()); ok {
		t.Fatal("corrupt blob served as a hit")
	}
	st := s2.Stats()
	if st.Corrupt != 1 || st.RawMisses != 1 || st.Entries != 0 {
		t.Errorf("stats after corruption = %+v", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt blob not deleted")
	}
	// The deleted blob must not resurrect on the next lookup.
	if _, ok := s2.LoadRaw("WSE-2", spec.Key()); ok {
		t.Fatal("deleted blob resurrected")
	}
}

func TestEvictionHonorsBudget(t *testing.T) {
	dir := t.TempDir()
	// Size one entry, then budget for roughly three.
	probe := mustOpen(t, dir, 0)
	probe.Store("WSE-2", testSpec(1).Key(), testStored(1))
	probe.Snapshot()
	one := probe.Stats().Bytes
	if one <= 0 {
		t.Fatal("probe entry has no size")
	}
	probe.Close()

	s := mustOpen(t, dir, 3*one+one/2)
	for l := 2; l <= 8; l++ {
		s.Store("WSE-2", testSpec(l).Key(), testStored(l))
	}
	s.Snapshot()
	st := s.Stats()
	if st.Bytes > 3*one+one/2 {
		t.Errorf("bytes %d over budget %d", st.Bytes, 3*one+one/2)
	}
	if st.Evictions == 0 {
		t.Error("no evictions despite exceeding the budget")
	}
	// The most recently written entry must have survived.
	if _, err := os.Stat(pathFor(dir, "WSE-2", testSpec(8).Key())); err != nil {
		t.Error("newest entry was evicted")
	}
	// The oldest (the probe's layer-1 entry) must be gone.
	if _, err := os.Stat(pathFor(dir, "WSE-2", testSpec(1).Key())); !os.IsNotExist(err) {
		t.Error("oldest entry survived eviction")
	}
}

func TestOverwriteUpdatesNotDuplicates(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	spec := testSpec(12)
	st := testStored(12)
	s.Store("WSE-2", spec.Key(), platform.Stored{Compile: st.Compile}) // compile-only first
	s.Store("WSE-2", spec.Key(), st)                                   // then with the run report
	s.Snapshot()
	stats := s.Stats()
	if stats.Entries != 1 || stats.Puts != 2 {
		t.Errorf("stats = %+v, want 1 entry from 2 puts", stats)
	}
	got, err := diskBlob(dir, "WSE-2", spec.Key())
	if err != nil || got.Run == nil {
		t.Errorf("final entry lost the run report: %+v, %v", got, err)
	}
}

// diskBlob decodes the payload of the blob file on disk.
func diskBlob(dir, platformName, specKey string) (blob, error) {
	var b blob
	data, err := os.ReadFile(pathFor(dir, platformName, specKey))
	if err != nil {
		return b, err
	}
	payload, _, err := decodeFrame(data)
	if err != nil {
		return b, err
	}
	err = json.Unmarshal(payload, &b)
	return b, err
}

func TestStoreAfterCloseIsDropped(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Store("WSE-2", testSpec(1).Key(), testStored(1)) // must not panic or block
	s.Snapshot()                                       // must not block
}

// TestReadRecencySurvivesRestart is the LRU-recency regression: LoadRaw
// must refresh a hit blob's file mtime (debounced), because Open
// rebuilds eviction order from mtimes — without the refresh, a
// hot-but-old blob is evicted before a cold-but-newer one after a
// restart.
func TestReadRecencySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	hot, cold := testSpec(11), testSpec(12)
	resp := []byte("resp-bytes")
	s := mustOpen(t, dir, 0)
	s.StoreWithResponse("WSE-2", hot.Key(), testStored(11), resp)
	s.StoreWithResponse("WSE-2", cold.Key(), testStored(12), resp)
	s.Snapshot()
	one := s.Stats().Bytes / 2
	if one <= 0 {
		t.Fatal("probe entries have no size")
	}
	s.Close()

	// Age both blobs past the touch debounce; make hot the *older* of
	// the two so write-time order alone would evict it first.
	now := time.Now()
	hotPath := pathFor(dir, "WSE-2", hot.Key())
	coldPath := pathFor(dir, "WSE-2", cold.Key())
	if err := os.Chtimes(hotPath, now.Add(-2*time.Hour), now.Add(-2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(coldPath, now.Add(-time.Hour), now.Add(-time.Hour)); err != nil {
		t.Fatal(err)
	}

	// One life reads the hot blob: the hit must refresh its mtime.
	s2 := mustOpen(t, dir, 0)
	if _, ok := s2.LoadRaw("WSE-2", hot.Key()); !ok {
		t.Fatal("hot blob missing")
	}
	s2.Close()
	if fi, err := os.Stat(hotPath); err != nil || now.Sub(fi.ModTime()) > time.Minute {
		t.Fatalf("hot blob mtime not refreshed on hit: %v (err %v)", fi.ModTime(), err)
	}

	// The restart: over-fill the budget so exactly the stalest blob
	// goes. The hot (read) blob must survive; the cold one must not.
	s3 := mustOpen(t, dir, 4*one+one/2)
	for l := 13; l <= 15; l++ {
		s3.StoreWithResponse("WSE-2", testSpec(l).Key(), testStored(l), resp)
	}
	s3.Snapshot()
	if st := s3.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions despite over-filling the budget: %+v", st)
	}
	if _, err := os.Stat(hotPath); err != nil {
		t.Error("hot blob evicted despite its read recency")
	}
	if _, err := os.Stat(coldPath); !os.IsNotExist(err) {
		t.Error("cold blob survived eviction ahead of fresher entries")
	}
}

func pathFor(dir, platformName, specKey string) string {
	name := address(platformName, specKey)
	return filepath.Join(dir, name[:2], name+".json")
}
