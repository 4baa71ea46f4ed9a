package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
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

func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(12)
	want := testStored(12)

	s := mustOpen(t, dir, 0)
	s.Store("WSE-2", spec.Key(), want)
	s.Snapshot()
	s.Close()

	// A fresh Store on the same dir is the restarted process.
	s2 := mustOpen(t, dir, 0)
	got, ok := s2.Load("WSE-2", spec.Key())
	if !ok {
		t.Fatal("warm lookup missed after reopen")
	}
	if !reflect.DeepEqual(got.Compile, want.Compile) {
		t.Errorf("compile report diverged:\n%+v\n%+v", got.Compile, want.Compile)
	}
	if got.Run.Compile != got.Compile {
		t.Error("run report's compile pointer not reattached to the loaded compile report")
	}
	gotRun, wantRun := *got.Run, *want.Run
	gotRun.Compile, wantRun.Compile = nil, nil
	if !reflect.DeepEqual(gotRun, wantRun) {
		t.Errorf("run report diverged:\n%+v\n%+v", gotRun, wantRun)
	}
	st := s2.Stats()
	if st.Hits != 1 || st.Entries != 1 || st.Bytes <= 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMissOnUnknownKey(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	if _, ok := s.Load("WSE-2", "nope"); ok {
		t.Fatal("hit on unknown key")
	}
	if st := s.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFailedCompilePersists(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(78)
	s := mustOpen(t, dir, 0)
	s.Store("WSE-2", spec.Key(), platform.Stored{Failed: true, FailReason: "needs 80 PEs over capacity"})
	s.Snapshot()
	s.Close()

	s2 := mustOpen(t, dir, 0)
	got, ok := s2.Load("WSE-2", spec.Key())
	if !ok || !got.Failed || got.FailReason != "needs 80 PEs over capacity" {
		t.Errorf("failed entry = %+v, %v", got, ok)
	}
}

// TestCorruptBlobIsAMiss is the corruption-tolerance contract: a blob
// that fails to decode is deleted and reported as a miss, never an
// error or a crash.
func TestCorruptBlobIsAMiss(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(12)
	s := mustOpen(t, dir, 0)
	s.Store("WSE-2", spec.Key(), testStored(12))
	s.Snapshot()
	s.Close()

	// Truncate the blob mid-JSON — a torn write from a crashed process.
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
	if _, ok := s2.Load("WSE-2", spec.Key()); ok {
		t.Fatal("corrupt blob served as a hit")
	}
	st := s2.Stats()
	if st.Corrupt != 1 || st.Misses != 1 || st.Entries != 0 {
		t.Errorf("stats after corruption = %+v", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt blob not deleted")
	}
	// The deleted blob must not resurrect on the next lookup.
	if _, ok := s2.Load("WSE-2", spec.Key()); ok {
		t.Fatal("deleted blob resurrected")
	}
}

func TestVersionMismatchIsAMiss(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(12)
	s := mustOpen(t, dir, 0)
	s.Store("WSE-2", spec.Key(), testStored(12))
	s.Snapshot()

	name := address("WSE-2", spec.Key())
	path := filepath.Join(dir, name[:2], name+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Forge a blob from a different pipeline epoch at the same address.
	forged := []byte(`{"version":999` + string(data[len(`{"version":`+strconv.Itoa(PipelineVersion)):]))
	if err := os.WriteFile(path, forged, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load("WSE-2", spec.Key()); ok {
		t.Fatal("stale-epoch blob served as a hit")
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
	if _, ok := s.Load("WSE-2", testSpec(8).Key()); !ok {
		t.Error("newest entry was evicted")
	}
	// The oldest (the probe's layer-1 entry) must be gone.
	if _, ok := s.Load("WSE-2", testSpec(1).Key()); ok {
		t.Error("oldest entry survived eviction")
	}
}

func TestOverwriteUpdatesNotDuplicates(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	spec := testSpec(12)
	st := testStored(12)
	s.Store("WSE-2", spec.Key(), platform.Stored{Compile: st.Compile}) // compile-only first
	s.Store("WSE-2", spec.Key(), st)                                   // then with the run report
	s.Snapshot()
	stats := s.Stats()
	if stats.Entries != 1 || stats.Puts != 2 {
		t.Errorf("stats = %+v, want 1 entry from 2 puts", stats)
	}
	got, ok := s.Load("WSE-2", spec.Key())
	if !ok || got.Run == nil {
		t.Errorf("final entry lost the run report: %+v, %v", got, ok)
	}
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

// TestBlobWithNilCompileIsCorrupt: a blob whose identity frame decodes
// but whose payload is gone must be treated as corruption, never
// served as a (nil, nil) compile outcome.
func TestBlobWithNilCompileIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(12)
	s := mustOpen(t, dir, 0)
	s.Store("WSE-2", spec.Key(), testStored(12))
	s.Snapshot()

	name := address("WSE-2", spec.Key())
	path := filepath.Join(dir, name[:2], name+".json")
	forged, _ := json.Marshal(map[string]any{
		"version": PipelineVersion, "platform": "WSE-2", "spec_key": spec.Key(),
	})
	if err := os.WriteFile(path, forged, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load("WSE-2", spec.Key()); ok {
		t.Fatal("payload-less blob served as a hit")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Errorf("corrupt counter = %d, want 1", st.Corrupt)
	}
}

// TestReadRecencySurvivesRestart is the LRU-recency regression: Load
// must refresh a hit blob's file mtime (debounced), because Open
// rebuilds eviction order from mtimes — without the refresh, a
// hot-but-old blob is evicted before a cold-but-newer one after a
// restart.
func TestReadRecencySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	hot, cold := testSpec(11), testSpec(12)
	s := mustOpen(t, dir, 0)
	s.Store("WSE-2", hot.Key(), testStored(11))
	s.Store("WSE-2", cold.Key(), testStored(12))
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
	if _, ok := s2.Load("WSE-2", hot.Key()); !ok {
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
		s3.Store("WSE-2", testSpec(l).Key(), testStored(l))
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

// TestAdoptionEnforcesBudget is the sibling-adoption regression: blobs
// written by another process and adopted on Load must not grow the
// footprint past the budget until the next local write — adoption runs
// eviction itself.
func TestAdoptionEnforcesBudget(t *testing.T) {
	dir := t.TempDir()
	probe := mustOpen(t, dir, 0)
	probe.Store("WSE-2", testSpec(1).Key(), testStored(1))
	probe.Snapshot()
	one := probe.Stats().Bytes
	if one <= 0 {
		t.Fatal("probe entry has no size")
	}

	budget := 2*one + one/2
	b := mustOpen(t, dir, budget) // scanned one entry, well under budget
	for l := 2; l <= 5; l++ {
		probe.Store("WSE-2", testSpec(l).Key(), testStored(l))
	}
	probe.Snapshot()
	for l := 2; l <= 5; l++ {
		if _, ok := b.Load("WSE-2", testSpec(l).Key()); !ok {
			t.Fatalf("sibling blob %d invisible", l)
		}
	}
	st := b.Stats()
	if st.Bytes > budget {
		t.Errorf("adoption left %d bytes in a %d-byte budget", st.Bytes, budget)
	}
	if st.Evictions == 0 {
		t.Error("no evictions despite adopting past the budget")
	}
}

// TestAdoptionRefreshesMtime: adopting a sibling-written blob is a
// read like any other, so its on-disk mtime must be refreshed — an
// old sibling blob read through adoption has to carry that recency
// across a restart exactly like an indexed hit does.
func TestAdoptionRefreshesMtime(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(12)
	a := mustOpen(t, dir, 0)
	b := mustOpen(t, dir, 0) // scanned an empty dir
	a.Store("WSE-2", spec.Key(), testStored(12))
	a.Snapshot()

	// The sibling's blob is old by the time this process reads it.
	path := pathFor(dir, "WSE-2", spec.Key())
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Load("WSE-2", spec.Key()); !ok {
		t.Fatal("sibling blob invisible")
	}
	if fi, err := os.Stat(path); err != nil || time.Since(fi.ModTime()) > time.Minute {
		t.Errorf("adopted blob mtime not refreshed: %v (err %v)", fi.ModTime(), err)
	}
}

// TestLoadSeesSiblingWrites: a second Store over the same directory
// must see blobs written after its Open-time scan (the CLI-beside-
// daemon sharing case) and adopt them into its index.
func TestLoadSeesSiblingWrites(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, 0)
	b := mustOpen(t, dir, 0) // scanned an empty dir

	spec := testSpec(12)
	a.Store("WSE-2", spec.Key(), testStored(12))
	a.Snapshot()

	if _, ok := b.Load("WSE-2", spec.Key()); !ok {
		t.Fatal("sibling write invisible to a second mount")
	}
	st := b.Stats()
	if st.Hits != 1 || st.Entries != 1 || st.Bytes <= 0 {
		t.Errorf("adopting mount stats = %+v", st)
	}
}
