package store

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dabench/internal/faults"
)

// fastOpts returns Options tuned for tests: tight backoff, a low trip
// threshold and a short cooldown so breaker transitions happen in
// milliseconds instead of the production ten seconds.
func fastOpts(in *faults.Injector) Options {
	return Options{
		RetryAttempts:    1,
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  20 * time.Millisecond,
		Injector:         in,
	}
}

func mustOpenOptions(t *testing.T, dir string, o Options) *Store {
	t.Helper()
	s, err := OpenOptions(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func mustInjector(t *testing.T, spec faults.Spec) *faults.Injector {
	t.Helper()
	in, err := faults.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// diskBytes sums the sizes of all blob files under dir — the ground
// truth Stats.Bytes must track.
func diskBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return total
}

func TestReadRetryRidesOutTransientFault(t *testing.T) {
	in := mustInjector(t, faults.Spec{Rules: []faults.Rule{
		{Op: faults.OpStoreRead, Kind: faults.KindEIO, Count: 1},
	}})
	o := fastOpts(in)
	o.RetryAttempts = 3
	s := mustOpenOptions(t, t.TempDir(), o)
	spec := testSpec(4)
	s.StoreWithResponse("WSE-2", spec.Key(), testStored(4), []byte("resp-bytes"))
	s.Snapshot()

	if _, ok := s.LoadRaw("WSE-2", spec.Key()); !ok {
		t.Fatal("LoadRaw missed despite retry budget covering the single fault")
	}
	st := s.Stats()
	if st.ReadRetries < 1 {
		t.Errorf("ReadRetries = %d, want >= 1", st.ReadRetries)
	}
	if st.ReadBreaker.State != "closed" || st.Degraded {
		t.Errorf("breaker = %+v degraded = %v after a recovered blip", st.ReadBreaker, st.Degraded)
	}
}

func TestReadBreakerTripsThenSkipsDisk(t *testing.T) {
	in := mustInjector(t, faults.Spec{Rules: []faults.Rule{
		{Op: faults.OpStoreRead, Kind: faults.KindEIO},
	}})
	o := fastOpts(in)
	o.BreakerCooldown = time.Minute // never reaches half-open in this test
	s := mustOpenOptions(t, t.TempDir(), o)
	spec := testSpec(4)
	s.StoreWithResponse("WSE-2", spec.Key(), testStored(4), []byte("resp-bytes"))
	s.Snapshot()

	for i := 0; i < 2; i++ { // threshold failures trip the breaker
		if _, ok := s.LoadRaw("WSE-2", spec.Key()); ok {
			t.Fatal("LoadRaw hit through a permanent read fault")
		}
	}
	st := s.Stats()
	if st.ReadBreaker.State != "open" || st.ReadBreaker.Trips != 1 {
		t.Fatalf("read breaker = %+v, want open after %d failures", st.ReadBreaker, 2)
	}
	if !st.Degraded {
		t.Error("Degraded = false with an open read breaker")
	}

	// Open state: lookups are immediate misses, no disk consult (the
	// injector's fire counter would grow if readFile ran).
	firedBefore := in.Stats().Fired
	if _, ok := s.LoadRaw("WSE-2", spec.Key()); ok {
		t.Fatal("LoadRaw hit through an open breaker")
	}
	if got := in.Stats().Fired; got != firedBefore {
		t.Errorf("open breaker still touched the read path (fired %d -> %d)", firedBefore, got)
	}
	if st := s.Stats(); st.SkippedReads != 1 {
		t.Errorf("SkippedReads = %d, want 1", st.SkippedReads)
	}

	// The blob must survive transient-read failures: only corruption
	// deletes, an EIO leaves the bytes for the recovered disk to serve.
	if diskBytes(t, s.dir) == 0 {
		t.Error("transient read failures deleted the blob")
	}
}

func TestReadBreakerHalfOpenProbeRecovers(t *testing.T) {
	// Exactly enough fault budget to trip the breaker; the half-open
	// probe then lands on a healed disk.
	in := mustInjector(t, faults.Spec{Rules: []faults.Rule{
		{Op: faults.OpStoreRead, Kind: faults.KindEIO, Count: 2},
	}})
	s := mustOpenOptions(t, t.TempDir(), fastOpts(in))
	spec := testSpec(4)
	s.StoreWithResponse("WSE-2", spec.Key(), testStored(4), []byte("resp-bytes"))
	s.Snapshot()

	for i := 0; i < 2; i++ {
		s.LoadRaw("WSE-2", spec.Key())
	}
	if st := s.Stats(); st.ReadBreaker.State != "open" {
		t.Fatalf("read breaker = %+v, want open", st.ReadBreaker)
	}

	time.Sleep(30 * time.Millisecond) // past the cooldown

	if _, ok := s.LoadRaw("WSE-2", spec.Key()); !ok {
		t.Fatal("half-open probe missed on a healed disk")
	}
	st := s.Stats()
	if st.ReadBreaker.State != "closed" {
		t.Errorf("breaker state = %s after successful probe, want closed", st.ReadBreaker.State)
	}
	if st.ReadBreaker.Probes != 1 || st.ReadBreaker.Recoveries != 1 {
		t.Errorf("probes/recoveries = %d/%d, want 1/1", st.ReadBreaker.Probes, st.ReadBreaker.Recoveries)
	}
	if st.Degraded {
		t.Error("Degraded = true after recovery")
	}
}

func TestWriteRetryRidesOutTransientFault(t *testing.T) {
	in := mustInjector(t, faults.Spec{Rules: []faults.Rule{
		{Op: faults.OpStoreWrite, Kind: faults.KindENOSPC, Count: 1},
	}})
	o := fastOpts(in)
	o.RetryAttempts = 3
	s := mustOpenOptions(t, t.TempDir(), o)
	spec := testSpec(4)
	s.Store("WSE-2", spec.Key(), testStored(4))
	s.Snapshot()

	st := s.Stats()
	if st.Puts != 1 || st.WriteErrors != 0 {
		t.Errorf("puts/write_errors = %d/%d, want 1/0", st.Puts, st.WriteErrors)
	}
	if st.WriteRetries < 1 {
		t.Errorf("WriteRetries = %d, want >= 1", st.WriteRetries)
	}
	if _, err := os.Stat(pathFor(s.dir, "WSE-2", spec.Key())); err != nil {
		t.Error("retried write did not land")
	}
}

func TestWriteBreakerTripsAndDropsWrites(t *testing.T) {
	in := mustInjector(t, faults.Spec{Rules: []faults.Rule{
		{Op: faults.OpStoreWrite, Kind: faults.KindEIO},
	}})
	o := fastOpts(in)
	o.BreakerCooldown = time.Minute
	s := mustOpenOptions(t, t.TempDir(), o)
	for i := 0; i < 4; i++ {
		spec := testSpec(2 + i)
		s.Store("WSE-2", spec.Key(), testStored(2+i))
	}
	s.Snapshot()

	st := s.Stats()
	if st.WriteBreaker.State != "open" || st.WriteBreaker.Trips != 1 {
		t.Fatalf("write breaker = %+v, want open after sustained failures", st.WriteBreaker)
	}
	if st.WriteErrors != 2 {
		t.Errorf("WriteErrors = %d, want 2 (threshold), rest skipped", st.WriteErrors)
	}
	if st.SkippedWrites != 2 {
		t.Errorf("SkippedWrites = %d, want 2", st.SkippedWrites)
	}
	if st.Puts != 0 || st.Entries != 0 {
		t.Errorf("puts/entries = %d/%d, want 0/0", st.Puts, st.Entries)
	}
	if !st.Degraded {
		t.Error("Degraded = false with an open write breaker")
	}
}

// TestCorruptInjectionDeletesAndMisses: an injected corrupt read is a
// miss, not a disk fault. It flips a byte of the real frame, so the
// frame fails its CRC and LoadRaw deletes it and counts it corrupt, as
// for bit rot on disk.
func TestCorruptInjectionDeletesAndMisses(t *testing.T) {
	in := mustInjector(t, faults.Spec{Rules: []faults.Rule{
		{Op: faults.OpStoreRead, Kind: faults.KindCorrupt, Count: 1},
	}})
	s := mustOpenOptions(t, t.TempDir(), fastOpts(in))
	spec := testSpec(4)
	s.StoreWithResponse("WSE-2", spec.Key(), testStored(4), []byte("resp-bytes"))
	s.Snapshot()

	if _, ok := s.LoadRaw("WSE-2", spec.Key()); ok {
		t.Fatal("LoadRaw hit on injected-corrupt bytes")
	}
	st := s.Stats()
	if st.Corrupt != 1 {
		t.Errorf("Corrupt = %d, want 1", st.Corrupt)
	}
	// Corruption deletes: the follow-up read (injector budget spent)
	// finds no file and stays a healthy miss.
	if _, err := os.Stat(pathFor(s.dir, "WSE-2", spec.Key())); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("corrupt blob was not deleted: stat err = %v", err)
	}
	if _, ok := s.LoadRaw("WSE-2", spec.Key()); ok {
		t.Fatal("corrupt blob was not deleted")
	}
	if st := s.Stats(); st.ReadBreaker.State != "closed" {
		t.Errorf("breaker = %+v; corruption is not a disk fault", st.ReadBreaker)
	}
}

func TestFailedEvictionKeepsAccountingOnDisk(t *testing.T) {
	in := mustInjector(t, faults.Spec{Rules: []faults.Rule{
		{Op: faults.OpStoreRemove, Kind: faults.KindEIO},
	}})
	o := fastOpts(in)
	o.Budget = 1 // every write overflows: eviction runs after each put
	s := mustOpenOptions(t, t.TempDir(), o)
	for i := 0; i < 2; i++ {
		spec := testSpec(4 + i)
		s.StoreWithResponse("WSE-2", spec.Key(), testStored(4+i), []byte("resp-bytes"))
	}
	s.Snapshot()

	st := s.Stats()
	if st.EvictErrors == 0 {
		t.Fatal("EvictErrors = 0 with every unlink failing")
	}
	if st.Evictions != 0 {
		t.Errorf("Evictions = %d, want 0 (none succeeded)", st.Evictions)
	}
	// The satellite fix under test: failed unlinks re-adopt their entry,
	// so the byte gauge still equals the real on-disk footprint instead
	// of drifting below it.
	if disk := diskBytes(t, s.dir); st.Bytes != disk {
		t.Errorf("Stats.Bytes = %d, disk = %d; accounting drifted", st.Bytes, disk)
	}
	if st.Entries != 2 {
		t.Errorf("Entries = %d, want 2 (victims re-adopted)", st.Entries)
	}
	// Re-adopted blobs remain servable.
	if _, ok := s.LoadRaw("WSE-2", testSpec(5).Key()); !ok {
		t.Error("re-adopted blob did not serve")
	}
}
