// Package store is the persistent, content-addressed result store.
// It keeps compile reports and run findings on disk as versioned JSON
// blobs. dabenchd persists only its /v1/run outcomes here, one frame
// each carrying the served response bytes, so a restarted daemon
// answers a repeat /v1/run without simulating; its sweeps, jobs and
// scenarios recompute instead, because a blob write costs more than
// recomputing the point on every platform but the RDU. The CLI's `experiments -data-dir` still
// mounts the store under the in-memory compile/run memo cells, so a
// repeat CLI run over the same directory answers from disk.
//
// Addressing: a blob's name is the SHA-256 of the pipeline version,
// the platform name and the spec's canonical TrainSpec.Key — the full
// content address of one pipeline outcome. Blobs live in a sharded
// directory tree (first hex byte of the hash names the shard) so no
// single directory grows unboundedly.
//
// Versioning/invalidation rule: PipelineVersion participates in every
// address. Bump it whenever simulator outputs change shape or value
// for the same spec; old blobs then simply stop being addressed (and
// age out via the size budget) instead of poisoning the new pipeline
// with stale results.
//
// Durability posture: reads are synchronous (read-through), writes are
// behind — Store enqueues to a single writer goroutine and returns.
// Snapshot flushes the queue, giving callers a point on the timeline
// where everything computed so far is on disk. Corruption never
// propagates: a blob that fails to decode or verify is deleted and
// reported as a miss, because the pipeline can always recompute.
//
// On-disk format: blobs are written as v2 binary frames (see frame.go)
// carrying the canonical JSON payload plus, optionally, the
// pre-marshaled HTTP response bytes for the same outcome — LoadRaw
// serves the latter with zero JSON decoding. v1 bare-JSON blobs remain
// readable; the first Load that touches one enqueues a rewrite into
// the framed format (counted as a blob upgrade).
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dabench/internal/faults"
	"dabench/internal/platform"
)

// PipelineVersion is the invalidation epoch baked into every blob
// address and payload. Bump on any change to simulator semantics,
// report shapes, or TrainSpec.Key composition. Version 2: a task's
// Units became a struct and its operator rows moved from Subtasks to
// Ops, so a version-1 payload would decode with no operator rows.
const PipelineVersion = 2

// blob is the on-disk wire form of one platform.Stored outcome, framed
// with enough identity to verify the content address on load.
type blob struct {
	Version    int                     `json:"version"`
	Platform   string                  `json:"platform"`
	SpecKey    string                  `json:"spec_key"`
	Failed     bool                    `json:"failed,omitempty"`
	FailReason string                  `json:"fail_reason,omitempty"`
	Compile    *platform.CompileReport `json:"compile,omitempty"`
	Run        *platform.RunReport     `json:"run,omitempty"`
}

// Stats is the store's observable state: lookup counters plus the
// size gauges the eviction budget works against. It doubles as the
// /v1/stats wire form.
type Stats struct {
	Hits        int64   `json:"hits"`
	Misses      int64   `json:"misses"`
	HitRate     float64 `json:"hit_rate"`
	Puts        int64   `json:"puts"`
	Evictions   int64   `json:"evictions"`
	Corrupt     int64   `json:"corrupt"`
	WriteErrors int64   `json:"write_errors,omitempty"`
	// Warm serve counters: raw-response lookups (LoadRaw, which serves
	// bytes without decoding) and v1→v2 frame rewrites.
	RawHits      int64 `json:"raw_hits,omitempty"`
	RawMisses    int64 `json:"raw_misses,omitempty"`
	BlobUpgrades int64 `json:"blob_upgrades,omitempty"`
	Entries      int64 `json:"entries"`
	Bytes        int64 `json:"bytes"`
	BudgetBytes  int64 `json:"budget_bytes,omitempty"`
	// Resilience counters: retry totals, operations skipped because a
	// breaker was open, unlinks that failed (and were re-adopted so the
	// byte accounting tracks the disk), and the two breakers' state.
	ReadRetries   int64         `json:"read_retries,omitempty"`
	WriteRetries  int64         `json:"write_retries,omitempty"`
	SkippedReads  int64         `json:"skipped_reads,omitempty"`
	SkippedWrites int64         `json:"skipped_writes,omitempty"`
	EvictErrors   int64         `json:"evict_errors,omitempty"`
	Degraded      bool          `json:"degraded,omitempty"`
	ReadBreaker   *BreakerStats `json:"read_breaker,omitempty"`
	WriteBreaker  *BreakerStats `json:"write_breaker,omitempty"`
}

type indexEntry struct {
	size int64
	used int64 // LRU tick; larger = more recent
	// touched is the blob file's last known mtime (UnixNano). Load
	// refreshes the mtime of hit blobs when it is older than
	// touchDebounce, so the mtime-derived LRU order a restart rebuilds
	// reflects reads, not just writes.
	touched int64
}

// touchDebounce is how stale a hit blob's mtime may get before Load
// refreshes it. Recency only needs to survive restarts at eviction
// granularity, so one utime per blob per minute is plenty — a hot
// blob's mtime stays within a minute of its last read at almost no
// syscall cost.
const touchDebounce = time.Minute

// putReq is one write-behind unit. Exactly one of payload, frame or
// flush is set: a payload write persists a (possibly fresh) JSON blob
// framed, carrying forward any response bytes already on disk; a frame
// write persists an already-assembled frame verbatim (an outcome with
// its response bytes); a flush is the Snapshot barrier.
type putReq struct {
	name    string
	payload []byte
	frame   []byte        // pre-built frame (StoreWithResponse)
	upgrade bool          // payload write triggered by a v1 blob read
	flush   chan struct{} // non-nil: flush barrier, no write
	// platformName and specKey ride along on every write so the
	// OnWrite hook can report the blob's identity without re-decoding
	// what was just encoded.
	platformName string
	specKey      string
}

// Store is an open result store. Create with Open; safe for concurrent
// use. The zero value is not usable.
type Store struct {
	dir    string
	budget int64 // bytes; <= 0 means unbounded

	retryAttempts int
	retryBackoff  time.Duration
	inj           *faults.Injector // nil in production: one pointer compare per I/O
	readBr        *breaker
	writeBr       *breaker
	onWrite       func(WriteEvent) // nil = unobserved; runs on the writer goroutine

	mu    sync.Mutex
	index map[string]*indexEntry
	bytes int64
	clock int64

	hits, misses, puts          atomic.Int64
	rawHits, rawMisses          atomic.Int64
	blobUpgrades                atomic.Int64
	evictions, corrupt, wfails  atomic.Int64
	readRetries, writeRetries   atomic.Int64
	skippedReads, skippedWrites atomic.Int64
	evictErrors                 atomic.Int64

	wq        chan putReq
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// Resilience defaults: three total attempts per I/O with a few
// milliseconds of jittered backoff rides out blips; five consecutive
// hard failures trip the breaker, and the half-open probe retries ten
// seconds later. The store is an optimization tier, so every one of
// these degrades to "recompute" — never to an error the caller sees.
const (
	defaultRetryAttempts    = 3
	defaultRetryBackoff     = 2 * time.Millisecond
	defaultBreakerThreshold = 5
	defaultBreakerCooldown  = 10 * time.Second
)

// Options tunes OpenOptions beyond the directory.
type Options struct {
	// Budget bounds the on-disk footprint in bytes; <= 0 = unbounded.
	Budget int64
	// RetryAttempts is the total attempts per blob read or write before
	// the operation counts as failed (default 3).
	RetryAttempts int
	// RetryBackoff is the initial exponential backoff between attempts,
	// with ±50% jitter (default 2ms).
	RetryBackoff time.Duration
	// BreakerThreshold is the consecutive-failure count that trips a
	// breaker (default 5); BreakerCooldown the open → half-open delay
	// (default 10s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Injector is the optional fault-injection hook fired at the store's
	// read/write/remove syscall sites. Nil injects nothing.
	Injector *faults.Injector
	// OnWrite, when set, observes every successful blob persist (fresh
	// puts and v1→v2 upgrades). It runs on the single writer goroutine,
	// so it must be fast and must never fail the write — provenance
	// logging is the intended consumer.
	OnWrite func(WriteEvent)
}

// WriteEvent describes one durably persisted blob for Options.OnWrite.
type WriteEvent struct {
	// Addr is the blob's content address (its on-disk name).
	Addr string
	// Platform and SpecKey are the identity the address was derived
	// from; empty on upgrade rewrites of v1 blobs read by a process that
	// did not know the identity (never happens via Load, which always
	// knows both).
	Platform string
	SpecKey  string
	// Upgrade marks a v1→v2 frame rewrite rather than a fresh outcome.
	Upgrade bool
}

// Open loads the store rooted at dir (created if absent), rebuilding
// the in-memory index from the blobs already on disk — that scan is
// what lets a restarted process answer its first lookups from the
// previous life's results. budget bounds the on-disk footprint in
// bytes (<= 0: unbounded); when exceeded, least-recently-used blobs
// are evicted.
func Open(dir string, budget int64) (*Store, error) {
	return OpenOptions(dir, Options{Budget: budget})
}

// OpenOptions is Open with the resilience knobs (retry policy, breaker
// tuning, fault injection) exposed.
func OpenOptions(dir string, o Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if o.RetryAttempts < 1 {
		o.RetryAttempts = defaultRetryAttempts
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = defaultRetryBackoff
	}
	s := &Store{
		dir:           dir,
		budget:        o.Budget,
		retryAttempts: o.RetryAttempts,
		retryBackoff:  o.RetryBackoff,
		inj:           o.Injector,
		readBr:        newBreaker(o.BreakerThreshold, o.BreakerCooldown),
		writeBr:       newBreaker(o.BreakerThreshold, o.BreakerCooldown),
		onWrite:       o.OnWrite,
		index:         map[string]*indexEntry{},
		wq:            make(chan putReq, 1024),
		done:          make(chan struct{}),
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go s.writer()
	return s, nil
}

// Degraded reports whether either breaker is away from its closed
// state — the store's contribution to /healthz.
func (s *Store) Degraded() bool {
	return s.readBr.degraded() || s.writeBr.degraded()
}

// load scans the shard tree into the index. Initial LRU order comes
// from file mtimes, so eviction survives restarts with sane ordering.
func (s *Store) load() error {
	type seen struct {
		name  string
		size  int64
		mtime int64
	}
	var blobs []seen
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return nil // racing deletion; skip
		}
		blobs = append(blobs, seen{
			name:  d.Name()[:len(d.Name())-len(".json")],
			size:  info.Size(),
			mtime: info.ModTime().UnixNano(),
		})
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: scan %s: %w", s.dir, err)
	}
	sort.Slice(blobs, func(i, j int) bool { return blobs[i].mtime < blobs[j].mtime })
	for _, b := range blobs {
		s.clock++
		s.index[b.name] = &indexEntry{size: b.size, used: s.clock, touched: b.mtime}
		s.bytes += b.size
	}
	return nil
}

// Address derives a blob's content address from the pipeline version,
// platform and canonical spec key. It is exported for callers that
// need the address as an identity without touching the store — the
// server's strong ETags are exactly this address.
func Address(platformName, specKey string) string {
	return address(platformName, specKey)
}

// address derives a blob's content address from the pipeline version,
// platform and canonical spec key.
func address(platformName, specKey string) string {
	h := sha256.New()
	h.Write([]byte("dabench/store/v" + strconv.Itoa(PipelineVersion)))
	h.Write([]byte{0})
	h.Write([]byte(platformName))
	h.Write([]byte{0})
	h.Write([]byte(specKey))
	return hex.EncodeToString(h.Sum(nil))
}

func (s *Store) path(name string) string {
	return filepath.Join(s.dir, name[:2], name+".json")
}

// ValidAddr reports whether addr is a well-formed blob address: exactly
// 64 lowercase hex characters, the only strings address() can produce.
// Every path that builds a file name from an externally supplied
// address (the cluster blob export) must check this first — path()
// shards on addr[:2], so anything else is at best a panic and at worst
// a traversal.
func ValidAddr(addr string) bool {
	if len(addr) != 64 {
		return false
	}
	for i := 0; i < len(addr); i++ {
		c := addr[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ReadFrame returns the raw on-disk bytes of the blob at addr — the
// exact frame (or v1 bare JSON) writeOnce persisted, suitable for
// byte-level export to a peer. The read goes through the same breaker
// and retry policy as Load; a malformed address, a missing blob, or
// degraded I/O is a miss. The bytes are not CRC-verified here: a
// consumer must decode and verify the frame before trusting it.
func (s *Store) ReadFrame(addr string) ([]byte, bool) {
	if !ValidAddr(addr) {
		return nil, false
	}
	s.mu.Lock()
	if e, ok := s.index[addr]; ok {
		s.clock++
		e.used = s.clock
	}
	s.mu.Unlock()
	if !s.readBr.allow() {
		s.skippedReads.Add(1)
		return nil, false
	}
	data, err := s.readBlob(s.path(addr))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.readBr.success()
		} else {
			s.readBr.failure()
		}
		return nil, false
	}
	s.readBr.success()
	return data, true
}

// Load implements platform.ResultStore: a synchronous read-through
// lookup. Any decode or identity failure deletes the blob and reports
// a miss — corruption costs one recompute, never a crash. The disk is
// probed even on an index miss: another process sharing the directory
// (a CLI run beside the daemon) may have written the blob after this
// process's Open-time scan.
//
// Resilience: a transient read error (anything but ErrNotExist) is
// retried with backoff; exhausting the retries feeds the read breaker
// and reports a miss while leaving the blob in place — the bytes on
// disk may be perfectly fine, only this read failed. With the read
// breaker open the disk is not consulted at all: every lookup is an
// immediate miss served by the memo tiers and recompute.
func (s *Store) Load(platformName, specKey string) (platform.Stored, bool) {
	name := address(platformName, specKey)
	s.mu.Lock()
	e, indexed := s.index[name]
	if indexed {
		s.clock++
		e.used = s.clock
	}
	s.mu.Unlock()

	if !s.readBr.allow() {
		s.skippedReads.Add(1)
		s.misses.Add(1)
		return platform.Stored{}, false
	}

	data, err := s.readBlob(s.path(name))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			// Evicted or torn between index check and read: a plain miss
			// over healthy I/O.
			s.readBr.success()
			if indexed {
				s.drop(name, false)
			}
		} else {
			s.readBr.failure()
		}
		s.misses.Add(1)
		return platform.Stored{}, false
	}
	s.readBr.success()
	payload, _, ferr := decodeFrame(data)
	if errors.Is(ferr, errNotFramed) {
		// A v1 bare-JSON blob: the file is the payload. Decoding it is
		// this read's cost anyway; enqueue a framed rewrite so the next
		// life reads v2 (opportunistic — a full queue skips it).
		payload = data
	} else if ferr != nil {
		s.drop(name, true)
		s.misses.Add(1)
		return platform.Stored{}, false
	}
	var b blob
	if err := json.Unmarshal(payload, &b); err != nil ||
		b.Version != PipelineVersion || b.Platform != platformName || b.SpecKey != specKey ||
		(b.Compile == nil && !b.Failed) {
		// The last clause rejects a blob whose identity frame survived
		// but whose payload did not — serving it would hand the
		// pipeline a nil compile report.
		s.drop(name, true)
		s.misses.Add(1)
		return platform.Stored{}, false
	}
	if errors.Is(ferr, errNotFramed) {
		select {
		case s.wq <- putReq{name: name, payload: payload, upgrade: true, platformName: platformName, specKey: specKey}:
		case <-s.done:
		default:
		}
	}
	if !indexed {
		// A sibling process's write, discovered after our scan: adopt
		// it so the size gauges and LRU order see it from now on — and
		// enforce the budget right here, because a stream of sibling
		// writes would otherwise grow the footprint unchecked until
		// this process's next own write. The on-disk mtime is refreshed
		// too: the sibling may have written the blob long ago, and this
		// read's recency must survive a restart like any other hit's.
		now := time.Now()
		s.mu.Lock()
		if _, ok := s.index[name]; !ok {
			s.clock++
			s.index[name] = &indexEntry{size: int64(len(data)), used: s.clock, touched: now.UnixNano()}
			s.bytes += int64(len(data))
		}
		victims := s.evictLocked()
		s.mu.Unlock()
		s.remove(victims)
		_ = os.Chtimes(s.path(name), now, now)
	} else {
		s.maybeTouch(name)
	}
	if b.Run != nil {
		// The blob stores the run report detached from its compile
		// report (the pointer cycle is stripped on write); reattach so
		// consumers see the usual RunReport shape.
		b.Run.Compile = b.Compile
	}
	s.hits.Add(1)
	return platform.Stored{
		Compile: b.Compile, Run: b.Run,
		Failed: b.Failed, FailReason: b.FailReason,
	}, true
}

// LoadRaw returns the pre-marshaled response bytes stored alongside a
// blob's payload: directly servable, CRC-verified, and never JSON-
// decoded. A v1 blob, a frame with no response section, a corrupt
// frame, or any read failure is a raw miss — the caller falls back to
// the compute path, so this tier can never surface an error.
// Identity needs no payload decode: the address already binds the
// pipeline version, platform and spec key, and the CRC covers the
// bytes.
func (s *Store) LoadRaw(platformName, specKey string) ([]byte, bool) {
	name := address(platformName, specKey)
	s.mu.Lock()
	e, indexed := s.index[name]
	if indexed {
		s.clock++
		e.used = s.clock
	}
	s.mu.Unlock()

	if !s.readBr.allow() {
		s.skippedReads.Add(1)
		s.rawMisses.Add(1)
		return nil, false
	}
	data, err := s.readBlob(s.path(name))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.readBr.success()
			if indexed {
				s.drop(name, false)
			}
		} else {
			s.readBr.failure()
		}
		s.rawMisses.Add(1)
		return nil, false
	}
	s.readBr.success()
	_, resp, ferr := decodeFrame(data)
	if ferr != nil && !errors.Is(ferr, errNotFramed) {
		s.drop(name, true)
		s.rawMisses.Add(1)
		return nil, false
	}
	if len(resp) == 0 {
		// v1 blob or a frame written before any response was attached:
		// a miss here, but the payload path still works.
		s.rawMisses.Add(1)
		return nil, false
	}
	if indexed {
		s.maybeTouch(name)
	}
	s.rawHits.Add(1)
	return resp, true
}

// maybeTouch refreshes a hit blob's file mtime when it has gone stale
// (debounced by touchDebounce), keeping the restart-rebuilt LRU order
// honest: without it the order Open derives from mtimes is write-time
// FIFO, and a hot-but-old blob is the first eviction victim after a
// restart.
func (s *Store) maybeTouch(name string) {
	now := time.Now()
	s.mu.Lock()
	e, ok := s.index[name]
	if !ok || now.UnixNano()-e.touched < int64(touchDebounce) {
		s.mu.Unlock()
		return
	}
	e.touched = now.UnixNano()
	s.mu.Unlock()
	// Best effort outside the lock: a failed utime costs restart
	// recency only, never correctness.
	_ = os.Chtimes(s.path(name), now, now)
}

// readBlob reads one blob with the bounded retry policy: transient
// errors back off and retry, ErrNotExist returns immediately (a
// missing file is a fact, not a fault).
func (s *Store) readBlob(path string) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < s.retryAttempts; attempt++ {
		if attempt > 0 {
			s.readRetries.Add(1)
			s.backoff(attempt)
		}
		data, err := s.readFile(path)
		if err == nil {
			return data, nil
		}
		if errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// readFile is the injectable read syscall site. An injected corruption
// fault "succeeds" with garbage bytes, exercising the corrupt-blob
// delete-and-miss path end to end.
func (s *Store) readFile(path string) ([]byte, error) {
	if s.inj != nil {
		if err := s.inj.Fire(faults.OpStoreRead); err != nil {
			if faults.IsCorrupt(err) {
				return []byte("\x00not json"), nil
			}
			return nil, err
		}
	}
	return os.ReadFile(path)
}

// removeFile is the injectable unlink syscall site.
func (s *Store) removeFile(path string) error {
	if s.inj != nil {
		if err := s.inj.Fire(faults.OpStoreRemove); err != nil {
			return err
		}
	}
	return os.Remove(path)
}

// backoff sleeps the exponential retry delay for attempt (1-based)
// with ±50% jitter, so concurrent retries against a recovering disk
// do not stampede in lockstep.
func (s *Store) backoff(attempt int) {
	d := s.retryBackoff << (attempt - 1)
	if d <= 0 {
		return
	}
	time.Sleep(d/2 + time.Duration(rand.Int63n(int64(d))))
}

// victim is one eviction candidate handed from evictLocked to remove:
// the size rides along so a failed unlink can restore the accounting.
type victim struct {
	name string
	size int64
}

// remove deletes evicted blob files and counts the evictions; called
// outside the index lock.
func (s *Store) remove(victims []victim) {
	for _, v := range victims {
		if s.unlink(v.name, v.size) {
			s.evictions.Add(1)
		}
	}
}

// unlink removes a blob file from disk. When the unlink fails with the
// file still present (EACCES, EIO), the entry is re-adopted into the
// index at its known size, so s.bytes keeps tracking what is actually
// on disk and a later eviction pass retries the removal — the
// accounting can never silently drift below the real footprint.
func (s *Store) unlink(name string, size int64) bool {
	err := s.removeFile(s.path(name))
	if err == nil || errors.Is(err, fs.ErrNotExist) {
		return true
	}
	s.evictErrors.Add(1)
	if size <= 0 {
		if fi, serr := os.Stat(s.path(name)); serr == nil {
			size = fi.Size()
		}
	}
	if size <= 0 {
		return false
	}
	s.mu.Lock()
	if _, ok := s.index[name]; !ok {
		s.clock++
		s.index[name] = &indexEntry{size: size, used: s.clock, touched: time.Now().UnixNano()}
		s.bytes += size
	}
	s.mu.Unlock()
	return false
}

// drop removes a blob from the index (and best-effort from disk),
// optionally counting it as corruption.
func (s *Store) drop(name string, isCorrupt bool) {
	s.mu.Lock()
	var size int64
	if e, ok := s.index[name]; ok {
		size = e.size
		s.bytes -= e.size
		delete(s.index, name)
	}
	s.mu.Unlock()
	s.unlink(name, size)
	if isCorrupt {
		s.corrupt.Add(1)
	}
}

// Store implements platform.ResultStore: serialize st and enqueue it
// for the write-behind goroutine. It never blocks on disk; if the
// store is closed the write is silently dropped (the entry is
// recomputable by definition).
func (s *Store) Store(platformName, specKey string, st platform.Stored) {
	data, ok := s.marshalBlob(platformName, specKey, st)
	if !ok {
		return
	}
	select {
	case s.wq <- putReq{name: address(platformName, specKey), payload: data, platformName: platformName, specKey: specKey}:
	case <-s.done:
	}
}

// StoreWithResponse is /v1/run's write: st and the
// pre-marshaled response bytes for the same outcome are framed
// together here and persisted by one write-behind file write, so
// LoadRaw can serve the bytes after a restart. Like Store it never
// blocks on disk and drops the write once the store is closed.
func (s *Store) StoreWithResponse(platformName, specKey string, st platform.Stored, resp []byte) {
	data, ok := s.marshalBlob(platformName, specKey, st)
	if !ok {
		return
	}
	select {
	case s.wq <- putReq{name: address(platformName, specKey), frame: encodeFrame(data, resp), platformName: platformName, specKey: specKey}:
	case <-s.done:
	}
}

// marshalBlob serializes one outcome as its blob payload. An outcome
// that does not marshal (non-finite floats and the like) is counted as
// a write error and reported unstorable — never fatal.
func (s *Store) marshalBlob(platformName, specKey string, st platform.Stored) ([]byte, bool) {
	b := blob{
		Version:  PipelineVersion,
		Platform: platformName,
		SpecKey:  specKey,
		Failed:   st.Failed, FailReason: st.FailReason,
		Compile: st.Compile,
	}
	if st.Run != nil {
		// Strip the run→compile back-pointer: the compile report is
		// already a sibling field, and marshaling it twice doubles
		// every blob.
		detached := *st.Run
		detached.Compile = nil
		b.Run = &detached
	}
	data, err := json.Marshal(b)
	if err != nil {
		s.wfails.Add(1)
		return nil, false
	}
	return data, true
}

// writer is the single write-behind goroutine: it persists queued
// blobs atomically (temp file + rename) and enforces the size budget.
func (s *Store) writer() {
	defer s.wg.Done()
	for {
		select {
		case r := <-s.wq:
			s.write(r)
		case <-s.done:
			for {
				select {
				case r := <-s.wq:
					s.write(r)
				default:
					return
				}
			}
		}
	}
}

func (s *Store) write(r putReq) {
	if r.flush != nil {
		close(r.flush)
		return
	}
	if !s.writeBr.allow() {
		// Write-path degraded mode: drop the blob. It is recomputable by
		// definition, and a tripped breaker means the disk is hurting —
		// draining the queue cheaply beats hammering a failing device.
		s.skippedWrites.Add(1)
		return
	}
	data := r.frame
	if data == nil {
		data = s.frameForWrite(r)
	}
	var err error
	for attempt := 0; attempt < s.retryAttempts; attempt++ {
		if attempt > 0 {
			s.writeRetries.Add(1)
			s.backoff(attempt)
		}
		if err = s.writeOnce(r.name, data); err == nil {
			break
		}
	}
	if err != nil {
		s.wfails.Add(1)
		s.writeBr.failure()
		return
	}
	s.writeBr.success()
	if r.upgrade {
		s.blobUpgrades.Add(1)
	} else {
		s.puts.Add(1)
	}
	if s.onWrite != nil {
		// After the rename: the hook sees only blobs that actually exist.
		s.onWrite(WriteEvent{Addr: r.name, Platform: r.platformName, SpecKey: r.specKey, Upgrade: r.upgrade})
	}

	s.mu.Lock()
	s.clock++
	now := time.Now().UnixNano()
	if e, ok := s.index[r.name]; ok {
		s.bytes += int64(len(data)) - e.size
		e.size = int64(len(data))
		e.used = s.clock
		e.touched = now
	} else {
		s.index[r.name] = &indexEntry{size: int64(len(data)), used: s.clock, touched: now}
		s.bytes += int64(len(data))
	}
	victims := s.evictLocked()
	s.mu.Unlock()
	s.remove(victims)
}

// frameForWrite frames a payload write. The read here is a plain
// (uninjected, unretried) best-effort probe of the file this
// single-goroutine writer owns: the payload carries an existing
// frame's response section forward, so re-storing an outcome never
// drops its cached response bytes.
func (s *Store) frameForWrite(r putReq) []byte {
	var resp []byte
	s.mu.Lock()
	_, exists := s.index[r.name]
	s.mu.Unlock()
	if exists {
		// Only probe the disk when the index says there is something to
		// salvage — the common case (a fresh blob) skips the read.
		if cur, err := os.ReadFile(s.path(r.name)); err == nil {
			if _, curResp, err := decodeFrame(cur); err == nil {
				resp = curResp
			}
		}
	}
	return encodeFrame(r.payload, resp)
}

// writeOnce is one atomic persist attempt (temp file + rename), with
// the injectable write site in front.
func (s *Store) writeOnce(name string, data []byte) error {
	if s.inj != nil {
		if err := s.inj.Fire(faults.OpStoreWrite); err != nil {
			return err
		}
	}
	path := s.path(name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		_ = os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	return nil
}

// evictLocked selects least-recently-used blobs until the footprint is
// back under budget, removing them from the index; the caller deletes
// the files outside the lock.
func (s *Store) evictLocked() []victim {
	if s.budget <= 0 || s.bytes <= s.budget {
		return nil
	}
	type cand struct {
		name string
		used int64
		size int64
	}
	cands := make([]cand, 0, len(s.index))
	for name, e := range s.index {
		cands = append(cands, cand{name, e.used, e.size})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].used < cands[j].used })
	var victims []victim
	for _, c := range cands {
		if s.bytes <= s.budget {
			break
		}
		delete(s.index, c.name)
		s.bytes -= c.size
		victims = append(victims, victim{c.name, c.size})
	}
	return victims
}

// Snapshot flushes the write-behind queue: when it returns, every
// Store call that happened before it is durably on disk. It is the
// pre-shutdown (and pre-restart-test) barrier.
func (s *Store) Snapshot() {
	ch := make(chan struct{})
	select {
	case s.wq <- putReq{flush: ch}:
	case <-s.done:
		return
	}
	select {
	case <-ch:
	case <-s.done:
		// Closed while the barrier was queued: the writer's drain loop
		// services it if the writer is still up, but never wait on a
		// writer that has already exited.
	}
}

// Close flushes pending writes and stops the writer; it is idempotent.
// The store must not be used after Close; late Store calls are
// dropped, late Loads still work (reads need no writer).
func (s *Store) Close() {
	s.closeOnce.Do(func() {
		s.Snapshot()
		close(s.done)
		s.wg.Wait()
	})
}

// Stats returns the current counters and size gauges.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries, bytes := int64(len(s.index)), s.bytes
	s.mu.Unlock()
	readBr, writeBr := s.readBr.stats(), s.writeBr.stats()
	st := Stats{
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Puts:          s.puts.Load(),
		Evictions:     s.evictions.Load(),
		Corrupt:       s.corrupt.Load(),
		WriteErrors:   s.wfails.Load(),
		RawHits:       s.rawHits.Load(),
		RawMisses:     s.rawMisses.Load(),
		BlobUpgrades:  s.blobUpgrades.Load(),
		Entries:       entries,
		Bytes:         bytes,
		BudgetBytes:   s.budget,
		ReadRetries:   s.readRetries.Load(),
		WriteRetries:  s.writeRetries.Load(),
		SkippedReads:  s.skippedReads.Load(),
		SkippedWrites: s.skippedWrites.Load(),
		EvictErrors:   s.evictErrors.Load(),
		Degraded:      s.Degraded(),
		ReadBreaker:   &readBr,
		WriteBreaker:  &writeBr,
	}
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRate = float64(st.Hits) / float64(total)
	}
	return st
}

// ScanBlobs walks the shard tree at dir offline (no open Store needed)
// and calls fn with each readable blob's address and decoded identity.
// It is the against-disk half of provenance verification: every blob
// found here should appear in the chain. Unreadable or undecodable
// blobs are reported to fn with an empty platform name so the caller
// can flag them rather than silently skipping; fn returning an error
// stops the walk.
func ScanBlobs(dir string, fn func(addr, platformName, specKey string, version int) error) error {
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		addr := d.Name()[:len(d.Name())-len(".json")]
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return fn(addr, "", "", 0)
		}
		payload, _, ferr := decodeFrame(data)
		if errors.Is(ferr, errNotFramed) {
			payload = data
		} else if ferr != nil {
			return fn(addr, "", "", 0)
		}
		var b blob
		if jerr := json.Unmarshal(payload, &b); jerr != nil {
			return fn(addr, "", "", 0)
		}
		return fn(addr, b.Platform, b.SpecKey, b.Version)
	})
}
