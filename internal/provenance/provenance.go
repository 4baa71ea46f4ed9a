// Package provenance chains every result-store blob write into a
// hash-linked, append-only log, so any served artifact can be traced
// back to the pipeline version, platform and spec that produced it —
// and so silent mutation of past results is detectable. It is the
// cheap half of a transparency log: no Merkle tree, no signatures,
// just a SHA-256 chain where record N commits to record N-1, which
// means tampering with (or deleting) any interior record breaks every
// hash after it.
//
// The log is a JSONL file, one Record per line. Each record's Hash
// covers a canonical serialization of its own fields plus the previous
// record's hash; the first record links to a fixed genesis hash.
// Appends are deduplicated by address — a blob rewritten with its run
// report attached does not append a second record, because the address
// (and therefore the identity it binds) is unchanged.
//
// Durability posture matches the store it shadows: appends flush to
// the OS on every record but do not fsync — the log is tamper
// evidence and lineage, not a ledger of record; a torn tail record
// (crash mid-append) is truncated on the next Open. A record that
// fails hash verification, by contrast, is never repaired silently:
// Open and Verify fail loudly, because a broken chain is exactly the
// signal this package exists to raise.
//
// Sharing: one process owns the log at a time. Two writers would each
// extend their own in-memory tip and fork the chain — share a data
// directory sequentially (daemon, then CLI), never concurrently.
package provenance

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// Record is one chain entry: the identity of a blob the store
// persisted, linked to its predecessor by hash.
type Record struct {
	// Seq is the 1-based chain position.
	Seq int64 `json:"seq"`
	// PrevHash is the Hash of record Seq-1 (the genesis hash for Seq 1).
	PrevHash string `json:"prev_hash"`
	// Addr is the blob's content address (the store's SHA-256 name).
	Addr string `json:"addr"`
	// PipelineVersion, Platform and SpecKey are the blob's identity —
	// the same triple the address was derived from, recorded plainly so
	// lineage queries need no store read.
	PipelineVersion int    `json:"pipeline_version"`
	Platform        string `json:"platform"`
	SpecKey         string `json:"spec_key"`
	// Hash is the SHA-256 over this record's canonical serialization
	// (every field above, in order, NUL-separated) — the value the next
	// record's PrevHash commits to.
	Hash string `json:"hash"`
}

// genesisHash anchors the chain: the PrevHash of the first record.
var genesisHash = func() string {
	h := sha256.Sum256([]byte("dabench/provenance/genesis/v1"))
	return hex.EncodeToString(h[:])
}()

// GenesisHash returns the fixed anchor hash of every chain.
func GenesisHash() string { return genesisHash }

// hashRecord computes a record's Hash from its other fields.
func hashRecord(r Record) string {
	h := sha256.New()
	h.Write([]byte("dabench/provenance/record"))
	for _, part := range []string{
		strconv.FormatInt(r.Seq, 10), r.PrevHash, r.Addr,
		strconv.Itoa(r.PipelineVersion), r.Platform, r.SpecKey,
	} {
		h.Write([]byte{0})
		h.Write([]byte(part))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verifyLink checks one record against the expected chain position and
// predecessor hash.
func verifyLink(r Record, wantSeq int64, wantPrev string) error {
	if r.Seq != wantSeq {
		return fmt.Errorf("provenance: record %d: seq %d out of order (want %d)", wantSeq, r.Seq, wantSeq)
	}
	if r.PrevHash != wantPrev {
		return fmt.Errorf("provenance: record %d: prev_hash %.12s does not link to %.12s — chain broken", r.Seq, r.PrevHash, wantPrev)
	}
	if got := hashRecord(r); got != r.Hash {
		return fmt.Errorf("provenance: record %d: hash %.12s does not match content (want %.12s) — record tampered or corrupt", r.Seq, r.Hash, got)
	}
	return nil
}

// Stats is the log's observable state.
type Stats struct {
	// Records is the chain length (== the tip's Seq).
	Records int64 `json:"records"`
	// TipHash is the newest record's Hash (the genesis hash when empty).
	TipHash string `json:"tip_hash"`
}

// Log is an open provenance chain. Create with Open; safe for
// concurrent use.
type Log struct {
	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer
	seq    int64
	tip    string
	byAddr map[string]Record
	errs   int64 // append I/O failures (the chain in memory stays consistent)
}

// Open loads (or creates) the log at path, replaying and verifying the
// existing chain. A torn final line — a crash mid-append — is
// truncated; any other verification failure is returned as an error,
// because a broken chain must be investigated, not silently extended.
func Open(path string) (*Log, error) {
	// The chain opens before the store it audits, so the data dir may
	// not exist yet on a fresh deployment.
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("provenance: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("provenance: %w", err)
	}
	l := &Log{f: f, tip: genesisHash, byAddr: map[string]Record{}}
	keep, err := l.replay()
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(keep); err != nil {
		f.Close()
		return nil, fmt.Errorf("provenance: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("provenance: %w", err)
	}
	l.w = bufio.NewWriter(f)
	return l, nil
}

// replay walks the file, verifying each record and building the index.
// It returns the byte offset of the verified prefix; anything after it
// is a torn tail to truncate. A record that parses but fails chain
// verification is an error — only an incomplete *final* line is
// recoverable.
func (l *Log) replay() (int64, error) {
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("provenance: %w", err)
	}
	var keep int64
	sc := bufio.NewScanner(l.f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			// A malformed line is recoverable only if nothing follows it
			// (a torn tail). Peek: if another line exists, the damage is
			// interior and the chain is broken.
			if sc.Scan() {
				return 0, fmt.Errorf("provenance: record %d is not valid JSON and is not the final record — chain broken", l.seq+1)
			}
			return keep, nil
		}
		if err := verifyLink(r, l.seq+1, l.tip); err != nil {
			return 0, err
		}
		l.seq = r.Seq
		l.tip = r.Hash
		if _, ok := l.byAddr[r.Addr]; !ok {
			l.byAddr[r.Addr] = r
		}
		keep += int64(len(line)) + 1 // the scanner strips the newline
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("provenance: read: %w", err)
	}
	return keep, nil
}

// Append extends the chain with one blob write. Appends are
// deduplicated by address: re-storing an outcome (run report attached)
// is a no-op because the identity is unchanged. I/O
// failures are counted but do not fail the caller — the store's write
// hook must never make a blob write fail — and the in-memory chain
// stays consistent with what was durably framed.
func (l *Log) Append(addr, platformName, specKey string, pipelineVersion int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.byAddr[addr]; ok {
		return
	}
	r := Record{
		Seq: l.seq + 1, PrevHash: l.tip, Addr: addr,
		PipelineVersion: pipelineVersion, Platform: platformName, SpecKey: specKey,
	}
	r.Hash = hashRecord(r)
	line, err := json.Marshal(r)
	if err != nil {
		l.errs++
		return
	}
	if _, err := l.w.Write(append(line, '\n')); err != nil {
		l.errs++
		return
	}
	if err := l.w.Flush(); err != nil {
		l.errs++
		return
	}
	l.seq = r.Seq
	l.tip = r.Hash
	l.byAddr[addr] = r
}

// Lookup returns the chain record for a blob address.
func (l *Log) Lookup(addr string) (Record, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.byAddr[addr]
	return r, ok
}

// Stats returns the chain length and tip hash.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Records: l.seq, TipHash: l.tip}
}

// Close flushes and closes the underlying file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w != nil {
		if err := l.w.Flush(); err != nil {
			l.f.Close()
			return err
		}
	}
	return l.f.Close()
}

// VerifyResult is what VerifyFile reports for an intact chain.
type VerifyResult struct {
	Records int64
	TipHash string
	// ByAddr indexes the chain for the against-store half of a full
	// verification (first record per address wins, matching Log).
	ByAddr map[string]Record
	// Hashes holds every record hash in the chain (plus the genesis
	// anchor): the membership set a peer-remembered tip is checked
	// against — a tip a peer observed must be this chain's current tip
	// or one of its ancestors, or the chain was rewritten.
	Hashes map[string]bool
}

// VerifyFile walks the chain at path without opening it for writing:
// every record must parse, link to its predecessor, and hash to its
// own Hash field. Unlike Open, a torn tail is also an error — offline
// verification has no business repairing anything. A missing file
// verifies as an empty chain.
func VerifyFile(path string) (*VerifyResult, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return &VerifyResult{TipHash: genesisHash, ByAddr: map[string]Record{},
			Hashes: map[string]bool{genesisHash: true}}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("provenance: %w", err)
	}
	res := &VerifyResult{TipHash: genesisHash, ByAddr: map[string]Record{},
		Hashes: map[string]bool{genesisHash: true}}
	for len(data) > 0 {
		var line []byte
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			line, data = data, nil
		}
		if len(line) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("provenance: record %d is not valid JSON: %w", res.Records+1, err)
		}
		if err := verifyLink(r, res.Records+1, res.TipHash); err != nil {
			return nil, err
		}
		res.Records = r.Seq
		res.TipHash = r.Hash
		res.Hashes[r.Hash] = true
		if _, ok := res.ByAddr[r.Addr]; !ok {
			res.ByAddr[r.Addr] = r
		}
	}
	return res, nil
}
