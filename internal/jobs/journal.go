package jobs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dabench/internal/faults"
)

// Journal events, one per job state transition (plus progress beats
// and the cancel-intent marker).
const (
	eventSubmitted = "submitted"
	eventRunning   = "running"
	eventProgress  = "progress"
	eventDone      = "done"
	eventFailed    = "failed"
	eventCancelled = "cancelled"
	// eventCancelRequested records an acknowledged DELETE on a running
	// job before the executor observes it: if the process dies in that
	// window, replay honors the cancellation instead of resurrecting
	// the job.
	eventCancelRequested = "cancel_requested"
)

// record is one journal line. The submitted record carries the
// verbatim request so replay can re-execute it; terminal records carry
// the final counters the views report.
type record struct {
	Job     string          `json:"job"`
	Event   string          `json:"event"`
	Time    time.Time       `json:"time"`
	Points  int             `json:"points,omitempty"`
	Request json.RawMessage `json:"request,omitempty"`
	Done    int             `json:"done,omitempty"`
	Failed  int             `json:"failed,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// Journal degraded-mode tuning: journalDegradeThreshold consecutive
// write/fsync failures flip the journal to degraded (in-memory-only)
// mode; while degraded, every journalProbeInterval-th append is let
// through as a probe, and one success restores durable operation.
const (
	journalDegradeThreshold = 3
	journalProbeInterval    = 64
)

// JournalHealth is the journal's observable durability state — the
// "journal" component in /healthz and /v1/stats.
type JournalHealth struct {
	// Degraded means the journal has given up on the underlying file
	// after sustained failures: job state is in-memory only until a
	// probe append succeeds. The job pipeline keeps running — replay
	// after a crash loses what was skipped, nothing else.
	Degraded     bool  `json:"degraded"`
	AppendErrors int64 `json:"append_errors,omitempty"`
	SyncErrors   int64 `json:"sync_errors,omitempty"`
	// Skipped counts records dropped while degraded; Recoveries counts
	// degraded → healthy transitions won by a probe.
	Skipped    int64 `json:"skipped,omitempty"`
	Recoveries int64 `json:"recoveries,omitempty"`
}

// journal is the append-only JSONL log. One writer (the manager, under
// its own locking for ordering) appends whole lines; fsync is reserved
// for records replay correctness depends on.
//
// A failed append or fsync degrades durability, not liveness: the
// in-memory state machine stays authoritative for this process's
// lifetime. Failures are counted and, past a consecutive-failure
// threshold, flip the journal to a degraded in-memory mode that stops
// hammering the failing device; periodic probe appends restore it.
type journal struct {
	mu  sync.Mutex
	f   *os.File
	inj *faults.Injector // nil in production

	appendErrs, syncErrs, skipped, recoveries int64

	consecutive int
	degraded    bool
	sinceProbe  int
}

func openJournal(path string, inj *faults.Injector) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: journal: %w", err)
	}
	return &journal{f: f, inj: inj}, nil
}

func (j *journal) append(r record, sync bool) {
	data, err := json.Marshal(r)
	if err != nil {
		return // a record that cannot marshal is a programming error; never wedge the pipeline on it
	}
	data = append(data, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return
	}
	if j.degraded {
		j.sinceProbe++
		if j.sinceProbe < journalProbeInterval {
			j.skipped++
			return
		}
		j.sinceProbe = 0 // this append is the recovery probe
	}
	if err := j.writeLine(data); err != nil {
		j.appendErrs++
		j.noteFailure(err)
		return
	}
	if sync {
		if err := j.syncFile(); err != nil {
			j.syncErrs++
			j.noteFailure(err)
			return
		}
	}
	j.noteSuccess()
}

// writeLine is the injectable journal-write site.
func (j *journal) writeLine(data []byte) error {
	//dalint:ignore noctxbg -- journal I/O serves no one request: a started append or fsync runs to completion, as the real syscall would
	if err := j.inj.Fire(context.Background(), faults.OpJournalAppend); err != nil {
		return err
	}
	_, err := j.f.Write(data)
	return err
}

// syncFile is the injectable journal-fsync site.
func (j *journal) syncFile() error {
	//dalint:ignore noctxbg -- journal I/O serves no one request: a started append or fsync runs to completion, as the real syscall would
	if err := j.inj.Fire(context.Background(), faults.OpJournalSync); err != nil {
		return err
	}
	return j.f.Sync()
}

// noteFailure extends the consecutive-failure run and flips to
// degraded mode at the threshold, logging once per transition — a
// sustained journal failure must be visible in the daemon log, not
// silently swallowed. Caller holds mu.
func (j *journal) noteFailure(err error) {
	j.consecutive++
	if !j.degraded && j.consecutive >= journalDegradeThreshold {
		j.degraded = true
		j.sinceProbe = 0
		log.Printf("jobs: journal degraded after %d consecutive failures (last: %v); "+
			"job state is in-memory only until a probe append succeeds", j.consecutive, err)
	}
}

// noteSuccess resets the failure run; a success while degraded is a
// won probe and restores durable operation. Caller holds mu.
func (j *journal) noteSuccess() {
	j.consecutive = 0
	if j.degraded {
		j.degraded = false
		j.recoveries++
		log.Printf("jobs: journal recovered; durable appends resume")
	}
}

// health snapshots the journal's durability counters.
func (j *journal) health() JournalHealth {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalHealth{
		Degraded:     j.degraded,
		AppendErrors: j.appendErrs,
		SyncErrors:   j.syncErrs,
		Skipped:      j.skipped,
		Recoveries:   j.recoveries,
	}
}

func (j *journal) close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		if err := j.f.Sync(); err != nil {
			j.syncErrs++
		}
		_ = j.f.Close()
		j.f = nil
	}
}

// readJournal replays path into its records, tolerating torn writes: a
// line that does not parse as a record (a crash mid-append, a partial
// flush) is skipped and counted, never fatal. A missing journal is an
// empty one.
func readJournal(path string) (recs []record, torn int, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("jobs: journal: %w", err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20) // submitted records carry whole requests
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(line, &r); err != nil || r.Job == "" || r.Event == "" {
			torn++
			continue
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		// An unreadable tail (e.g. a line over the buffer cap) is torn,
		// not fatal — everything scanned before it still replays.
		if err == bufio.ErrTooLong || err == io.ErrUnexpectedEOF {
			torn++
			return recs, torn, nil
		}
		return nil, torn, fmt.Errorf("jobs: journal: %w", err)
	}
	return recs, torn, nil
}

// writeFileAtomic writes data to path via a temp file + rename so a
// crash never leaves a half-written result blob at the final name.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		_ = os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		if serr != nil {
			return serr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	return nil
}
