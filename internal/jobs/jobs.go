// Package jobs is the durable async job manager behind POST /v1/jobs:
// long-running sweep work that outlives a single HTTP request. Where
// /v1/sweep is synchronous and budget-capped, a job is accepted
// immediately, executed on a background pool, and observed through its
// id — with every state transition journaled to an append-only JSONL
// log that is replayed on boot, so a daemon restart resumes (not
// loses) the queue.
//
// The manager is deliberately ignorant of sweeps: it owns lifecycle
// (queued → running → done/failed/cancelled), the journal, progress
// counters and result blobs, while the caller supplies one RunFunc
// that interprets the submitted request. That split keeps the journal
// format stable while the request vocabulary grows.
//
// Durability rules:
//
//   - submitted/terminal events are fsynced; progress events are not
//     (losing one costs a stale progress counter, nothing else).
//   - Results are written to a blob file before the "done" event, so a
//     journaled done always has its result.
//   - Replay tolerates a torn tail (a record cut mid-write by a
//     crash): the bad line is skipped and the affected job simply
//     resumes from its last intact transition — a job that was
//     queued or running re-enters the queue.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dabench/internal/faults"
)

// State is a job's lifecycle position.
type State string

// The job lifecycle. Queued and Running are live (and revive as Queued
// across a restart); the other three are terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// RunFunc executes one job's request. It must honor ctx (cancellation
// and daemon shutdown arrive through it), report cumulative progress
// via progress(done, failed) as it goes, and return the job's result
// as a self-contained JSON document.
type RunFunc func(ctx context.Context, req json.RawMessage, progress func(done, failed int)) (json.RawMessage, error)

// Config tunes one Manager.
type Config struct {
	// Dir is the journal/results directory. "" runs ephemeral: full
	// lifecycle, no durability.
	Dir string
	// Run executes a job's request (required). One job runs at a time:
	// jobs are batch work sharing the machine with interactive sweeps.
	Run RunFunc
	// QueueDepth bounds accepted-but-unstarted jobs (default 1024);
	// past it Submit returns ErrQueueFull.
	QueueDepth int
	// Injector is the optional fault-injection hook fired at the
	// journal's write/fsync sites. Nil injects nothing.
	Injector *faults.Injector
}

// Errors returned by the manager's accessors.
var (
	ErrUnknownJob  = errors.New("jobs: unknown job")
	ErrQueueFull   = errors.New("jobs: queue full")
	ErrNotFinished = errors.New("jobs: job not finished")
	ErrFinished    = errors.New("jobs: job already finished")
	ErrClosed      = errors.New("jobs: manager closed")
	// ErrNoResult marks a job that will never have a result to fetch:
	// it failed, was cancelled, or its in-memory result aged out of
	// the ephemeral retention cap.
	ErrNoResult = errors.New("jobs: job has no result")
)

// View is the wire form of a job's observable state.
type View struct {
	ID     string `json:"id"`
	State  State  `json:"state"`
	Points int    `json:"points"`
	// Done and FailedPoints are cumulative progress counters;
	// FailedPoints counts tolerated placement failures, not job errors.
	Done         int        `json:"done"`
	FailedPoints int        `json:"failed_points"`
	Created      time.Time  `json:"created"`
	Started      *time.Time `json:"started,omitempty"`
	Finished     *time.Time `json:"finished,omitempty"`
	Error        string     `json:"error,omitempty"`
}

type job struct {
	id      string
	state   State
	points  int
	done    int
	failed  int
	created time.Time
	started time.Time
	finish  time.Time
	err     string
	request json.RawMessage

	cancelRequested bool
	cancel          context.CancelFunc // non-nil while running
}

func (j *job) view() View {
	v := View{
		ID: j.id, State: j.state, Points: j.points,
		Done: j.done, FailedPoints: j.failed,
		Created: j.created, Error: j.err,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finish.IsZero() {
		t := j.finish
		v.Finished = &t
	}
	return v
}

// Gauges is the job-manager section of /v1/stats.
type Gauges struct {
	Queued    int64 `json:"queued"`
	Running   int64 `json:"running"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	// Replayed counts jobs revived from the journal on boot; Torn
	// counts journal lines dropped as corrupt during that replay,
	// including submitted records whose id is malformed or repeated.
	Replayed int64 `json:"replayed,omitempty"`
	Torn     int64 `json:"torn_records,omitempty"`
	// Journal is the journal's durability health; nil for an ephemeral
	// (Dir == "") manager, which has no journal to degrade.
	Journal *JournalHealth `json:"journal,omitempty"`
}

// Manager owns the job table, the journal and the background worker.
// Create with Open.
type Manager struct {
	cfg     Config
	journal *journal // nil when ephemeral

	mu             sync.Mutex
	jobs           map[string]*job
	order          []string // submission order, for List
	nextID         int
	closed         bool
	ephemeral      map[string]json.RawMessage // results when Dir == "" (capped; see retainEphemeralLocked)
	ephemeralIDs   []string                   // retention order for the caps
	ephemeralBytes int                        // total size of the retained results

	replayed, torn int64

	// queuedGauge tracks jobs in StateQueued with one atomic, so hot
	// observers (the server's 429 Retry-After derivation fires on
	// every shed request during a saturation storm) never take mu or
	// scan the job table. Stats() remains the authoritative full scan.
	queuedGauge atomic.Int64

	queue    chan *job
	shutdown context.CancelFunc
	baseCtx  context.Context
	wg       sync.WaitGroup
}

// Open builds a Manager, replaying cfg.Dir's journal (if any): jobs
// that were queued or running when the previous process died re-enter
// the queue, terminal jobs come back with their final state and (for
// done jobs) their persisted results.
func Open(cfg Config) (*Manager, error) {
	if cfg.Run == nil {
		return nil, errors.New("jobs: Config.Run is required")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	m := &Manager{
		cfg:  cfg,
		jobs: map[string]*job{},
	}
	//dalint:ignore noctxbg -- the manager's lifecycle root: cancelled by Shutdown, and every job context derives from it
	m.baseCtx, m.shutdown = context.WithCancel(context.Background())

	var revived []*job
	if cfg.Dir != "" {
		if err := os.MkdirAll(m.resultsDir(), 0o755); err != nil {
			return nil, fmt.Errorf("jobs: %w", err)
		}
		var err error
		if revived, err = m.replay(); err != nil {
			return nil, err
		}
		j, err := openJournal(filepath.Join(cfg.Dir, "journal.jsonl"), cfg.Injector)
		if err != nil {
			return nil, err
		}
		m.journal = j
	}

	// The queue must absorb the replayed backlog in one shot — Open
	// cannot block on its own boot.
	depth := cfg.QueueDepth
	if len(revived) > depth {
		depth = len(revived)
	}
	m.queue = make(chan *job, depth)
	m.queuedGauge.Store(int64(len(revived)))
	for _, j := range revived {
		m.queue <- j
	}

	m.wg.Add(1)
	go m.worker()
	return m, nil
}

func (m *Manager) resultsDir() string { return filepath.Join(m.cfg.Dir, "results") }

func (m *Manager) resultPath(id string) string {
	return filepath.Join(m.resultsDir(), id+".json")
}

// replay rebuilds the job table from the journal, returning the jobs
// to revive (queued or running at the previous death). Called before
// the journal reopens for append and before the worker starts.
func (m *Manager) replay() ([]*job, error) {
	recs, torn, err := readJournal(filepath.Join(m.cfg.Dir, "journal.jsonl"))
	if err != nil {
		return nil, err
	}
	m.torn = int64(torn)
	for _, r := range recs {
		switch r.Event {
		case eventSubmitted:
			// Only a new id of the minted form names a job: any other
			// could list twice or put its result outside resultsDir.
			n := idNumber(r.Job)
			if n < 0 || m.jobs[r.Job] != nil {
				m.torn++
				continue
			}
			m.jobs[r.Job] = &job{
				id: r.Job, state: StateQueued, points: r.Points,
				created: r.Time, request: r.Request,
			}
			m.order = append(m.order, r.Job)
			if n >= m.nextID {
				m.nextID = n + 1
			}
		case eventRunning:
			if j := m.jobs[r.Job]; j != nil {
				j.state = StateRunning
				j.started = r.Time
			}
		case eventProgress:
			if j := m.jobs[r.Job]; j != nil {
				j.done, j.failed = r.Done, r.Failed
			}
		case eventDone:
			if j := m.jobs[r.Job]; j != nil {
				j.state = StateDone
				j.done, j.failed = r.Done, r.Failed
				j.finish = r.Time
			}
		case eventFailed:
			if j := m.jobs[r.Job]; j != nil {
				j.state = StateFailed
				j.err = r.Error
				j.finish = r.Time
			}
		case eventCancelled:
			if j := m.jobs[r.Job]; j != nil {
				j.state = StateCancelled
				j.finish = r.Time
			}
		case eventCancelRequested:
			if j := m.jobs[r.Job]; j != nil {
				j.cancelRequested = true
				j.finish = r.Time // provisional; a terminal record overwrites it
			}
		}
	}
	// Revive interrupted work; a done job whose result blob vanished is
	// recomputed rather than served a 404 forever.
	var revived []*job
	for _, id := range m.order {
		j := m.jobs[id]
		if j.cancelRequested && !j.state.Terminal() {
			// The previous life acknowledged a cancel but died before
			// the executor's terminal record: honor it.
			j.state = StateCancelled
			continue
		}
		if j.state == StateDone {
			if _, err := os.Stat(m.resultPath(id)); err != nil {
				j.state = StateQueued
			}
		}
		if j.state == StateQueued || j.state == StateRunning {
			j.state = StateQueued
			j.started = time.Time{}
			j.done, j.failed = 0, 0
			m.replayed++
			revived = append(revived, j)
		}
	}
	return revived, nil
}

// jobID is the id Submit mints for job number n: "job-000042".
func jobID(n int) string { return fmt.Sprintf("job-%06d", n) }

// idNumber returns n for the id jobID(n) of a non-negative n below
// math.MaxInt, so that nextID = n+1 cannot overflow, and -1 for any
// other string.
func idNumber(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	if err != nil || n < 0 || n == math.MaxInt || jobID(n) != id {
		return -1
	}
	return n
}

// Submit accepts a request for asynchronous execution. points is the
// caller-computed sweep size (progress denominators); req must be
// self-contained — it is journaled verbatim and re-executed on replay.
func (m *Manager) Submit(req json.RawMessage, points int) (View, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return View{}, ErrClosed
	}
	j := &job{
		id:      jobID(m.nextID),
		state:   StateQueued,
		points:  points,
		created: time.Now().UTC(),
		request: req,
	}
	// Enqueue before registering: the worker never takes mu to receive, so
	// the buffered send cannot block, and a full queue rejects the job
	// with no state to unwind.
	select {
	case m.queue <- j:
	default:
		return View{}, ErrQueueFull
	}
	m.nextID++
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.queuedGauge.Add(1)
	m.append(record{Job: j.id, Event: eventSubmitted, Time: j.created, Points: points, Request: req}, true)
	return j.view(), nil
}

// Queued reports the number of jobs currently waiting to run. Unlike
// Stats it is a single atomic load — safe on hot paths like the
// server's load-shedding 429s.
func (m *Manager) Queued() int64 { return m.queuedGauge.Load() }

// Durable reports whether the manager journals to disk. Ephemeral job
// IDs restart from scratch every boot, so anything derived from an ID's
// identity across processes (the server's job-result ETags) must check
// this first.
func (m *Manager) Durable() bool { return m.journal != nil }

// Get returns a job's current view.
func (m *Manager) Get(id string) (View, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return View{}, false
	}
	return j.view(), true
}

// List returns every job in submission order.
func (m *Manager) List() []View {
	m.mu.Lock()
	defer m.mu.Unlock()
	views := make([]View, len(m.order))
	for i, id := range m.order {
		views[i] = m.jobs[id].view()
	}
	return views
}

// Result returns a done job's persisted result document. A queued or
// running job's result is ErrNotFinished; a failed or cancelled job's,
// or an expired ephemeral one, is ErrNoResult.
func (m *Manager) Result(id string) (json.RawMessage, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, ErrUnknownJob
	}
	state, jobErr := j.state, j.err
	ephemeral, retained := m.ephemeral[id]
	m.mu.Unlock()
	switch state {
	case StateDone:
	case StateFailed:
		return nil, fmt.Errorf("%w (state %s: %s)", ErrNoResult, state, jobErr)
	case StateCancelled:
		return nil, fmt.Errorf("%w (state %s)", ErrNoResult, state)
	default:
		return nil, fmt.Errorf("%w (state %s)", ErrNotFinished, state)
	}
	if m.journal == nil {
		if !retained {
			return nil, fmt.Errorf("%w (state %s: result expired, ephemeral retention keeps the last %d results and at most %d MiB)",
				ErrNoResult, state, maxEphemeralResults, maxEphemeralBytes>>20)
		}
		return ephemeral, nil
	}
	data, err := os.ReadFile(m.resultPath(id))
	if err != nil {
		return nil, fmt.Errorf("jobs: result blob for %s: %w", id, err)
	}
	return data, nil
}

// Cancel requests cancellation. A queued job is cancelled on the spot;
// a running one has its context cancelled and transitions once the
// executor observes it. Cancelling a terminal job is ErrFinished.
func (m *Manager) Cancel(id string) (View, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return View{}, ErrUnknownJob
	}
	switch {
	case j.state.Terminal():
		return j.view(), ErrFinished
	case j.state == StateQueued:
		j.state = StateCancelled
		j.finish = time.Now().UTC()
		m.queuedGauge.Add(-1)
		m.append(record{Job: j.id, Event: eventCancelled, Time: j.finish}, true)
	default: // running
		j.cancelRequested = true
		// Journal the intent before acknowledging: a crash between
		// this 200 and the executor's terminal record must replay as
		// cancelled, not resurrect the job.
		m.append(record{Job: j.id, Event: eventCancelRequested, Time: time.Now().UTC()}, true)
		if j.cancel != nil {
			j.cancel()
		}
	}
	return j.view(), nil
}

// Stats returns the live gauges.
func (m *Manager) Stats() Gauges {
	m.mu.Lock()
	defer m.mu.Unlock()
	g := Gauges{Replayed: m.replayed, Torn: m.torn}
	if m.journal != nil {
		h := m.journal.health()
		g.Journal = &h
	}
	for _, j := range m.jobs {
		switch j.state {
		case StateQueued:
			g.Queued++
		case StateRunning:
			g.Running++
		case StateDone:
			g.Done++
		case StateFailed:
			g.Failed++
		case StateCancelled:
			g.Cancelled++
		}
	}
	return g
}

// append journals a record if the manager is durable; sync forces an
// fsync (submission and terminal transitions — the events replay
// correctness depends on).
func (m *Manager) append(r record, sync bool) {
	if m.journal != nil {
		m.journal.append(r, sync)
	}
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case j, ok := <-m.queue:
			if !ok {
				return
			}
			m.execute(j)
		case <-m.baseCtx.Done():
			return
		}
	}
}

func (m *Manager) execute(j *job) {
	m.mu.Lock()
	if j.state != StateQueued { // cancelled while queued
		m.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	defer cancel()
	j.state = StateRunning
	j.started = time.Now().UTC()
	j.cancel = cancel
	m.queuedGauge.Add(-1)
	m.append(record{Job: j.id, Event: eventRunning, Time: j.started}, false)
	m.mu.Unlock()

	progress := func(done, failed int) {
		m.mu.Lock()
		j.done, j.failed = done, failed
		m.append(record{Job: j.id, Event: eventProgress, Time: time.Now().UTC(), Done: done, Failed: failed}, false)
		m.mu.Unlock()
	}
	result, err := m.cfg.Run(ctx, j.request, progress)

	// Persist the result blob before taking the lock: a large result
	// fsyncs for a while, and the whole job API (Get/List/Stats/Submit)
	// must not stall behind it. Blob first, then the journaled
	// transition: a crash between the two replays as "running" and
	// recomputes — a journaled done always has its result.
	var persistErr error
	if err == nil && m.journal != nil {
		persistErr = writeFileAtomic(m.resultPath(j.id), result)
	}

	if m.settle(j, result, err, persistErr) == StateCancelled && err == nil && m.journal != nil {
		// The run finished after its cancel was acknowledged: the blob
		// it persisted belongs to a job that is not done. Best effort —
		// Result serves only done jobs, so a leftover file is inert.
		_ = os.Remove(m.resultPath(j.id))
	}
}

// settle records a finished execution's terminal transition (or its
// requeue on daemon shutdown) and returns the job's new state.
func (m *Manager) settle(j *job, result json.RawMessage, err, persistErr error) State {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.cancel = nil
	now := time.Now().UTC()
	switch {
	case j.cancelRequested:
		// A cancel acknowledged with 200 is a promise: the job settles
		// cancelled whatever the run returned, even success.
		j.state = StateCancelled
		j.finish = now
		m.append(record{Job: j.id, Event: eventCancelled, Time: now}, true)
	case err == nil && persistErr != nil:
		j.state = StateFailed
		j.err = fmt.Sprintf("persist result: %v", persistErr)
		j.finish = now
		m.append(record{Job: j.id, Event: eventFailed, Time: now, Error: j.err}, true)
	case err == nil:
		if m.journal == nil {
			m.retainEphemeralLocked(j.id, result)
		}
		j.state = StateDone
		j.finish = now
		m.append(record{Job: j.id, Event: eventDone, Time: now, Done: j.done, Failed: j.failed}, true)
	case m.baseCtx.Err() != nil:
		// Daemon shutdown, not a user cancel: leave the job's journal
		// trail at "running" so the next boot revives it. In-memory
		// state goes back to queued for accuracy until exit.
		j.state = StateQueued
		j.started = time.Time{}
		m.queuedGauge.Add(1)
	default:
		j.state = StateFailed
		j.err = err.Error()
		j.finish = now
		m.append(record{Job: j.id, Event: eventFailed, Time: now, Error: j.err}, true)
	}
	return j.state
}

// maxEphemeralResults and maxEphemeralBytes bound the finished jobs'
// results an ephemeral (Dir == "") manager retains in memory, by count
// and by total size: one 100k-point result is about 51 MB, so a count
// alone could hold gigabytes. Durable managers keep every result on
// disk; RAM-only ones would otherwise grow without bound on a
// long-lived daemon.
const (
	maxEphemeralResults = 64
	maxEphemeralBytes   = 64 << 20
)

// retainEphemeralLocked stores an in-memory result, expiring the
// oldest ones while either cap is exceeded. The newest result is kept
// even when it alone is over the byte cap. Caller holds mu.
func (m *Manager) retainEphemeralLocked(id string, result json.RawMessage) {
	if m.ephemeral == nil {
		m.ephemeral = map[string]json.RawMessage{}
	}
	m.ephemeral[id] = result
	m.ephemeralIDs = append(m.ephemeralIDs, id)
	m.ephemeralBytes += len(result)
	for len(m.ephemeralIDs) > 1 &&
		(len(m.ephemeralIDs) > maxEphemeralResults || m.ephemeralBytes > maxEphemeralBytes) {
		oldest := m.ephemeralIDs[0]
		m.ephemeralBytes -= len(m.ephemeral[oldest])
		delete(m.ephemeral, oldest)
		m.ephemeralIDs = m.ephemeralIDs[1:]
	}
}

// Close stops accepting work, cancels running jobs (they revive on the
// next boot when durable) and releases the journal.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()

	m.shutdown()
	m.wg.Wait()
	if m.journal != nil {
		m.journal.close()
	}
}
