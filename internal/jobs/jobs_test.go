package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// echoRun is a RunFunc that reports full progress and echoes the
// request back as the result.
func echoRun(_ context.Context, req json.RawMessage, progress func(done, failed int)) (json.RawMessage, error) {
	progress(2, 1)
	return json.RawMessage(`{"echo":` + string(req) + `}`), nil
}

func waitState(t testing.TB, m *Manager, id string, want State) View {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok := m.Get(id); ok && v.State == want {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	v, _ := m.Get(id)
	t.Fatalf("job %s stuck in %s, want %s", id, v.State, want)
	return View{}
}

func TestLifecycle(t *testing.T) {
	m, err := Open(Config{Dir: t.TempDir(), Run: echoRun})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	v, err := m.Submit(json.RawMessage(`{"n":1}`), 3)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateQueued || v.Points != 3 || v.ID == "" {
		t.Fatalf("submitted view = %+v", v)
	}
	done := waitState(t, m, v.ID, StateDone)
	if done.Done != 2 || done.FailedPoints != 1 {
		t.Errorf("progress = %d/%d, want 2/1", done.Done, done.FailedPoints)
	}
	if done.Started == nil || done.Finished == nil {
		t.Errorf("timestamps missing: %+v", done)
	}
	res, err := m.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != `{"echo":{"n":1}}` {
		t.Errorf("result = %s", res)
	}
	g := m.Stats()
	if g.Done != 1 || g.Queued != 0 || g.Running != 0 {
		t.Errorf("gauges = %+v", g)
	}
}

func TestEphemeralManagerWorks(t *testing.T) {
	m, err := Open(Config{Run: echoRun}) // no Dir: no journal, no blobs
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	v, err := m.Submit(json.RawMessage(`{}`), 1)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v.ID, StateDone)
	res, err := m.Result(v.ID)
	if err != nil || string(res) != `{"echo":{}}` {
		t.Errorf("ephemeral result = %s, %v", res, err)
	}
}

func TestResultBeforeDoneIsAnError(t *testing.T) {
	release := make(chan struct{})
	m, err := Open(Config{Run: func(ctx context.Context, _ json.RawMessage, _ func(int, int)) (json.RawMessage, error) {
		select {
		case <-release:
			return json.RawMessage(`{}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	v, _ := m.Submit(json.RawMessage(`{}`), 1)
	if _, err := m.Result(v.ID); !errors.Is(err, ErrNotFinished) {
		t.Errorf("early Result err = %v", err)
	}
	close(release)
	waitState(t, m, v.ID, StateDone)
	if _, err := m.Result("job-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("unknown Result err = %v", err)
	}
}

func TestFailedJob(t *testing.T) {
	m, err := Open(Config{Dir: t.TempDir(), Run: func(context.Context, json.RawMessage, func(int, int)) (json.RawMessage, error) {
		return nil, errors.New("axis exploded")
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	v, _ := m.Submit(json.RawMessage(`{}`), 1)
	failed := waitState(t, m, v.ID, StateFailed)
	if failed.Error != "axis exploded" {
		t.Errorf("error = %q", failed.Error)
	}
	if _, err := m.Result(v.ID); !errors.Is(err, ErrNotFinished) {
		t.Errorf("Result on failed job err = %v", err)
	}
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{})
	m, err := Open(Config{Dir: t.TempDir(), Run: func(ctx context.Context, _ json.RawMessage, _ func(int, int)) (json.RawMessage, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	v, _ := m.Submit(json.RawMessage(`{}`), 1)
	<-started
	if _, err := m.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, v.ID, StateCancelled)
	if got.Error != "" {
		t.Errorf("cancelled job carries error %q", got.Error)
	}
	if _, err := m.Cancel(v.ID); !errors.Is(err, ErrFinished) {
		t.Errorf("double cancel err = %v", err)
	}
}

// TestAcknowledgedCancelWinsOverSuccess: a run that ignores its
// context and succeeds after a 200-acknowledged cancel must still
// settle cancelled, journal it, and leave no result blob behind.
func TestAcknowledgedCancelWinsOverSuccess(t *testing.T) {
	dir := t.TempDir()
	started := make(chan struct{})
	release := make(chan struct{})
	m, err := Open(Config{Dir: dir, Run: func(_ context.Context, _ json.RawMessage, _ func(int, int)) (json.RawMessage, error) {
		close(started)
		<-release // never looks at ctx
		return json.RawMessage(`{}`), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := m.Submit(json.RawMessage(`{}`), 1)
	<-started
	if _, err := m.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	var got View
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if got, _ = m.Get(v.ID); got.State.Terminal() {
			break
		}
	}
	if got.State != StateCancelled {
		t.Fatalf("acknowledged cancel settled as %s", got.State)
	}
	m.Close()
	if _, err := os.Stat(m.resultPath(v.ID)); !os.IsNotExist(err) {
		t.Errorf("cancelled job left its result blob: %v", err)
	}
	m2, err := Open(Config{Dir: dir, Run: echoRun})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got, _ = m2.Get(v.ID); got.State != StateCancelled {
		t.Errorf("replayed job = %s, want cancelled", got.State)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	gate := make(chan struct{})
	m, err := Open(Config{Dir: t.TempDir(),
		Run: func(ctx context.Context, _ json.RawMessage, _ func(int, int)) (json.RawMessage, error) {
			<-gate
			return json.RawMessage(`{}`), nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	defer close(gate)
	blocker, _ := m.Submit(json.RawMessage(`{}`), 1)
	_ = blocker
	queued, _ := m.Submit(json.RawMessage(`{}`), 1)
	// Give the single worker a moment to pick up the blocker, then
	// cancel the job still in the queue.
	time.Sleep(10 * time.Millisecond)
	if _, err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	v := waitState(t, m, queued.ID, StateCancelled)
	if v.Started != nil {
		t.Error("cancelled-while-queued job claims to have started")
	}
}

// TestRestartResumesInterruptedJobs is the durability tentpole: jobs
// queued or running when the process dies must re-enter the queue on
// the next boot and complete.
func TestRestartResumesInterruptedJobs(t *testing.T) {
	dir := t.TempDir()
	block := make(chan struct{})
	m1, err := Open(Config{Dir: dir, Run: func(ctx context.Context, _ json.RawMessage, _ func(int, int)) (json.RawMessage, error) {
		select {
		case <-block:
			return json.RawMessage(`{}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	running, _ := m1.Submit(json.RawMessage(`{"k":"running"}`), 4)
	waitState(t, m1, running.ID, StateRunning)
	m1.Close() // daemon shutdown mid-job: journal trail ends at "running"

	// Reboot with a RunFunc that completes immediately.
	m2, err := Open(Config{Dir: dir, Run: echoRun})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	v := waitState(t, m2, running.ID, StateDone)
	if v.Points != 4 {
		t.Errorf("revived job lost its points: %+v", v)
	}
	res, err := m2.Result(running.ID)
	if err != nil || !strings.Contains(string(res), `"k":"running"`) {
		t.Errorf("revived result = %s, %v", res, err)
	}
	if g := m2.Stats(); g.Replayed != 1 {
		t.Errorf("replayed gauge = %d, want 1", g.Replayed)
	}
}

// TestRestartKeepsTerminalStates: done/failed/cancelled jobs come back
// exactly as they ended, results intact, and are not re-run.
func TestRestartKeepsTerminalStates(t *testing.T) {
	dir := t.TempDir()
	m1, err := Open(Config{Dir: dir, Run: echoRun})
	if err != nil {
		t.Fatal(err)
	}
	done, _ := m1.Submit(json.RawMessage(`{"k":1}`), 1)
	waitState(t, m1, done.ID, StateDone)
	m1.Close()

	ran := 0
	m2, err := Open(Config{Dir: dir, Run: func(context.Context, json.RawMessage, func(int, int)) (json.RawMessage, error) {
		ran++
		return json.RawMessage(`{}`), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	v, ok := m2.Get(done.ID)
	if !ok || v.State != StateDone {
		t.Fatalf("done job came back as %+v", v)
	}
	res, err := m2.Result(done.ID)
	if err != nil || string(res) != `{"echo":{"k":1}}` {
		t.Errorf("restored result = %s, %v", res, err)
	}
	time.Sleep(20 * time.Millisecond)
	if ran != 0 {
		t.Errorf("terminal job re-ran %d times", ran)
	}
}

// TestTornJournalRecordIsSkipped is the crash-recovery satellite: a
// journal whose last record was cut mid-write must replay cleanly —
// the torn line is dropped and the affected job resumes from its last
// intact transition.
func TestTornJournalRecordIsSkipped(t *testing.T) {
	dir := t.TempDir()
	m1, err := Open(Config{Dir: dir, Run: echoRun})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := m1.Submit(json.RawMessage(`{"k":"a"}`), 2)
	waitState(t, m1, a.ID, StateDone)
	m1.Close()

	// Simulate the crash: append a valid submitted record for job b,
	// then tear b's "done" record mid-write.
	path := filepath.Join(dir, "journal.jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	bSubmitted, _ := json.Marshal(record{
		Job: "job-000001", Event: eventSubmitted, Time: time.Now().UTC(),
		Points: 5, Request: json.RawMessage(`{"k":"b"}`),
	})
	fmt.Fprintf(f, "%s\n", bSubmitted)
	torn, _ := json.Marshal(record{Job: "job-000001", Event: eventDone, Time: time.Now().UTC(), Done: 5})
	f.Write(torn[:len(torn)/2]) // the crash: no newline, half a record
	f.Close()

	m2, err := Open(Config{Dir: dir, Run: echoRun})
	if err != nil {
		t.Fatalf("replay of torn journal failed: %v", err)
	}
	defer m2.Close()

	if g := m2.Stats(); g.Torn != 1 {
		t.Errorf("torn counter = %d, want 1", g.Torn)
	}
	// Job a's history is intact and untouched.
	if v, ok := m2.Get(a.ID); !ok || v.State != StateDone {
		t.Errorf("job a after torn replay = %+v", v)
	}
	// Job b lost its (torn) done record, so it resumes and completes.
	v := waitState(t, m2, "job-000001", StateDone)
	if v.Points != 5 {
		t.Errorf("resumed job points = %d, want 5", v.Points)
	}
	res, err := m2.Result("job-000001")
	if err != nil || !strings.Contains(string(res), `"k":"b"`) {
		t.Errorf("resumed result = %s, %v", res, err)
	}
	// New submissions must not collide with replayed IDs.
	c, err := m2.Submit(json.RawMessage(`{}`), 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.ID == a.ID || c.ID == "job-000001" {
		t.Errorf("ID collision after replay: %s", c.ID)
	}
}

// writeJournal writes lines as dir's journal, one record a line.
func writeJournal(t *testing.T, dir string, lines ...string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	data := strings.Join(lines, "\n") + "\n"
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func submittedLine(t testing.TB, id string) string {
	t.Helper()
	line, err := json.Marshal(record{
		Job: id, Event: eventSubmitted, Time: time.Unix(0, 0).UTC(),
		Points: 1, Request: json.RawMessage(`{}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(line)
}

// TestReplayRejectsUnmintedJobIDs: a submitted record whose id Submit
// could not have minted is torn, not a job. Revived, "../../../escaped"
// would write its result three directories above the results dir;
// job-9223372036854775807 would overflow the next id.
func TestReplayRejectsUnmintedJobIDs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b", "data")
	bad := []string{"../../../escaped", "job-1", "job-+00001", "job--00001", "job-0000001", "job-9223372036854775807", "job-000001/x"}
	var lines []string
	for _, id := range bad {
		lines = append(lines, submittedLine(t, id))
	}
	lines = append(lines, submittedLine(t, "job-000007"))
	writeJournal(t, dir, lines...)

	m, err := Open(Config{Dir: dir, Run: echoRun})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, "job-000007", StateDone)
	views := m.List()
	g := m.Stats()
	next, err := m.Submit(json.RawMessage(`{}`), 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()

	if len(views) != 1 || views[0].ID != "job-000007" {
		t.Errorf("replayed jobs = %+v, want job-000007 alone", views)
	}
	if g.Torn != int64(len(bad)) || g.Replayed != 1 {
		t.Errorf("torn = %d, replayed = %d; want %d and 1", g.Torn, g.Replayed, len(bad))
	}
	if next.ID != "job-000008" {
		t.Errorf("next id = %s, want job-000008", next.ID)
	}
	escaped := filepath.Join(dir, "results", "../../../escaped.json")
	if _, err := os.Stat(escaped); !os.IsNotExist(err) {
		t.Errorf("a replayed job wrote %s (stat err %v)", filepath.Clean(escaped), err)
	}
}

// TestReplayDropsDuplicateSubmission: a second submitted record for
// one id is torn, so the job lists and revives once.
func TestReplayDropsDuplicateSubmission(t *testing.T) {
	dir := t.TempDir()
	line := submittedLine(t, "job-000000")
	writeJournal(t, dir, line, line)

	m, err := Open(Config{Dir: dir, Run: echoRun})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	waitState(t, m, "job-000000", StateDone)
	if views := m.List(); len(views) != 1 {
		t.Errorf("listed %d jobs, want 1: %+v", len(views), views)
	}
	if g := m.Stats(); g.Replayed != 1 || g.Torn != 1 || g.Done != 1 {
		t.Errorf("gauges = %+v, want replayed 1, torn 1, done 1", g)
	}
}

// TestQueuedGaugeTracksLifecycle: the O(1) queued gauge (the server's
// Retry-After signal) must agree with the authoritative Stats scan as
// jobs queue, start and cancel.
func TestQueuedGaugeTracksLifecycle(t *testing.T) {
	gate := make(chan struct{})
	m, err := Open(Config{QueueDepth: 8,
		Run: func(ctx context.Context, _ json.RawMessage, _ func(int, int)) (json.RawMessage, error) {
			<-gate
			return json.RawMessage(`{}`), nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	defer close(gate)

	if got := m.Queued(); got != 0 {
		t.Fatalf("fresh manager Queued() = %d", got)
	}
	// One job occupies the worker; the rest wait in the queue.
	var views []View
	for i := 0; i < 4; i++ {
		v, err := m.Submit(json.RawMessage(`{}`), 1)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
	}
	// Wait until the worker has taken exactly one job off the queue.
	deadline := time.Now().Add(2 * time.Second)
	for m.Stats().Running != 1 {
		if time.Now().After(deadline) {
			t.Fatal("no job started running")
		}
		time.Sleep(time.Millisecond)
	}
	if got, want := m.Queued(), m.Stats().Queued; got != want || got != 3 {
		t.Fatalf("Queued() = %d, Stats().Queued = %d, want 3", got, want)
	}
	// Cancelling a queued job drops the gauge with it.
	if _, err := m.Cancel(views[3].ID); err != nil {
		t.Fatal(err)
	}
	if got, want := m.Queued(), m.Stats().Queued; got != want || got != 2 {
		t.Fatalf("after cancel: Queued() = %d, Stats().Queued = %d, want 2", got, want)
	}
}

func TestQueueFull(t *testing.T) {
	gate := make(chan struct{})
	m, err := Open(Config{QueueDepth: 1,
		Run: func(ctx context.Context, _ json.RawMessage, _ func(int, int)) (json.RawMessage, error) {
			<-gate
			return json.RawMessage(`{}`), nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	defer close(gate)
	// First job occupies the worker, second the queue slot; the third
	// must be rejected, not block the caller.
	if _, err := m.Submit(json.RawMessage(`{}`), 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err := m.Submit(json.RawMessage(`{}`), 1)
		if errors.Is(err, ErrQueueFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
	}
}

func TestSubmitAfterClose(t *testing.T) {
	m, err := Open(Config{Run: echoRun})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if _, err := m.Submit(json.RawMessage(`{}`), 1); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close err = %v", err)
	}
}

func TestList(t *testing.T) {
	m, err := Open(Config{Run: echoRun})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	a, _ := m.Submit(json.RawMessage(`{}`), 1)
	b, _ := m.Submit(json.RawMessage(`{}`), 1)
	views := m.List()
	if len(views) != 2 || views[0].ID != a.ID || views[1].ID != b.ID {
		t.Errorf("list = %+v", views)
	}
}

// TestCancelIntentSurvivesCrash: a DELETE acknowledged on a running
// job must replay as cancelled even when the process dies before the
// executor writes the terminal record.
func TestCancelIntentSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	started := make(chan struct{})
	block := make(chan struct{})
	m1, err := Open(Config{Dir: dir, Run: func(ctx context.Context, _ json.RawMessage, _ func(int, int)) (json.RawMessage, error) {
		close(started)
		<-block // never observes the cancel: simulates the crash window
		return json.RawMessage(`{}`), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := m1.Submit(json.RawMessage(`{}`), 1)
	<-started
	if _, err := m1.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	// "Crash": reopen the journal without closing m1 cleanly. The
	// journal trail ends at cancel_requested.
	m2, err := Open(Config{Dir: dir, Run: echoRun})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := m2.Get(v.ID)
	if !ok || got.State != StateCancelled {
		t.Errorf("replayed cancelled-in-flight job = %+v, want cancelled", got)
	}
	m2.Close()
	// Unblock m1's executor only after the assertions: Close waits for
	// the worker, which is parked on the block channel.
	close(block)
	m1.Close()
}

func TestEphemeralResultRetentionCap(t *testing.T) {
	m, err := Open(Config{Run: echoRun})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var first View
	for i := 0; i < maxEphemeralResults+1; i++ {
		v, err := m.Submit(json.RawMessage(`{}`), 1)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = v
		}
		waitState(t, m, v.ID, StateDone)
	}
	if _, err := m.Result(first.ID); err == nil || !strings.Contains(err.Error(), "expired") {
		t.Errorf("oldest ephemeral result not expired: %v", err)
	}
	// The newest is still retained.
	views := m.List()
	if _, err := m.Result(views[len(views)-1].ID); err != nil {
		t.Errorf("newest ephemeral result lost: %v", err)
	}
}
