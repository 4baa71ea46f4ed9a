package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzJournalReplay opens a manager on an arbitrary journal.jsonl.
// Replay must never panic, and every job it lists must have a unique
// id of the form Submit mints, a next id past it, and a result path
// under DIR/results. Revived jobs block until Close, so no result is
// written.
//
//	go test -run '^$' -fuzz FuzzJournalReplay -fuzztime 20s ./internal/jobs
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte(submittedLine(f, "../../../escaped") + "\n"))
	dup := submittedLine(f, "job-000000")
	f.Add([]byte(dup + "\n" + dup + "\n"))
	f.Add(crashJournal(f))

	blockRun := func(ctx context.Context, _ json.RawMessage, _ func(int, int)) (json.RawMessage, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	f.Fuzz(func(t *testing.T, journal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := Open(Config{Dir: dir, Run: blockRun})
		if err != nil {
			return
		}
		defer m.Close()
		m.mu.Lock()
		next := m.nextID
		m.mu.Unlock()
		seen := map[string]bool{}
		for _, v := range m.List() {
			if seen[v.ID] {
				t.Errorf("job %q listed twice", v.ID)
			}
			seen[v.ID] = true
			n, ok := minted(v.ID)
			if !ok {
				t.Errorf("listed job %q: not an id Submit mints", v.ID)
			} else if next <= n {
				t.Errorf("listed job %q, next id %d", v.ID, next)
			}
			if p := m.resultPath(v.ID); filepath.Dir(p) != m.resultsDir() {
				t.Errorf("job %q: result path %s outside %s", v.ID, p, m.resultsDir())
			}
		}
	})
}

// minted reports whether id is "job-" plus the %06d form of an n in
// [0, math.MaxInt), and returns n.
func minted(id string) (int, bool) {
	digits, ok := strings.CutPrefix(id, "job-")
	n, err := strconv.ParseUint(digits, 10, 63)
	if !ok || err != nil || n >= math.MaxInt || fmt.Sprintf("job-%06d", n) != id {
		return 0, false
	}
	return int(n), true
}

// crashJournal is a journal in the states the crash-recovery tests
// replay: a done job, a job cancelled while queued, a job interrupted
// while running, and a done record torn mid-write.
func crashJournal(f *testing.F) []byte {
	dir := f.TempDir()
	m, err := Open(Config{Dir: dir, Run: func(ctx context.Context, req json.RawMessage, progress func(int, int)) (json.RawMessage, error) {
		if string(req) == `{"k":"running"}` {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return echoRun(ctx, req, progress)
	}})
	if err != nil {
		f.Fatal(err)
	}
	submit := func(req string, points int) View {
		v, err := m.Submit(json.RawMessage(req), points)
		if err != nil {
			f.Fatal(err)
		}
		return v
	}
	waitState(f, m, submit(`{"k":"done"}`, 2).ID, StateDone)
	running := submit(`{"k":"running"}`, 4)
	waitState(f, m, running.ID, StateRunning)
	if _, err := m.Cancel(submit(`{"k":"queued"}`, 1).ID); err != nil {
		f.Fatal(err)
	}
	m.Close() // the running job's trail ends at "running"

	data, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	torn, _ := json.Marshal(record{Job: running.ID, Event: eventDone, Time: time.Now().UTC(), Done: 4})
	return append(data, torn[:len(torn)/2]...)
}
