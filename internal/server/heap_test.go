package server

import (
	"encoding/json"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"dabench/internal/experiments"
	"dabench/internal/jobs"
)

// TestJobHeapIsBounded: a daemon's memory follows from its flags, not
// its history. A durable server writes a job's result to disk, so once
// a 100,000-point job is done the live heap holds only what the daemon
// keeps across requests: the bounded compile and graph memos, the job
// table and the telemetry. It must grow by less than heapBudget.
func TestJobHeapIsBounded(t *testing.T) {
	const heapBudget = 4 << 20
	experiments.ResetCaches()
	t.Cleanup(experiments.ResetCaches)
	ts := newTestServer(t, Config{JobsDir: t.TempDir()})

	layers := make([]string, heapJobLayers)
	for i := range layers {
		layers[i] = strconv.Itoa(i + 1)
	}
	batches := make([]string, 100)
	for i := range batches {
		batches[i] = strconv.Itoa(i + 1)
	}
	body := `{"platform":"gpu","model":"gpt2-small","layer_counts":[` + strings.Join(layers, ",") +
		`],"batches":[` + strings.Join(batches, ",") + `],"precisions":["FP16","BF16"]}`
	points := heapJobLayers * 100 * 2

	before := liveHeap()
	resp, b := postJSON(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, b)
	}
	var v jobs.View
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatal(err)
	}
	if v.Points != points {
		t.Fatalf("job has %d points, want %d", v.Points, points)
	}
	if done := waitJobState(t, ts, v.ID, jobs.StateDone); done.Done != points {
		t.Fatalf("job finished %d of %d points", done.Done, points)
	}
	after := liveHeap()
	grew := int64(after) - int64(before)
	t.Logf("%d-point job: live heap %.1f → %.1f MB", points, float64(before)/1e6, float64(after)/1e6)
	if grew >= heapBudget {
		t.Errorf("live heap grew %.1f MB over a %d-point job, want under %.0f MiB",
			float64(grew)/1e6, points, float64(heapBudget)/(1<<20))
	}
}

// liveHeap returns the heap still reachable after two collections (the
// second frees what the first's finalizers released).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
