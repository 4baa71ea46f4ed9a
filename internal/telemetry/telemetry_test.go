package telemetry

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the Prometheus le contract: an
// upper bound is inclusive, so a sample exactly on a boundary lands in
// that boundary's bucket, and one epsilon above it lands in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_seconds", "test", []float64{0.001, 0.01, 0.1})

	h.Observe(0.001)  // == first bound: first bucket
	h.Observe(0.0011) // just above: second bucket
	h.Observe(0.01)   // == second bound: second bucket
	h.Observe(0.1)    // == last bound: third bucket
	h.Observe(99)     // overflow: +Inf only

	wantCum := []struct {
		le   string
		want int64
	}{{"0.001", 1}, {"0.01", 3}, {"0.1", 4}, {"+Inf", 5}}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, w := range wantCum {
		line := `t_seconds_bucket{le="` + w.le + `"} ` + itoa(w.want)
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
	if !strings.Contains(out, "t_seconds_count 5\n") {
		t.Errorf("missing count:\n%s", out)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	// Sum of exact binary-representable checks is brittle; bound it.
	if s := h.Sum(); s < 99.1 || s > 99.2 {
		t.Errorf("Sum = %v, want ~99.112", s)
	}
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }

// TestExpositionFormat pins the family layout: HELP/TYPE headers,
// sorted family names, sorted series labels, label escaping, and
// integral float rendering.
func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.RegisterCollector(func(e *Exposition) {
		e.Counter("b_total", "b help", 7, Label{"x", "2"})
		e.Counter("b_total", "ignored on second emission", 1, Label{"x", "1"})
		e.Gauge("a_gauge", "a help", 1.5, Label{"q", `va"l\ue` + "\n"})
	})

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_gauge a help
# TYPE a_gauge gauge
a_gauge{q="va\"l\\ue\n"} 1.5
# HELP b_total b help
# TYPE b_total counter
b_total{x="1"} 1
b_total{x="2"} 7
`
	if b.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestHistogramNoLabels pins the bare-histogram bucket rendering (a
// fresh label set must open with {le=...).
func TestHistogramNoLabels(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "h", []float64{1})
	h.Observe(0.5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP h_seconds h\n# TYPE h_seconds histogram\n" +
		"h_seconds_bucket{le=\"1\"} 1\nh_seconds_bucket{le=\"+Inf\"} 1\n" +
		"h_seconds_sum 0.5\nh_seconds_count 1\n"
	if b.String() != want {
		t.Errorf("exposition:\n%q\nwant:\n%q", b.String(), want)
	}
}

// TestConcurrentObserveAndScrape drives observations from many
// goroutines while scraping; run under -race this pins the lock-free
// Observe path, and the final counts must not lose updates.
func TestConcurrentObserveAndScrape(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("c_seconds", "c", nil, Label{"endpoint", "/v1/run"})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i%7) * 1e-5)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if h.Count() != workers*per {
		t.Errorf("count = %d, want %d", h.Count(), workers*per)
	}
}
