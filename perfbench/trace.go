package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the harness made into a layer: the spans of
// one op share Op, and Parent is the span that caused this one (0 for
// an op's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer holds spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op, so the timed loops carry
// no branches of their own.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span ID before the span ends, so children recorded
// while it runs can name it as their parent (0 on the untraced run).
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record stores a finished span under a reserved ID.
func (t *tracer) record(id, op, parent int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// add records a finished span and returns its ID.
func (t *tracer) add(op, parent int64, name string, start, end time.Time) int64 {
	id := t.id()
	t.record(id, op, parent, name, start, end)
	return id
}

// layerTime is one span name's totals: how many spans, their summed
// duration, and their summed self time.
type layerTime struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	Total  float64 `json:"total_ms"`
	SelfMs float64 `json:"self_ms"`
}

// summarize totals every span name. A span's self time is its duration
// minus the part of it that the union of its children's intervals
// covers (children run in parallel on the sweep pool, so their sum can
// exceed the parent).
func summarize(spans []span) []layerTime {
	self := selfTimes(spans)
	by := map[string]*layerTime{}
	for _, s := range spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
		}
		lt.Count++
		lt.Total += float64(s.End-s.Start) / 1e6
		lt.SelfMs += float64(self[s.ID]) / 1e6
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// selfTimes maps each span ID to its self time in nanoseconds.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.End - s.Start - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of children's intervals, clipped
// to the parent's interval.
func covered(parent span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// writeTrace writes the spans as JSON lines to path and the per-layer
// summary beside it (path + ".summary.json"), and prints the summary
// table to w.
func writeTrace(path string, spans []span, w io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	sum := summarize(spans)
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path+".summary.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "trace: %d spans in %s\n", len(spans), path)
	fmt.Fprintf(w, "  %-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, lt := range sum {
		fmt.Fprintf(w, "  %-28s %8d %12.3f %12.3f\n", lt.Name, lt.Count, lt.Total, lt.SelfMs)
	}
	return nil
}
