// Package telemetry is a zero-dependency metrics registry rendered in
// the Prometheus text exposition format (version 0.0.4) — the fleet-
// facing face of every counter the daemon already keeps. It exists
// because /v1/stats is a bespoke JSON document: fine for a human with
// curl, useless to a scrape-based monitoring fleet that wants latency
// distributions and uniform series names.
//
// Two instrument kinds cover the daemon's needs:
//
//   - Histogram: fixed-bucket latency distribution with the Prometheus
//     cumulative-bucket contract (le is an inclusive upper bound).
//     Observation is lock-free — one atomic add per bucket walk plus a
//     CAS loop for the float sum — so the warm serve path can record
//     stage samples without giving back its zero-allocation budget.
//   - Collectors: scrape-time callbacks that fold in counters owned by
//     other subsystems (cache tiers, the store, the job manager)
//     without duplicating their state. A collector emits gauge and
//     counter samples into the exposition being built; the sources
//     stay the single source of truth and /v1/stats keeps working
//     unchanged.
//
// Exposition is deterministic: families sort by name, series sort by
// their rendered label string, floats render in Go's shortest 'g'
// form. Determinism is what lets a golden-file test pin the scrape
// shape for a fixed request sequence.
package telemetry

import (
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair on a series. Label order is
// significant and preserved as given (conventionally most-significant
// first, e.g. endpoint before stage).
type Label struct {
	Name  string
	Value string
}

// DefBuckets is the default histogram bucket ladder: upper bounds in
// seconds spanning the warm serve path (sub-microsecond) through a
// multi-minute sweep. +Inf is implicit.
var DefBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.25, 1, 2.5, 10, 60}

// Histogram is a fixed-bucket distribution. Observe is safe for
// concurrent use and allocation-free.
type Histogram struct {
	// bounds are the inclusive upper bounds; counts has len(bounds)+1
	// slots, the last being the +Inf overflow bucket. Counts are
	// per-bucket (not cumulative); exposition accumulates.
	bounds []float64
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-added
	count  atomic.Int64
}

// Observe records one sample value (seconds for latency histograms).
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// series is one registered histogram plus its rendered label string.
type series struct {
	labels string // pre-rendered {a="b",c="d"} or ""
	hist   *Histogram
}

// family groups the histogram series of one metric name under a
// shared HELP.
type family struct {
	help   string
	series []*series
}

// Registry holds registered histograms and scrape-time collectors.
// The zero value is not usable; create with NewRegistry.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	collectors []func(e *Exposition)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// renderLabels builds the {a="b",...} fragment with Prometheus label
// value escaping (backslash, quote, newline).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Histogram registers a histogram series with the given upper bounds
// (nil means DefBuckets; +Inf is implicit) and returns the instrument.
// A family's help is fixed by its first registration.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{help: help}
		r.families[name] = f
	}
	f.series = append(f.series, &series{labels: renderLabels(labels), hist: h})
	return h
}

// RegisterCollector adds a scrape-time callback: on every exposition
// it is invoked with the Exposition under construction and emits
// gauge/counter samples read from state it does not own (cache tiers,
// store stats, job gauges). Collectors run in registration order under
// the registry lock; they must not call back into the registry.
func (r *Registry) RegisterCollector(fn func(e *Exposition)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// sample is one collector-emitted line: rendered labels plus a value.
type sample struct {
	labels string
	value  string
}

// expFamily is one family being rendered: registered histograms or
// collector samples.
type expFamily struct {
	help, typ string
	samples   []sample  // counter/gauge values
	hists     []*series // histogram series render specially
}

// Exposition accumulates one scrape. Collectors write into it via
// Counter/Gauge; WriteTo renders the final text.
type Exposition struct {
	families map[string]*expFamily
	order    []string
}

func (e *Exposition) family(name, help, typ string) *expFamily {
	f, ok := e.families[name]
	if !ok {
		f = &expFamily{help: help, typ: typ}
		e.families[name] = f
		e.order = append(e.order, name)
	}
	return f
}

// Gauge emits one gauge sample.
func (e *Exposition) Gauge(name, help string, v float64, labels ...Label) {
	f := e.family(name, help, "gauge")
	f.samples = append(f.samples, sample{renderLabels(labels), formatFloat(v)})
}

// Counter emits one counter sample.
func (e *Exposition) Counter(name, help string, v float64, labels ...Label) {
	f := e.family(name, help, "counter")
	f.samples = append(f.samples, sample{renderLabels(labels), formatFloat(v)})
}

// formatFloat renders a value in the shortest form that round-trips;
// integral values render without an exponent or decimal point.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the full exposition: registered histograms
// plus every collector's samples, families sorted by name, series
// sorted by label string. The output satisfies the Prometheus text
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	exp := &Exposition{families: map[string]*expFamily{}}
	for name, f := range r.families {
		ef := exp.family(name, f.help, "histogram")
		ef.hists = append(ef.hists, f.series...)
	}
	for _, fn := range r.collectors {
		fn(exp)
	}
	r.mu.Unlock()

	sort.Strings(exp.order)
	var b strings.Builder
	for _, name := range exp.order {
		f := exp.families[name]
		b.WriteString("# HELP ")
		b.WriteString(name)
		b.WriteByte(' ')
		b.WriteString(f.help)
		b.WriteString("\n# TYPE ")
		b.WriteString(name)
		b.WriteByte(' ')
		b.WriteString(f.typ)
		b.WriteByte('\n')
		sort.Slice(f.samples, func(i, j int) bool { return f.samples[i].labels < f.samples[j].labels })
		for _, s := range f.samples {
			b.WriteString(name)
			b.WriteString(s.labels)
			b.WriteByte(' ')
			b.WriteString(s.value)
			b.WriteByte('\n')
		}
		sort.Slice(f.hists, func(i, j int) bool { return f.hists[i].labels < f.hists[j].labels })
		for _, s := range f.hists {
			writeHistogram(&b, name, s)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series: cumulative _bucket
// lines (le inclusive, +Inf last), then _sum and _count.
func writeHistogram(b *strings.Builder, name string, s *series) {
	h := s.hist
	// Join the series labels with the le label: strip the closing
	// brace and append, or open a fresh set.
	prefix := name + "_bucket"
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		writeBucket(b, prefix, s.labels, formatFloat(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	writeBucket(b, prefix, s.labels, "+Inf", cum)
	b.WriteString(name)
	b.WriteString("_sum")
	b.WriteString(s.labels)
	b.WriteByte(' ')
	b.WriteString(formatFloat(h.Sum()))
	b.WriteByte('\n')
	b.WriteString(name)
	b.WriteString("_count")
	b.WriteString(s.labels)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(h.Count(), 10))
	b.WriteByte('\n')
}

func writeBucket(b *strings.Builder, prefix, labels, le string, cum int64) {
	b.WriteString(prefix)
	if labels == "" {
		b.WriteString(`{le="`)
	} else {
		b.WriteString(labels[:len(labels)-1])
		b.WriteString(`,le="`)
	}
	b.WriteString(le)
	b.WriteString(`"} `)
	b.WriteString(strconv.FormatInt(cum, 10))
	b.WriteByte('\n')
}
