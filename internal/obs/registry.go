// Package obs is the process-local observability plane: a lock-free
// metrics registry (counters, gauges, log-linear latency histograms)
// with Prometheus text exposition.
//
// The design splits the hot path from the read path. Instruments are
// plain atomics — recording a counter increment or a histogram
// observation takes a handful of atomic adds, no locks, no allocation —
// while the registry itself is only locked at registration time and
// during exposition. Read-through registrations (CounterFunc/GaugeFunc)
// let subsystems that already keep their own atomic counters expose
// them without double bookkeeping: the existing counter stays the
// source of truth and the registry samples it at scrape time, so the
// JSON /metrics view and the Prometheus view can never disagree about
// a value — they read the same word.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing registry-owned counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n must be non-negative to keep the
// counter monotone; callers own that invariant).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// entry is one registered time series: a metric name, optional
// pre-rendered label pairs, and a way to read its current value.
type entry struct {
	name    string
	labels  string // rendered `key="value",...` without braces, or ""
	help    string
	kind    metricKind
	intFn   func() int64
	floatFn func() float64
	hist    *Histogram
}

// Registry holds registered instruments and renders them in Prometheus
// text exposition format. The zero value is ready to use. Registration
// order is exposition order (series sharing a name are grouped under
// one HELP/TYPE header at the first occurrence).
type Registry struct {
	mu   sync.Mutex
	ents []*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(e *entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ents = append(r.ents, e)
}

// Counter registers and returns a new owned counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.CounterFunc(name, "", help, c.Value)
	return c
}

// CounterFunc registers a read-through counter sampled at exposition
// time. labels is a pre-rendered Prometheus label body (`k="v",...`) or
// empty; fn must be safe for concurrent use and monotone.
func (r *Registry) CounterFunc(name, labels, help string, fn func() int64) {
	r.add(&entry{name: name, labels: labels, help: help, kind: kindCounter, intFn: fn})
}

// GaugeFunc registers a read-through gauge sampled at exposition time.
func (r *Registry) GaugeFunc(name, labels, help string, fn func() float64) {
	r.add(&entry{name: name, labels: labels, help: help, kind: kindGauge, floatFn: fn})
}

// Histogram registers and returns a new owned histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	h := &Histogram{}
	r.RegisterHistogram(name, "", help, h)
	return h
}

// RegisterHistogram registers an existing histogram under labels (for
// instruments another subsystem owns, like the server's stage clocks).
func (r *Registry) RegisterHistogram(name, labels, help string, h *Histogram) {
	r.add(&entry{name: name, labels: labels, help: help, kind: kindHistogram, hist: h})
}

// Labels renders label pairs into the pre-joined form the registration
// functions take, with deterministic (sorted) key order and value
// escaping per the exposition format.
func Labels(kv map[string]string) string {
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+`="`+escapeLabel(kv[k])+`"`)
	}
	return strings.Join(parts, ",")
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered series in the Prometheus
// text exposition format (version 0.0.4): HELP/TYPE headers once per
// metric name, counters/gauges as single samples, histograms as
// cumulative non-empty `le` buckets plus `+Inf`, `_sum` (seconds) and
// `_count`.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ents := make([]*entry, len(r.ents))
	copy(ents, r.ents)
	r.mu.Unlock()

	var b strings.Builder
	seen := make(map[string]bool, len(ents))
	for _, e := range ents {
		if !seen[e.name] {
			seen[e.name] = true
			typ := "counter"
			switch e.kind {
			case kindGauge:
				typ = "gauge"
			case kindHistogram:
				typ = "histogram"
			}
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", e.name, e.help, e.name, typ)
		}
		switch e.kind {
		case kindCounter:
			writeSample(&b, e.name, e.labels, strconv.FormatInt(e.intFn(), 10))
		case kindGauge:
			writeSample(&b, e.name, e.labels, formatFloat(e.floatFn()))
		case kindHistogram:
			writeHistogram(&b, e)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSample(b *strings.Builder, name, labels, value string) {
	b.WriteString(name)
	if labels != "" {
		b.WriteString("{")
		b.WriteString(labels)
		b.WriteString("}")
	}
	b.WriteString(" ")
	b.WriteString(value)
	b.WriteString("\n")
}

// writeHistogram renders one histogram: cumulative counts at each
// non-empty bucket's inclusive upper bound (in seconds, the Prometheus
// base unit), a `+Inf` bucket, and the `_sum`/`_count` pair. The bucket
// counts and `_count` come from one sweep over the bucket array, so the
// exposition is self-consistent even while recorders run concurrently
// (`_sum` may lag by the in-flight observations; scrapers tolerate
// that, verdicts never depend on it).
func writeHistogram(b *strings.Builder, e *entry) {
	h := e.hist
	var cum int64
	for i := 0; i < histSize; i++ {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		cum += n
		le := formatFloat(float64(bucketUpper(i)) / 1e6)
		labels := `le="` + le + `"`
		if e.labels != "" {
			labels = e.labels + "," + labels
		}
		writeSample(b, e.name+"_bucket", labels, strconv.FormatInt(cum, 10))
	}
	infLabels := `le="+Inf"`
	if e.labels != "" {
		infLabels = e.labels + "," + infLabels
	}
	writeSample(b, e.name+"_bucket", infLabels, strconv.FormatInt(cum, 10))
	writeSample(b, e.name+"_sum", e.labels, formatFloat(float64(h.sum.Load())/1e6))
	writeSample(b, e.name+"_count", e.labels, strconv.FormatInt(cum, 10))
}
