package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, as written to the span file.
// Spans of one request, session, CLI run or ledger pass share a TraceID;
// ParentID 0 marks a root.
type span struct {
	TraceID  uint64         `json:"trace_id"`
	SpanID   uint64         `json:"span_id"`
	ParentID uint64         `json:"parent_id"`
	Name     string         `json:"name"`
	StartNS  int64          `json:"start_ns"`
	EndNS    int64          `json:"end_ns"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id allocates a span or trace identifier; 0 when tracing is off.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span under a pre-allocated id (allocate the id
// first when children must name their parent before it ends).
func (t *tracer) add(traceID, spanID, parentID uint64, name string, start, end time.Time, attrs map[string]any) {
	if t == nil {
		return
	}
	s := span{
		TraceID: traceID, SpanID: spanID, ParentID: parentID, Name: name,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
		Attrs: attrs,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// root records a span that starts its own trace.
func (t *tracer) root(name string, start, end time.Time, attrs map[string]any) {
	if t == nil {
		return
	}
	t.add(t.id(), t.id(), 0, name, start, end, attrs)
}

// mark returns a position in the span list; since returns the spans
// recorded after it.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) since(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Name   string        `json:"name"`
	Count  int           `json:"count"`
	Total  time.Duration `json:"total_ns"`
	Self   time.Duration `json:"self_ns"`
	Events int64         `json:"events"`
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children cover.
func selfTimes(spans []span) []layerTime {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.ParentID != 0 {
			children[s.ParentID] = append(children[s.ParentID], s)
		}
	}
	rows := map[string]*layerTime{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerTime{Name: s.Name}
			rows[s.Name] = r
		}
		dur := s.EndNS - s.StartNS
		r.Count++
		r.Total += time.Duration(dur)
		r.Self += time.Duration(dur - covered(s, children[s.SpanID]))
		if ev, ok := s.Attrs["events"]; ok {
			r.Events += toInt64(ev)
		}
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how many nanoseconds of parent's interval the union of
// the children's intervals covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return sum
}

func toInt64(v any) int64 {
	switch x := v.(type) {
	case int:
		return int64(x)
	case int64:
		return x
	case float64:
		return int64(x)
	}
	return 0
}

// printSelfTimes writes the per-layer table of a traced run.
func printSelfTimes(w io.Writer, workload string, rows []layerTime) {
	fmt.Fprintf(w, "# %s spans: layer count total_ms self_ms ns_per_event\n", workload)
	for _, r := range rows {
		nsev := "-"
		if r.Events > 0 {
			nsev = fmt.Sprintf("%.1f", float64(r.Total.Nanoseconds())/float64(r.Events))
		}
		fmt.Fprintf(w, "# %s spans: %s %d %.3f %.3f %s\n", workload, r.Name, r.Count,
			float64(r.Total.Nanoseconds())/1e6, float64(r.Self.Nanoseconds())/1e6, nsev)
	}
}
