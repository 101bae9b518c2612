package obs

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketsMonotone(t *testing.T) {
	prev := -1
	for v := uint64(0); v < 1<<20; v += 17 {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, i, prev)
		}
		prev = i
		if mid := bucketMid(i); bucketIndex(mid) != i {
			t.Fatalf("bucketMid(%d)=%d maps to bucket %d", i, mid, bucketIndex(mid))
		}
		if up := bucketUpper(i); bucketIndex(up) != i {
			t.Fatalf("bucketUpper(%d)=%d maps to bucket %d", i, up, bucketIndex(up))
		}
		if up, mid := bucketUpper(i), bucketMid(i); up < mid {
			t.Fatalf("bucket %d: upper %d < mid %d", i, up, mid)
		}
	}
	// The upper bound really is an upper bound: the next value starts the
	// next bucket.
	for i := 0; i < histSize-1; i++ {
		if bucketIndex(bucketUpper(i)+1) <= i {
			t.Fatalf("bucketUpper(%d)+1 still maps to bucket %d", i, i)
		}
	}
}

func TestHistogramSum(t *testing.T) {
	var h Histogram
	h.Record(2 * time.Millisecond)
	h.Record(3 * time.Millisecond)
	if got, want := h.Sum(), 5*time.Millisecond; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
}

// TestHistQuantiles pins the quantile accuracy the /metrics p50 and p99
// depend on: within ±5% of the exact value at p50, p99 and p999.
func TestHistQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	for _, tc := range []struct {
		q    float64
		want float64 // ms
	}{{0.50, 500}, {0.99, 990}, {0.999, 999}} {
		got := h.Quantile(tc.q)
		if got < tc.want*0.95 || got > tc.want*1.05 {
			t.Fatalf("q%v = %vms, want %vms ±5%%", tc.q, got, tc.want)
		}
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
}

// TestConcurrentHammer drives every instrument kind from N goroutines;
// under -race this pins the lock-free claim, and the totals pin that no
// increment is lost.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_ops_total", "ops")
	h := r.Histogram("hammer_latency_seconds", "latency")
	const goroutines, perG = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Record(time.Duration(g*perG+i) * time.Microsecond)
				if i%100 == 0 {
					// Exposition concurrent with recording must not race.
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

// TestSnapshotMonotonicity pins that repeated expositions of a counter
// and a histogram under concurrent writers never go backwards.
func TestSnapshotMonotonicity(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mono_total", "monotone counter")
	h := r.Histogram("mono_seconds", "monotone histogram")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Inc()
				h.Record(time.Millisecond)
			}
		}
	}()
	var lastC, lastH int64
	for i := 0; i < 200; i++ {
		text := promText(t, r)
		cv := promValue(t, text, "mono_total")
		hv := promValue(t, text, "mono_seconds_count")
		if cv < lastC {
			t.Fatalf("counter went backwards: %d then %d", lastC, cv)
		}
		if hv < lastH {
			t.Fatalf("histogram count went backwards: %d then %d", lastH, hv)
		}
		lastC, lastH = cv, hv
	}
	close(stop)
	wg.Wait()
	// Quantiles are monotone in q.
	prev := 0.0
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile(%v)=%v < Quantile at lower q %v", q, v, prev)
		}
		prev = v
	}
}

// TestPrometheusExposition parses the rendered text back and
// cross-checks every sample against the live instruments.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests served")
	c.Add(42)
	r.CounterFunc("readthrough_total", Labels(map[string]string{"backend": `http://b"0`}), "read-through", func() int64 { return 7 })
	r.GaugeFunc("uptime_seconds", "", "uptime", func() float64 { return 1.5 })
	h := r.Histogram("stage_seconds", "stage latency")
	for _, d := range []time.Duration{time.Millisecond, time.Millisecond, 20 * time.Millisecond, 3 * time.Second} {
		h.Record(d)
	}

	text := promText(t, r)
	samples, types := parseProm(t, text)

	if types["requests_total"] != "counter" || types["readthrough_total"] != "counter" {
		t.Fatalf("counter TYPE lines wrong: %v", types)
	}
	if types["uptime_seconds"] != "gauge" || types["stage_seconds"] != "histogram" {
		t.Fatalf("gauge/histogram TYPE lines wrong: %v", types)
	}
	if got := samples["requests_total"]; got != 42 {
		t.Fatalf("requests_total = %v", got)
	}
	if got := samples[`readthrough_total{backend="http://b\"0"}`]; got != 7 {
		t.Fatalf("labeled read-through = %v (samples %v)", got, samples)
	}
	if got := samples["uptime_seconds"]; got != 1.5 {
		t.Fatalf("uptime_seconds = %v", got)
	}
	if got := samples["stage_seconds_count"]; got != float64(h.Count()) {
		t.Fatalf("_count = %v, live %d", got, h.Count())
	}
	if got, want := samples["stage_seconds_sum"], h.Sum().Seconds(); got < want*0.999 || got > want*1.001 {
		t.Fatalf("_sum = %v, live %v", got, want)
	}
	if got := samples[`stage_seconds_bucket{le="+Inf"}`]; got != float64(h.Count()) {
		t.Fatalf("+Inf bucket = %v, live %d", got, h.Count())
	}

	// Bucket cumulative counts are non-decreasing in le and end at count.
	type bkt struct{ le, cum float64 }
	var buckets []bkt
	for line, v := range samples {
		if !strings.HasPrefix(line, "stage_seconds_bucket{le=") || strings.Contains(line, "+Inf") {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(line, `stage_seconds_bucket{le="`), `"}`), 64)
		if err != nil {
			t.Fatalf("bad le in %q: %v", line, err)
		}
		buckets = append(buckets, bkt{le, v})
	}
	if len(buckets) == 0 {
		t.Fatal("no non-Inf buckets emitted for a non-empty histogram")
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	for i := 1; i < len(buckets); i++ {
		if buckets[i].cum < buckets[i-1].cum {
			t.Fatalf("cumulative bucket counts decrease: %v", buckets)
		}
	}
	if last := buckets[len(buckets)-1].cum; last != float64(h.Count()) {
		t.Fatalf("last bucket cum %v ≠ count %d", last, h.Count())
	}
}

func promText(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// parseProm is a minimal exposition-format parser: it validates the
// line grammar (HELP/TYPE comments, `name{labels} value` samples) and
// returns samples keyed by their full series string plus TYPE by name.
func parseProm(t *testing.T, text string) (map[string]float64, map[string]string) {
	t.Helper()
	samples := map[string]float64{}
	types := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment %q", line)
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples, types
}

func promValue(t *testing.T, text, series string) int64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, series+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, series+" "), 64)
			if err != nil {
				t.Fatalf("bad value in %q: %v", line, err)
			}
			return int64(v)
		}
	}
	t.Fatalf("series %q not found in:\n%s", series, text)
	return 0
}
