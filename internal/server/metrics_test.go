package server

// The observability surface: the /metrics JSON schema (typed snapshot,
// stable alphabetical key order, stage quantiles and engine counters
// populated by real traffic), the Prometheus exposition cross-checked
// against the JSON it mirrors, and the request-ID contract (echo,
// edge generation, propagation through the router, access-log lines).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// driveTraffic exercises every backend stage: one whole-trace check
// (parse + check) and one incremental session (feed + finalize). Its
// trace reads a variable after a unary write, so the engine looks up an
// owned W_x and the epoch counters move.
func driveTraffic(t *testing.T, ts *httptest.Server) {
	t.Helper()
	std := []byte("t1|w(x)|1\nt2|begin|0\nt2|r(x)|2\nt2|end|0\n")
	resp, err := http.Post(ts.URL+"/v1/check", "application/octet-stream", bytes.NewReader(std))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check: HTTP %d", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/sessions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Post(ts.URL+"/v1/sessions/"+created.ID+"/events",
		"application/octet-stream", bytes.NewReader(std))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+created.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func getBody(t *testing.T, url string) ([]byte, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	return body, resp
}

func TestMetricsJSONSchema(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	driveTraffic(t, ts)

	body, _ := getBody(t, ts.URL+"/metrics")
	var snap MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics JSON does not decode into MetricsSnapshot: %v", err)
	}
	if snap.EventsTotal < 6 {
		t.Fatalf("events_total = %d, want >= 6", snap.EventsTotal)
	}
	for _, stage := range []string{"parse", "check", "feed", "finalize"} {
		sm, ok := snap.Stages[stage]
		if !ok {
			t.Fatalf("stages[%q] missing", stage)
		}
		if sm.Count < 1 {
			t.Errorf("stages[%q].count = %d, want >= 1", stage, sm.Count)
		}
		if sm.P99Ms < sm.P50Ms {
			t.Errorf("stages[%q]: p99 %.3f < p50 %.3f", stage, sm.P99Ms, sm.P50Ms)
		}
	}
	if got := snap.Engine.EpochHits + snap.Engine.EpochMisses; got < 1 {
		t.Errorf("engine counters never accumulated: hits+misses = %d", got)
	}
	if snap.Engine.EpochHitRate < 0 || snap.Engine.EpochHitRate > 1 {
		t.Errorf("epoch_hit_rate = %v out of [0,1]", snap.Engine.EpochHitRate)
	}
	if snap.Sessions.Opened < 1 || snap.Sessions.Closed < 1 {
		t.Errorf("sessions = %+v, want opened and closed >= 1", snap.Sessions)
	}
	if snap.Checks.Total < 1 {
		t.Errorf("checks.total = %d, want >= 1", snap.Checks.Total)
	}
	// driveTraffic ran one default-set check and one default-set session:
	// both land on the atomicity analysis row; the hbrace row exists at
	// zero (rows are pre-created so dashboards see every analysis).
	if am := snap.Analyses["atomicity"]; am.Checks < 1 || am.Sessions < 1 {
		t.Errorf("analyses[atomicity] = %+v, want checks and sessions >= 1", am)
	}
	if _, ok := snap.Analyses["hbrace"]; !ok {
		t.Error("analyses[hbrace] row missing from snapshot")
	}

	// The schema promise: top-level keys stay in sorted order, exactly as
	// the pre-typed map-based encoder emitted them — consumers diffing
	// scrapes byte-wise must not see keys reshuffle. With the two-space
	// indent, top-level keys are the ones at indent depth one.
	var prev string
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, `  "`) || strings.HasPrefix(line, `   `) {
			continue
		}
		key := line[3 : strings.Index(line[3:], `"`)+3]
		if prev != "" && key < prev {
			t.Errorf("top-level keys out of order: %q after %q", key, prev)
		}
		prev = key
	}

	// The engine section is pinned key for key (keys at indent depth two
	// inside "engine"), in alphabetical order.
	var engineKeys []string
	inEngine := false
	for _, line := range strings.Split(string(body), "\n") {
		switch {
		case line == `  "engine": {`:
			inEngine = true
		case inEngine && strings.HasPrefix(line, `  }`):
			inEngine = false
		case inEngine && strings.HasPrefix(line, `    "`):
			engineKeys = append(engineKeys, line[5:strings.Index(line[5:], `"`)+5])
		}
	}
	wantKeys := []string{"ends_collected", "ends_full", "epoch_hit_rate", "epoch_hits", "epoch_misses",
		"flushes_deferred", "flushes_settled", "joins_skipped", "sparse_promotions"}
	if !slices.Equal(engineKeys, wantKeys) {
		t.Errorf("engine keys %v, want %v", engineKeys, wantKeys)
	}
}

// promValues parses Prometheus text exposition into series → value,
// keeping the full name{labels} as the key.
func promValues(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable prom line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable prom value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

func TestMetricsPromMatchesJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	driveTraffic(t, ts)

	// One request, both formats: counters only ever grow, so scraping
	// prom first and JSON second could legitimately disagree — compare
	// prom against a JSON snapshot taken before any further traffic, and
	// only on counters this test's own requests do not bump (the /metrics
	// GETs themselves stay off the stage histograms).
	jsonBody, _ := getBody(t, ts.URL+"/metrics")
	var snap MetricsSnapshot
	if err := json.Unmarshal(jsonBody, &snap); err != nil {
		t.Fatal(err)
	}
	promBody, resp := getBody(t, ts.URL+"/metrics?format=prom")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prom Content-Type = %q, want text/plain exposition", ct)
	}
	vals := promValues(t, string(promBody))

	for series, want := range map[string]float64{
		"aerodromed_events_total":                                   float64(snap.EventsTotal),
		"aerodromed_sessions_opened_total":                          float64(snap.Sessions.Opened),
		"aerodromed_checks_total":                                   float64(snap.Checks.Total),
		"aerodromed_engine_epoch_hits_total":                        float64(snap.Engine.EpochHits),
		"aerodromed_engine_epoch_misses_total":                      float64(snap.Engine.EpochMisses),
		"aerodromed_engine_flushes_deferred_total":                  float64(snap.Engine.FlushesDeferred),
		"aerodromed_engine_flushes_settled_total":                   float64(snap.Engine.FlushesSettled),
		"aerodromed_engine_joins_skipped_total":                     float64(snap.Engine.JoinsSkipped),
		`aerodromed_stage_duration_seconds_count{stage="check"}`:    float64(snap.Stages["check"].Count),
		`aerodromed_stage_duration_seconds_count{stage="finalize"}`: float64(snap.Stages["finalize"].Count),
	} {
		got, ok := vals[series]
		if !ok {
			t.Errorf("prom series %s missing", series)
			continue
		}
		if got != want {
			t.Errorf("%s = %v in prom, %v in JSON", series, got, want)
		}
	}
	// The engine counters are exposed in the JSON section's alphabetical
	// order.
	var engineSeries []string
	for _, line := range strings.Split(string(promBody), "\n") {
		if strings.HasPrefix(line, "aerodromed_engine_") && !strings.HasPrefix(line, "aerodromed_engine_selections") {
			engineSeries = append(engineSeries, line[:strings.IndexByte(line, ' ')])
		}
	}
	if len(engineSeries) != 8 || !sort.StringsAreSorted(engineSeries) {
		t.Errorf("engine series not the eight counters in alphabetical order: %v", engineSeries)
	}
	// Histogram buckets must be cumulative and end at the count.
	var lastBucket float64 = -1
	for _, line := range strings.Split(string(promBody), "\n") {
		if !strings.HasPrefix(line, `aerodromed_stage_duration_seconds_bucket{stage="check"`) {
			continue
		}
		v := vals[line[:strings.LastIndexByte(line, ' ')]]
		if v < lastBucket {
			t.Fatalf("non-cumulative bucket in %q", line)
		}
		lastBucket = v
	}
	if want := float64(snap.Stages["check"].Count); lastBucket != want {
		t.Errorf("last check bucket = %v, want count %v", lastBucket, want)
	}
}

func TestRequestIDEchoAndGeneration(t *testing.T) {
	var logBuf bytes.Buffer
	_, ts := newTestServer(t, Config{Logger: newLogger(&logBuf, slog.LevelDebug)})

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set(RequestIDHeader, "fixed-id-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "fixed-id-42" {
		t.Fatalf("supplied request ID not echoed: got %q", got)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	generated := resp.Header.Get(RequestIDHeader)
	if generated == "" {
		t.Fatal("no request ID generated at the edge")
	}
	if generated == "fixed-id-42" {
		t.Fatal("generated ID collided with the supplied one")
	}

	// Both requests left access-log lines carrying their IDs.
	logs := logBuf.String()
	for _, id := range []string{"fixed-id-42", generated} {
		if !strings.Contains(logs, "id="+id) {
			t.Errorf("access log missing id=%s:\n%s", id, logs)
		}
	}
}

// TestRouterRequestIDPropagation pins the routed hop: an ID supplied at
// the router edge reaches the backend's handler in the proxied request
// headers, for both the forwarded check path and the router-managed
// session path.
func TestRouterRequestIDPropagation(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var seen []string
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			seen = append(seen, r.Header.Get(RequestIDHeader))
		}
		s.ServeHTTP(w, r)
	}))
	defer backend.Close()

	rt, err := NewRouter(RouterConfig{Backends: []string{backend.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rts := httptest.NewServer(rt)
	defer rts.Close()

	std := []byte("t1|begin|0\nt1|w(x)|1\nt1|end|0\n")
	req, _ := http.NewRequest(http.MethodPost, rts.URL+"/v1/check", bytes.NewReader(std))
	req.Header.Set(RequestIDHeader, "edge-id-check")
	req.Header.Set(RouterTraceHeader, "k1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed check: HTTP %d", resp.StatusCode)
	}
	if got := resp.Header.Get(RequestIDHeader); got != "edge-id-check" {
		t.Fatalf("routed response echoes %q, want edge-id-check", got)
	}

	req, _ = http.NewRequest(http.MethodPost, rts.URL+"/v1/sessions?trace=k2", nil)
	req.Header.Set(RequestIDHeader, "edge-id-session")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("routed create: HTTP %d", resp.StatusCode)
	}

	for _, want := range []string{"edge-id-check", "edge-id-session"} {
		found := false
		for _, id := range seen {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Errorf("backend never saw request ID %q (saw %v)", want, seen)
		}
	}
}

// TestRouterMetricsTyped pins the router's JSON schema to the exported
// snapshot struct and its prom exposition to the same numbers.
func TestRouterMetricsTyped(t *testing.T) {
	c := newTestCluster(t, 2, Config{})
	std := []byte("t1|begin|0\nt1|w(x)|1\nt1|end|0\n")
	for i := 0; i < 4; i++ {
		postCheckKeyed(t, c.routerTS, std, fmt.Sprintf("key-%d", i))
	}

	body, _ := getBody(t, c.routerTS.URL+"/metrics")
	var snap RouterMetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("router metrics do not decode into RouterMetricsSnapshot: %v", err)
	}
	if snap.ChecksRouted != 4 {
		t.Errorf("checks_routed = %d, want 4", snap.ChecksRouted)
	}
	if len(snap.Backends) != 2 {
		t.Fatalf("backends = %v, want 2 entries", snap.Backends)
	}
	var routed int64
	for _, b := range snap.Backends {
		routed += b.RoutedTotal
	}
	if routed != 4 {
		t.Errorf("sum of backend routed_total = %d, want 4", routed)
	}
	if proxy, ok := snap.Stages["proxy"]; !ok || proxy.Count < 4 {
		t.Errorf("stages[proxy] = %+v, want count >= 4", snap.Stages["proxy"])
	}

	promBody, _ := getBody(t, c.routerTS.URL+"/metrics?format=prom")
	vals := promValues(t, string(promBody))
	if got := vals["aerodromed_router_checks_routed_total"]; got != float64(snap.ChecksRouted) {
		t.Errorf("prom checks_routed = %v, JSON %v", got, snap.ChecksRouted)
	}
	if got := vals[`aerodromed_router_stage_duration_seconds_count{stage="proxy"}`]; got < 4 {
		t.Errorf(`prom proxy stage count = %v, want >= 4`, got)
	}
}
