package server

// End-to-end correctness: every trace in the golden corpus and the
// paper's ρ1–ρ4, replayed through POST /v1/check (STD and binary bodies)
// and through the incremental session API, must produce byte-identical
// verdict, violation index and event count to sequential CheckSTD on the
// same bytes. The server is an ingestion front end, not a semantic
// variant.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aerodrome"
	"aerodrome/internal/rapidio"
	"aerodrome/internal/testutil"
	"aerodrome/internal/trace"
)

const goldenDir = "../../testdata/golden"

// goldenSTD returns name → STD bytes for the whole checked-in corpus.
func goldenSTD(t *testing.T) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(goldenDir, "*.std"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("golden corpus missing under %s (%v)", goldenDir, err)
	}
	out := map[string][]byte{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[strings.TrimSuffix(filepath.Base(p), ".std")] = data
	}
	return out
}

// paperSTD returns the paper's worked traces as STD bytes.
func paperSTD(t *testing.T) map[string][]byte {
	t.Helper()
	render := func(tr *trace.Trace) []byte {
		var buf bytes.Buffer
		if err := rapidio.WriteTrace(&buf, tr); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	return map[string][]byte{
		"rho1": render(testutil.Rho1()),
		"rho2": render(testutil.Rho2()),
		"rho3": render(testutil.Rho3()),
		"rho4": render(testutil.Rho4()),
	}
}

// toBinary re-encodes an STD log in the compact binary format.
func toBinary(t *testing.T, std []byte) []byte {
	t.Helper()
	rd := rapidio.NewReader(bytes.NewReader(std))
	var buf bytes.Buffer
	bw := rapidio.NewBinaryWriter(&buf)
	for {
		ev, ok := rd.Next()
		if !ok {
			break
		}
		if err := bw.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := rd.Err(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func wantReport(t *testing.T, std []byte, algo aerodrome.Algorithm) *aerodrome.Report {
	t.Helper()
	rep, err := aerodrome.CheckSTD(bytes.NewReader(std), aerodrome.Options{Algorithm: algo})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func sameReport(t *testing.T, label string, got, want *aerodrome.Report) {
	t.Helper()
	if got.Serializable != want.Serializable || got.Events != want.Events || got.Algorithm != want.Algorithm {
		t.Fatalf("%s: report %+v, want %+v", label, got, want)
	}
	if !want.Serializable {
		g, w := got.Violation, want.Violation
		if g == nil || g.EventIndex != w.EventIndex || g.Check != w.Check || g.Thread != w.Thread {
			t.Fatalf("%s: violation %+v, want %+v", label, g, w)
		}
	}
}

// postCheck streams body to /v1/check and decodes the report.
func postCheck(t *testing.T, ts *httptest.Server, body []byte, algo string) *aerodrome.Report {
	t.Helper()
	url := ts.URL + "/v1/check"
	if algo != "" {
		url += "?algo=" + algo
	}
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/check: HTTP %d", resp.StatusCode)
	}
	var rep aerodrome.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return &rep
}

func TestServeCheckGoldenAndPaperTraces(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	traces := goldenSTD(t)
	for name, data := range paperSTD(t) {
		traces[name] = data
	}
	for name, std := range traces {
		want := wantReport(t, std, aerodrome.Optimized) // the server default
		sameReport(t, name+"/std", postCheck(t, ts, std, ""), want)
		sameReport(t, name+"/bin", postCheck(t, ts, toBinary(t, std), ""), want)
		for _, algo := range []aerodrome.Algorithm{aerodrome.Basic, aerodrome.Optimized} {
			w := wantReport(t, std, algo)
			sameReport(t, name+"/"+string(algo), postCheck(t, ts, std, string(algo)), w)
		}
	}
}

// feedSession drives one incremental session over std in fixed-size
// chunks (splitting lines arbitrarily) and returns the final report from
// DELETE.
func feedSession(t *testing.T, ts *httptest.Server, std []byte, algo string, chunk int) *aerodrome.Report {
	t.Helper()
	client := &Client{BaseURL: ts.URL}
	sess, err := client.NewSession(aerodrome.Options{Algorithm: aerodrome.Algorithm(algo)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(std); i += chunk {
		end := i + chunk
		if end > len(std) {
			end = len(std)
		}
		if _, err := sess.Feed(std[i:end]); err != nil {
			t.Fatalf("feed: %v", err)
		}
	}
	rep, err := sess.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	return rep
}

func TestSessionIncrementalGoldenAndPaperTraces(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	traces := goldenSTD(t)
	for name, data := range paperSTD(t) {
		traces[name] = data
	}
	for name, std := range traces {
		want := wantReport(t, std, aerodrome.Optimized)
		// 997 splits lines mid-token; the tiny chunk hits every boundary
		// on the small paper traces.
		chunk := 997
		if len(std) < 256 {
			chunk = 3
		}
		sameReport(t, name+"/session", feedSession(t, ts, std, "", chunk), want)
	}
}

// TestSessionLifecycle walks one session through the whole protocol:
// create, feed, snapshot, violation latch, post-violation discard,
// delete.
func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	std := paperSTD(t)["rho2"]
	want := wantReport(t, std, aerodrome.Optimized)

	client := &Client{BaseURL: ts.URL}
	sess, err := client.NewSession(aerodrome.Options{Algorithm: aerodrome.Optimized})
	if err != nil {
		t.Fatal(err)
	}

	// Feed everything up to (not including) the violating event's line.
	lines := bytes.SplitAfter(std, []byte("\n"))
	head := bytes.Join(lines[:int(want.Violation.EventIndex)], nil)
	view, err := sess.Feed(head)
	if err != nil {
		t.Fatal(err)
	}
	if view.State != stateActive || view.Violation != nil {
		t.Fatalf("pre-violation view: %+v", view)
	}
	if view.Events != want.Violation.EventIndex {
		t.Fatalf("events = %d, want %d", view.Events, want.Violation.EventIndex)
	}

	// GET agrees with the feed response.
	resp, err := http.Get(ts.URL + "/v1/sessions/" + sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got SessionView
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.State != stateActive || got.Events != view.Events {
		t.Fatalf("GET view %+v, want %+v", got, view)
	}

	// The rest of the trace latches the violation; later feeds are
	// accepted and discarded.
	view, err = sess.Feed(bytes.Join(lines[int(want.Violation.EventIndex):], nil))
	if err != nil {
		t.Fatal(err)
	}
	if view.State != stateViolated || view.Violation == nil ||
		view.Violation.EventIndex != want.Violation.EventIndex {
		t.Fatalf("post-violation view: %+v", view)
	}
	view, err = sess.Feed([]byte("not|even|an|std|line\n"))
	if err != nil || view.State != stateViolated {
		t.Fatalf("discarded feed: %+v, %v", view, err)
	}

	rep, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	sameReport(t, "lifecycle", rep, want)

	// The session is gone.
	resp, err = http.Get(ts.URL + "/v1/sessions/" + sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("after close: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestSessionTrailingLineFlush pins DELETE's flush of a final line with no
// trailing newline.
func TestSessionTrailingLineFlush(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	client := &Client{BaseURL: ts.URL}
	sess, err := client.NewSession(aerodrome.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Feed([]byte("t0|begin|0\nt0|w(x)|1\nt0|end|0")); err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Serializable || rep.Events != 3 {
		t.Fatalf("report %+v, want serializable with 3 events", rep)
	}
}

func TestSessionParseErrorFailsSession(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	client := &Client{BaseURL: ts.URL}
	sess, err := client.NewSession(aerodrome.Options{})
	if err != nil {
		t.Fatal(err)
	}
	view, err := sess.Feed([]byte("t0|begin|0\nt0|zap|0\n"))
	if err == nil || view == nil || view.State != stateFailed {
		t.Fatalf("malformed feed: view %+v, err %v; want failed state", view, err)
	}
	// Subsequent feeds answer 409.
	resp, err := http.Post(ts.URL+"/v1/sessions/"+sess.ID+"/events", "text/plain",
		strings.NewReader("t0|end|0\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("feed after failure: HTTP %d, want 409", resp.StatusCode)
	}
}

// TestCheckRejectsUnknownAlgoAndBadBody: an unknown algorithm or analysis
// is a 400 with the library's error text, decided before admission — the
// request takes no check count and no byte budget, with a declared length
// or chunked — and a malformed trace is a 400 too.
func TestCheckRejectsUnknownAlgoAndBadBody(t *testing.T) {
	s, ts := newTestServer(t, Config{TenantQuota: TenantQuota{BytesPerSec: 1 << 20}})
	body := strings.Repeat("t0|begin|0\nt0|w(x)|0\nt0|end|0\n", 1000) // 30,000 bytes
	resp := tenantPost(t, ts, "/v1/check", "acme", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid check: HTTP %d, want 200", resp.StatusCode)
	}
	counters := func() [3]int64 {
		ten := s.snapshotTenants()["acme"]
		return [3]int64{s.metrics.checksTotal.Load(), ten["checks_total"], ten["bytes_total"]}
	}
	before := counters()
	for _, tc := range []struct{ query, want string }{
		{"algo=bogus", `aerodrome: unknown algorithm "bogus"`},
		{"analyses=bogus", `aerodrome: unknown analysis "bogus" (valid: atomicity, hbrace)`},
	} {
		for _, chunked := range []bool{false, true} {
			var rd io.Reader = strings.NewReader(body)
			if chunked {
				rd = struct{ io.Reader }{rd} // hides the length: no Content-Length
			}
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/check?"+tc.query, rd)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set(DefaultTenantHeader, "acme")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var e struct{ Error string }
			json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || e.Error != tc.want {
				t.Fatalf("%s chunked=%v: HTTP %d %q, want 400 %q", tc.query, chunked, resp.StatusCode, e.Error, tc.want)
			}
			if got := counters(); got != before {
				t.Fatalf("%s chunked=%v: checks total, tenant checks, tenant bytes moved %v -> %v",
					tc.query, chunked, before, got)
			}
		}
	}
	resp, err := http.Post(ts.URL+"/v1/check", "text/plain", strings.NewReader("what even is this"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed trace: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestAlgoAliasesAndDefault: a request that names no algorithm runs the
// Algorithm 3 engine, and so does every alias of it, on /v1/check and on
// session create; /metrics counts every one of them under that engine's
// name. An unknown name is still a 400 on both endpoints.
func TestAlgoAliasesAndDefault(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	std := []byte("t1|begin|0\nt2|begin|0\nt1|w(x)|0\nt2|r(x)|0\nt2|w(y)|0\nt1|r(y)|0\nt1|end|0\nt2|end|0\n")
	want := wantReport(t, std, aerodrome.Optimized)
	if want.Algorithm != "aerodrome-optimized" || want.Serializable {
		t.Fatalf("reference report %+v", want)
	}
	names := []string{"", "optimized", "auto", "hybrid", "treeclock"}
	for _, algo := range names {
		sameReport(t, "check algo="+algo, postCheck(t, ts, std, algo), want)
		sameReport(t, "session algo="+algo, feedSession(t, ts, std, algo, 16), want)
	}
	for _, path := range []string{"/v1/check?algo=quantum", "/v1/sessions?algo=quantum"} {
		resp, err := http.Post(ts.URL+path, "text/plain", bytes.NewReader(std))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s: HTTP %d, want 400", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		EngineSelections map[string]int64 `json:"engine_selections"`
	}
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.EngineSelections; len(got) != 1 || got["aerodrome-optimized"] != int64(2*len(names)) {
		t.Fatalf("engine_selections = %v, want only aerodrome-optimized: %d", got, 2*len(names))
	}
}

// TestBinarySignTargetIs400: an ADB1 record whose target has the sign bit
// set is a malformed body on /v1/check and on a session feed, not a panic
// that drops the connection, and the server keeps serving afterwards.
func TestBinarySignTargetIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bad := []byte("ADB1\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00" +
		"\x00\x00\x02\x00\x01\x00\x00\x80")
	resp, err := http.Post(ts.URL+"/v1/check", "application/octet-stream", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/v1/check: HTTP %d, want 400", resp.StatusCode)
	}
	client := &Client{BaseURL: ts.URL}
	sess, err := client.NewSession(aerodrome.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/sessions/"+sess.ID+"/events", "application/octet-stream", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("session feed: HTTP %d, want 400", resp.StatusCode)
	}
	std := []byte("t0|begin|0\nt0|w(x)|0\nt0|end|0\n")
	sameReport(t, "check after", postCheck(t, ts, std, ""), wantReport(t, std, aerodrome.Optimized))
	sameReport(t, "session after", feedSession(t, ts, std, "", 7), wantReport(t, std, aerodrome.Optimized))
}

func TestBodyTooLargeIs413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	big := strings.Repeat("t0|begin|0\nt0|end|0\n", 64)
	resp, err := http.Post(ts.URL+"/v1/check", "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized check: HTTP %d, want 413", resp.StatusCode)
	}
	// Chunked transfer (no declared length): the limit trips mid-stream
	// and must still surface as 413, not as a parse error on the
	// truncated tail.
	resp, err = http.Post(ts.URL+"/v1/check", "text/plain", struct{ io.Reader }{strings.NewReader(big)})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized chunked check: HTTP %d, want 413", resp.StatusCode)
	}
	client := &Client{BaseURL: ts.URL}
	sess, err := client.NewSession(aerodrome.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/sessions/"+sess.ID+"/events", "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized chunk: HTTP %d, want 413", resp.StatusCode)
	}
}

// TestOversizedChunkRefusedWhole pins the feed's share of the one body
// intake: a chunk whose declared length exceeds MaxBodyBytes is answered
// 413 before any of it is read, as /v1/check answers such a body, so the
// session's events do not move and the trace goes on as if the chunk had
// never been sent.
func TestOversizedChunkRefusedWhole(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	sess, err := (&Client{BaseURL: ts.URL}).NewSession(aerodrome.Options{})
	if err != nil {
		t.Fatal(err)
	}
	first, last := "t1|begin|0\nt1|w(x)|1\nt1|end|0\n", "t2|begin|0\nt2|r(x)|2\nt2|end|0\n"
	v, err := sess.Feed([]byte(first))
	if err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("t0|begin|0\nt0|end|0\n", 64) // 1,280 bytes
	resp, err := http.Post(ts.URL+"/v1/sessions/"+sess.ID+"/events", "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized chunk: HTTP %d, want 413", resp.StatusCode)
	}
	body, _ := getBody(t, ts.URL+"/v1/sessions/"+sess.ID)
	var after SessionView
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	if after.Events != v.Events {
		t.Fatalf("events %d after the refused chunk, want %d", after.Events, v.Events)
	}
	if _, err := sess.Feed([]byte(last)); err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	sameReport(t, "after-oversized-chunk", rep, wantReport(t, []byte(first+last), aerodrome.Optimized))
}

// TestCheckReadErrorKeepsItsStatus pins the decoder's read-error rule at
// /v1/check: a chunked body that fails mid-line or mid-record is answered
// for the failed read (429 for the tenant byte budget, 408 for a stall),
// not with a 400 for the truncated tail the failure left behind.
func TestCheckReadErrorKeepsItsStatus(t *testing.T) {
	var bin bytes.Buffer
	bw := rapidio.NewBinaryWriter(&bin)
	for i := 0; i < 2000; i++ {
		bw.Write(trace.Event{Kind: trace.Begin})
		bw.Write(trace.Event{Kind: trace.End})
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		body []byte
		// stall leaves the body open after the last byte instead of
		// ending it.
		stall bool
		want  int
	}{
		{"std over budget", Config{TenantQuota: TenantQuota{BytesPerSec: 8192}},
			bytes.Repeat([]byte("t0|begin|0\nt0|end|0\n"), 2000), false, http.StatusTooManyRequests},
		{"adb1 over budget", Config{TenantQuota: TenantQuota{BytesPerSec: 8192}},
			bin.Bytes(), false, http.StatusTooManyRequests},
		{"std stalled mid-line", Config{BodyReadTimeout: 200 * time.Millisecond},
			[]byte("t0|begin|0\nt0|end|0\nt0|be"), true, http.StatusRequestTimeout},
	} {
		_, ts := newTestServer(t, tc.cfg)
		pr, pw := io.Pipe()
		go func(body []byte, stall bool) {
			// Paced like a slow uplink, so the server reads about a KiB at
			// a time and the budget trips between two reads inside a line
			// or record; any other pacing must give the same status.
			for len(body) > 0 {
				n := min(len(body), 1024)
				if _, err := pw.Write(body[:n]); err != nil {
					return
				}
				body = body[n:]
				time.Sleep(time.Millisecond)
			}
			if !stall {
				pw.Close()
			}
		}(tc.body, tc.stall)
		resp, err := http.Post(ts.URL+"/v1/check", "application/octet-stream", pr)
		pw.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: HTTP %d %s, want %d", tc.name, resp.StatusCode, msg, tc.want)
		}
		if tc.want == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s: 429 without Retry-After", tc.name)
		}
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}

	std := paperSTD(t)["rho2"]
	postCheck(t, ts, std, "")
	feedSession(t, ts, std, "", 16)

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Sessions struct {
			Active, Opened, Closed int64
		} `json:"sessions"`
		Checks struct {
			Total int64
		} `json:"checks"`
		EventsTotal      int64            `json:"events_total"`
		ViolationsTotal  int64            `json:"violations_total"`
		EngineSelections map[string]int64 `json:"engine_selections"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Checks.Total != 1 || m.Sessions.Opened != 1 || m.Sessions.Closed != 1 || m.Sessions.Active != 0 {
		t.Fatalf("metrics counters off: %+v", m)
	}
	if m.ViolationsTotal != 2 { // one violating check + one violating session
		t.Fatalf("violations_total = %d, want 2", m.ViolationsTotal)
	}
	if m.EventsTotal == 0 || len(m.EngineSelections) == 0 {
		t.Fatalf("metrics missing events/engines: %+v", m)
	}

	// Draining flips healthz to 503.
	s.SetDraining(true)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: HTTP %d, want 503", resp.StatusCode)
	}
}

func TestSessionTTLEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{SessionTTL: 40 * time.Millisecond})
	client := &Client{BaseURL: ts.URL}
	sess, err := client.NewSession(aerodrome.Options{})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/sessions/" + sess.ID)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session not evicted within 5s of a 40ms TTL")
		}
		// Note: the GET above does not refresh lastActive (only feeds do),
		// so the janitor will get there.
		time.Sleep(20 * time.Millisecond)
	}
	if got := s.metrics.sessionsEvicted.Load(); got != 1 {
		t.Fatalf("sessions_evicted = %d, want 1", got)
	}
}
