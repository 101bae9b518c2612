package server

// The multi-analysis service surface: /v1/check and sessions declaring an
// analysis set, per-analysis verdicts on the wire, rejection of unknown
// names, default-set byte-compatibility, and the per-analysis metrics
// rows.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"aerodrome"
)

// dualSTD has an atomicity violation with no data race on x (every x
// access is lock-protected; t2's write splits t1's transaction) followed
// by a write-write race on z at index 12 — so the two analyses latch at
// different points and the stream must keep flowing between them.
var dualSTD = []byte(`t1|begin|0
t1|acq(l)|0
t1|r(x)|0
t1|rel(l)|0
t2|acq(l)|0
t2|w(x)|0
t2|rel(l)|0
t1|acq(l)|0
t1|w(x)|0
t1|rel(l)|0
t1|end|0
t2|w(z)|0
t3|w(z)|0
`)

// sameAnalyses requires got and want to agree entry-by-entry on analysis
// name, verdict, violation index/kind, event count and algorithm.
func sameAnalyses(t *testing.T, label string, got, want []aerodrome.AnalysisReport) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d analysis entries, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Analysis != w.Analysis || g.Clean != w.Clean || g.Events != w.Events || g.Algorithm != w.Algorithm {
			t.Fatalf("%s[%d]: %+v, want %+v", label, i, g, w)
		}
		if !w.Clean {
			if g.Violation == nil || g.Violation.EventIndex != w.Violation.EventIndex ||
				g.Violation.Check != w.Violation.Check {
				t.Fatalf("%s[%d]: violation %+v, want %+v", label, i, g.Violation, w.Violation)
			}
		}
	}
}

// postCheckAnalyses posts body to /v1/check?analyses=... and decodes the
// report.
func postCheckAnalyses(t *testing.T, ts *httptest.Server, body []byte, analyses string) *aerodrome.Report {
	t.Helper()
	rep, err := (&Client{BaseURL: ts.URL}).CheckAnalyses(bytes.NewReader(body), "", analyses)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestCheckAnalysesDualVerdicts(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	want, err := aerodrome.CheckSTDAnalyses(bytes.NewReader(dualSTD), aerodrome.Optimized,
		[]aerodrome.AnalysisKind{aerodrome.AnalysisAtomicity, aerodrome.AnalysisHBRace})
	if err != nil {
		t.Fatal(err)
	}
	if want.Serializable {
		t.Fatal("dualSTD must violate atomicity")
	}
	hb := want.Analyses[1]
	if hb.Clean || hb.Violation.EventIndex != 12 || hb.Violation.Check != "write-write" {
		t.Fatalf("dualSTD hbrace verdict = %+v, want write-write race at 12", hb.Violation)
	}

	for _, body := range [][]byte{dualSTD, toBinary(t, dualSTD)} {
		got := postCheckAnalyses(t, ts, body, "atomicity,hbrace")
		sameReport(t, "dual", got, want)
		sameAnalyses(t, "dual", got.Analyses, want.Analyses)
	}

	// The single-analysis report's top-level fields match the dual one's —
	// the second analysis costs nothing semantically — and its JSON carries
	// no analyses key at all (legacy wire format).
	single := postCheck(t, ts, dualSTD, "")
	sameReport(t, "single-vs-dual", single, want)
	resp, err := http.Post(ts.URL+"/v1/check", "application/octet-stream", bytes.NewReader(dualSTD))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(raw), `"analyses"`) {
		t.Fatalf("default-set check response leaks analyses key: %s", raw)
	}
}

func TestCheckUnknownAnalysisRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/check?analyses=bogus", "application/octet-stream",
		bytes.NewReader(dualSTD))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(body), "bogus") || !strings.Contains(string(body), "atomicity, hbrace") {
		t.Fatalf("rejection must name the bad analysis and the valid set: %s", body)
	}
}

func TestSessionCreateUnknownAnalysisRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Query form and body form must both reject with the valid set listed.
	for label, do := range map[string]func() (*http.Response, error){
		"query": func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/sessions?analyses=nope", "application/json", nil)
		},
		"body": func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/sessions", "application/json",
				strings.NewReader(`{"analyses":["nope"]}`))
		},
	} {
		resp, err := do()
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: HTTP %d, want 400", label, resp.StatusCode)
		}
		if !strings.Contains(string(body), "nope") || !strings.Contains(string(body), "atomicity, hbrace") {
			t.Fatalf("%s: rejection must name the bad analysis and the valid set: %s", label, body)
		}
	}
}

func TestSessionDualAnalysis(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	want, err := aerodrome.CheckSTDAnalyses(bytes.NewReader(dualSTD), aerodrome.Optimized,
		[]aerodrome.AnalysisKind{aerodrome.AnalysisAtomicity, aerodrome.AnalysisHBRace})
	if err != nil {
		t.Fatal(err)
	}

	client := &Client{BaseURL: ts.URL}
	sess, err := client.NewSessionAnalyses("", "atomicity,hbrace")
	if err != nil {
		t.Fatal(err)
	}
	// Tiny chunks split lines mid-token and guarantee several feeds land
	// after the atomicity latch but before the race latch — the session
	// must keep consuming them.
	var view *SessionView
	for i := 0; i < len(dualSTD); i += 7 {
		end := i + 7
		if end > len(dualSTD) {
			end = len(dualSTD)
		}
		if view, err = sess.Feed(dualSTD[i:end]); err != nil {
			t.Fatalf("feed at %d: %v", i, err)
		}
	}
	if view.State != stateViolated {
		t.Fatalf("state = %s, want violated", view.State)
	}
	sameAnalyses(t, "final-view", view.Analyses, want.Analyses)

	rep, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	sameReport(t, "session-dual", rep, want)
	sameAnalyses(t, "session-dual", rep.Analyses, want.Analyses)

	// The per-analysis metrics rows saw this session and both violations.
	body, _ := getBody(t, ts.URL+"/metrics")
	var snap MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"atomicity", "hbrace"} {
		am := snap.Analyses[name]
		if am.Sessions < 1 || am.Violations < 1 {
			t.Errorf("analyses[%s] = %+v, want sessions and violations >= 1", name, am)
		}
	}
}

// TestSessionDefaultSetWireUnchanged pins the legacy wire format: a
// default-set session's feed response and view carry no analyses key.
func TestSessionDefaultSetWireUnchanged(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var created SessionView
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Post(ts.URL+"/v1/sessions/"+created.ID+"/events",
		"application/octet-stream", bytes.NewReader(dualSTD))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(raw), `"analyses"`) {
		t.Fatalf("default-set feed response leaks analyses key: %s", raw)
	}
}

// TestRouterSessionAnalysesPassthrough drives a dual-analysis session
// through the shard router: the analysis set must reach the backend and
// the per-analysis verdicts must flow back.
func TestRouterSessionAnalysesPassthrough(t *testing.T) {
	c := newTestCluster(t, 2, Config{})
	want, err := aerodrome.CheckSTDAnalyses(bytes.NewReader(dualSTD), aerodrome.Optimized,
		[]aerodrome.AnalysisKind{aerodrome.AnalysisAtomicity, aerodrome.AnalysisHBRace})
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{BaseURL: c.routerTS.URL, TraceKey: "dual-k1"}
	sess, err := client.NewSessionAnalyses("", "atomicity,hbrace")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Feed(dualSTD); err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	sameReport(t, "routed-dual", rep, want)
	sameAnalyses(t, "routed-dual", rep.Analyses, want.Analyses)

	// One-shot checks route through untouched as well.
	got, err := client.CheckAnalyses(bytes.NewReader(dualSTD), "", "atomicity,hbrace")
	if err != nil {
		t.Fatal(err)
	}
	sameAnalyses(t, "routed-check", got.Analyses, want.Analyses)
}
