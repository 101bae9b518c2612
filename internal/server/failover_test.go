package server

// Fault-tolerance tests: the journal's bounds, the backend's chunk-seq
// idempotency cache, the router's replay-horizon 409, and the retrying
// client. The failover happy path (backend dies mid-session, verdict
// byte-identical after replay) is pinned in TestRouterBackendDiesMidSession.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aerodrome"
	"aerodrome/internal/faultinject"
)

func TestJournalBounds(t *testing.T) {
	chunk := bytes.Repeat([]byte("x"), 60)

	t.Run("memory overflow without spill truncates", func(t *testing.T) {
		j := newJournal(100, 1000, "", nil)
		j.append(chunk)
		if j.isTruncated() || j.size() != 60 {
			t.Fatalf("after first append: truncated=%v size=%d", j.isTruncated(), j.size())
		}
		j.append(chunk) // 120 > memLimit 100, no spill dir
		if !j.isTruncated() {
			t.Fatal("second append should have truncated (no spill dir)")
		}
		if j.size() != 0 || j.capLeft() != 0 {
			t.Fatalf("truncated journal: size=%d capLeft=%d, want 0/0", j.size(), j.capLeft())
		}
	})

	t.Run("spill keeps replay intact", func(t *testing.T) {
		j := newJournal(100, 1000, t.TempDir(), nil)
		j.append(chunk)
		j.append(chunk) // spills
		j.append(chunk) // spills
		if j.isTruncated() {
			t.Fatal("spill-backed journal truncated")
		}
		if j.size() != 180 {
			t.Fatalf("size = %d, want 180", j.size())
		}
		r, n := j.replayReader()
		if n != 180 {
			t.Fatalf("replay length = %d, want 180", n)
		}
		data, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, bytes.Repeat([]byte("x"), 180)) {
			t.Fatalf("replay bytes differ: %d bytes", len(data))
		}
		j.free()
	})

	t.Run("spill preserves feed order for varying chunks", func(t *testing.T) {
		// Distinct, varying-size chunks across the spill crossover: once a
		// chunk has spilled, a later smaller chunk must not slip back into
		// the in-memory list — replay emits memory before spill, so it
		// would reorder the replayed stream and silently change verdicts.
		j := newJournal(100, 10000, t.TempDir(), nil)
		chunks := [][]byte{
			bytes.Repeat([]byte("a"), 90), // fits memory
			bytes.Repeat([]byte("b"), 70), // over memLimit → starts the spill
			[]byte("cc"),                  // would fit memory; must spill anyway
			bytes.Repeat([]byte("d"), 30),
		}
		var want []byte
		for _, ch := range chunks {
			j.append(ch)
			want = append(want, ch...)
		}
		if j.isTruncated() {
			t.Fatal("spill-backed journal truncated")
		}
		r, n := j.replayReader()
		if n != int64(len(want)) {
			t.Fatalf("replay length = %d, want %d", n, len(want))
		}
		data, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("replay bytes diverge from feed order:\n  got:  %q\n  want: %q", data, want)
		}
		j.free()
	})

	t.Run("total cap truncates even with spill", func(t *testing.T) {
		j := newJournal(100, 150, t.TempDir(), nil)
		j.append(chunk)
		j.append(chunk)
		j.append(chunk) // 180 > maxBytes 150
		if !j.isTruncated() {
			t.Fatal("journal over the total cap should truncate")
		}
	})

	t.Run("shared budget forces truncation and is released", func(t *testing.T) {
		budget := &journalBudget{max: 50}
		j := newJournal(100, 1000, "", budget)
		j.append(chunk) // 60 > budget 50, no spill
		if !j.isTruncated() {
			t.Fatal("budget-exhausted journal should truncate")
		}
		if got := budget.used.Load(); got != 0 {
			t.Fatalf("budget used = %d after truncation, want 0", got)
		}
		j2 := newJournal(100, 1000, "", budget)
		j2.append(chunk[:40])
		if got := budget.used.Load(); got != 40 {
			t.Fatalf("budget used = %d, want 40", got)
		}
		j2.free()
		if got := budget.used.Load(); got != 0 {
			t.Fatalf("budget used = %d after free, want 0", got)
		}
	})

	t.Run("freeze drops later appends but keeps the prefix", func(t *testing.T) {
		j := newJournal(1000, 1000, "", nil)
		j.append(chunk)
		j.freeze()
		j.append(chunk)
		if j.size() != 60 {
			t.Fatalf("frozen journal size = %d, want 60", j.size())
		}
		if j.isTruncated() {
			t.Fatal("freeze must not truncate: the prefix still replays")
		}
		if j.capLeft() != 0 {
			t.Fatalf("frozen capLeft = %d, want 0", j.capLeft())
		}
	})
}

// TestChunkSeqIdempotentFeed pins the backend half of the retry contract:
// re-POSTing the last sequence number replays the cached response bytes
// exactly and does not feed the chunk twice.
func TestChunkSeqIdempotentFeed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sid := createSession(t, ts)

	feed := func(seq, body string) (int, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions/"+sid+"/events",
			strings.NewReader(body))
		if seq != "" {
			req.Header.Set(ChunkSeqHeader, seq)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}

	status, first := feed("0", "t1|begin|0\n")
	if status != http.StatusOK {
		t.Fatalf("feed seq 0: HTTP %d", status)
	}
	status, replay := feed("0", "t1|begin|0\n")
	if status != http.StatusOK {
		t.Fatalf("retried feed seq 0: HTTP %d", status)
	}
	if replay != first {
		t.Fatalf("retried response differs:\n  first:  %s\n  replay: %s", first, replay)
	}
	var v SessionView
	if err := json.Unmarshal([]byte(replay), &v); err != nil {
		t.Fatal(err)
	}
	if v.Events != 1 {
		t.Fatalf("events = %d after retry, want 1 (chunk must not re-apply)", v.Events)
	}

	if status, _ := feed("1", "t1|end|0\n"); status != http.StatusOK {
		t.Fatalf("feed seq 1: HTTP %d", status)
	}
	status, body := feed("1", "t1|end|0\n")
	if status != http.StatusOK {
		t.Fatalf("retried feed seq 1: HTTP %d", status)
	}
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if v.Events != 2 {
		t.Fatalf("events = %d, want 2", v.Events)
	}

	if status, _ := feed("bogus", ""); status != http.StatusBadRequest {
		t.Fatalf("bogus seq header: HTTP %d, want 400", status)
	}

	// A sequence gap means chunks were applied somewhere this engine never
	// saw them (failover drift): feeding past the hole must be refused so
	// the client replays from scratch instead of silently diverging.
	status, _ = feed("5", "t2|begin|0\n")
	if status != http.StatusConflict {
		t.Fatalf("gapped seq 5 after seq 1: HTTP %d, want 409", status)
	}

	// The gap rejection did not disturb the accepted prefix: seq 2 (the
	// true successor) still applies.
	if status, _ := feed("2", "t2|begin|0\n"); status != http.StatusOK {
		t.Fatalf("feed seq 2 after rejected gap: HTTP %d", status)
	}
}

// createSession opens a session against a raw test server and returns
// its id.
func createSession(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: HTTP %d", resp.StatusCode)
	}
	var v SessionView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v.ID
}

// TestRouterJournalHorizon pins the one remaining terminal loss: a chunk
// larger than the journal cap streams through (the feed itself succeeds)
// but costs the session its replay horizon, so backend death afterwards
// is a Retry-After-guarded 409, not a silent wrong answer.
func TestRouterJournalHorizon(t *testing.T) {
	c := newTestClusterTuned(t, 2, Config{}, func(rc *RouterConfig) {
		rc.JournalMemBytes = 16
		rc.JournalMaxBytes = 16 // any real chunk overflows
	})

	// Place a keyed session and find its backend.
	var sid, key, backendURL string
	for i := 0; i < 64 && sid == ""; i++ {
		k := fmt.Sprintf("horizon-%d", i)
		req, _ := http.NewRequest(http.MethodPost, c.routerTS.URL+"/v1/sessions", nil)
		req.Header.Set(RouterTraceHeader, k)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var v SessionView
		json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		sid, key, backendURL = v.ID, k, resp.Header.Get(RouterBackendHeader)
	}

	// Over-cap chunk: applied fine, journal truncated.
	req, _ := http.NewRequest(http.MethodPost, c.routerTS.URL+"/v1/sessions/"+sid+"/events",
		strings.NewReader("t1|begin|0\nt1|w(x)|1\nt1|end|0\n"))
	req.Header.Set(RouterTraceHeader, key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("over-cap feed: HTTP %d, want 200 (streams through)", resp.StatusCode)
	}

	// Kill the session's backend, wait for the prober.
	for i, ts := range c.backTS {
		if ts.URL == backendURL {
			ts.Close()
			_ = i
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(c.routerTS.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Healthy int `json:"backends_healthy"`
		}
		json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if h.Healthy == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("prober never marked the dead backend down")
		}
		time.Sleep(10 * time.Millisecond)
	}

	req, _ = http.NewRequest(http.MethodPost, c.routerTS.URL+"/v1/sessions/"+sid+"/events",
		strings.NewReader("t2|begin|0\n"))
	req.Header.Set(RouterTraceHeader, key)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	ra := resp.Header.Get("Retry-After")
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("post-crash feed past horizon: HTTP %d, want 409", resp.StatusCode)
	}
	if ra == "" {
		t.Fatal("horizon 409 without Retry-After")
	}
}

// TestRouterGapRejectionNotJournaled pins the journaling discipline for
// refused chunks: a backend 409 for a chunk-sequence gap left the session
// untouched, so the router must not record the rejected chunk (a later
// failover replay would otherwise reproduce state containing it) nor
// freeze the journal.
func TestRouterGapRejectionNotJournaled(t *testing.T) {
	c := newTestCluster(t, 2, Config{})
	key := "gap-journal-key"
	req, _ := http.NewRequest(http.MethodPost, c.routerTS.URL+"/v1/sessions", nil)
	req.Header.Set(RouterTraceHeader, key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var v SessionView
	json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	sid := v.ID

	feed := func(seq, body string) int {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, c.routerTS.URL+"/v1/sessions/"+sid+"/events",
			strings.NewReader(body))
		req.Header.Set(RouterTraceHeader, key)
		req.Header.Set(ChunkSeqHeader, seq)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	first := "t1|begin|0\n"
	if status := feed("0", first); status != http.StatusOK {
		t.Fatalf("feed seq 0: HTTP %d", status)
	}
	if status := feed("5", "t1|end|0\n"); status != http.StatusConflict {
		t.Fatalf("gapped seq 5: HTTP %d, want 409", status)
	}

	c.router.mu.Lock()
	route := c.router.routes[sid]
	c.router.mu.Unlock()
	if route == nil {
		t.Fatal("no route for routed session")
	}
	if got := route.journal.size(); got != int64(len(first)) {
		t.Fatalf("journal size = %d after gap rejection, want %d (rejected chunk must not be recorded)",
			got, len(first))
	}
	if route.journal.isFrozen() {
		t.Fatal("gap rejection froze the journal: later applied chunks would be lost to replay")
	}

	// The true successor still applies and is journaled.
	second := "t1|end|0\n"
	if status := feed("1", second); status != http.StatusOK {
		t.Fatalf("feed seq 1 after rejected gap: HTTP %d", status)
	}
	if got := route.journal.size(); got != int64(len(first)+len(second)) {
		t.Fatalf("journal size = %d after seq 1, want %d", got, len(first)+len(second))
	}
}

// TestFinalizeIdempotentDelete pins the backend's finalize cache: a
// re-sent DELETE within the cache window replays the first response
// byte-identically instead of answering 404 — the lost-response retry a
// client or router issues must not surface a successful finalize as a
// hard failure.
func TestFinalizeIdempotentDelete(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sid := createSession(t, ts)

	resp, err := http.Post(ts.URL+"/v1/sessions/"+sid+"/events", "text/plain",
		strings.NewReader("t1|begin|0\nt1|w(x)|1\nt1|end|0\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	del := func(id string) (int, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}

	status, first := del(sid)
	if status != http.StatusOK {
		t.Fatalf("DELETE: HTTP %d", status)
	}
	status, replay := del(sid)
	if status != http.StatusOK {
		t.Fatalf("retried DELETE: HTTP %d, want 200 (cached finalize replay)", status)
	}
	if replay != first {
		t.Fatalf("retried DELETE response differs:\n  first:  %s\n  replay: %s", first, replay)
	}
	if status, _ := del("00000000000000000000000000000000"); status != http.StatusNotFound {
		t.Fatalf("DELETE of never-existed session: HTTP %d, want 404", status)
	}
}

// TestClientBackoffClamp pins the overflow guard: attempts far past the
// shift width must neither panic nor exceed RetryMax.
func TestClientBackoffClamp(t *testing.T) {
	c := &Client{RetryBase: time.Second, RetryMax: 2 * time.Second}
	for _, attempt := range []int{0, 1, 34, 63, 500} {
		d := c.backoff(attempt, nil)
		if d <= 0 || d > 2*time.Second {
			t.Fatalf("backoff(attempt=%d) = %v, want in (0, 2s]", attempt, d)
		}
	}
}

// TestClientRetries pins the client half of the contract: transport-level
// and 503 failures are retried with the body rewound, Retry-After is
// honored, and MaxRetries < 0 disables retries.
func TestClientRetries(t *testing.T) {
	std := []byte("t1|begin|0\nt1|w(x)|1\nt1|end|0\n")
	want := wantReport(t, std, aerodrome.Optimized)

	var calls atomic.Int64
	var lastBody atomic.Value
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		body, _ := io.ReadAll(r.Body)
		lastBody.Store(string(body))
		if n <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		rep := wantReport(t, body, aerodrome.Optimized)
		json.NewEncoder(w).Encode(rep)
	}))
	defer backend.Close()

	client := &Client{BaseURL: backend.URL, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond}
	rep, err := client.Check(bytes.NewReader(std), aerodrome.Options{Algorithm: aerodrome.Optimized})
	if err != nil {
		t.Fatalf("Check with two 503s: %v", err)
	}
	sameReport(t, "retried-check", rep, want)
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (two 503s + success)", got)
	}
	if got := lastBody.Load().(string); got != string(std) {
		t.Fatalf("retried body was not rewound: %q", got)
	}

	calls.Store(0)
	noRetry := &Client{BaseURL: backend.URL, MaxRetries: -1}
	if _, err := noRetry.Check(bytes.NewReader(std), aerodrome.Options{Algorithm: aerodrome.Optimized}); err == nil {
		t.Fatal("MaxRetries<0 should surface the first 503")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("no-retry client made %d calls, want 1", got)
	}
}

// TestClientRetriesFile pins a retried check of a file, the body
// `aerodrome -remote FILE` sends: the transport must not close it, so the
// retry can rewind and resend it.
func TestClientRetriesFile(t *testing.T) {
	path := filepath.Join(goldenDir, "chain-cross.std")
	std, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var calls atomic.Int64 // check attempts, not the retry's one /metrics poll
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/check" && calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		s.ServeHTTP(w, r)
	}))
	defer backend.Close()

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	client := &Client{BaseURL: backend.URL, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond}
	rep, err := client.Check(f, aerodrome.Options{})
	if err != nil {
		t.Fatalf("Check of a file after one 503: %v", err)
	}
	sameReport(t, "retried-file-check", rep, wantReport(t, std, aerodrome.Optimized))
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d check attempts, want 2 (one 503 + success)", got)
	}
}

// TestClientTimeout pins the per-attempt deadline: a hung server costs
// Timeout per attempt instead of wedging forever.
func TestClientTimeout(t *testing.T) {
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer hung.Close()
	defer close(release)

	client := &Client{BaseURL: hung.URL, Timeout: 50 * time.Millisecond, MaxRetries: -1}
	start := time.Now()
	_, err := client.Check(bytes.NewReader([]byte("t1|begin|0\n")), aerodrome.Options{})
	if err == nil {
		t.Fatal("Check against a hung server should time out")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v, want ~50ms", elapsed)
	}
}

// TestClientRingFallback pins the ring awareness: when the router stops
// answering, the client re-resolves via the last-seen /metrics ring and
// sends the one-shot check directly to a healthy backend.
func TestClientRingFallback(t *testing.T) {
	_, backendTS := newTestServer(t, Config{})
	std := []byte("t1|begin|0\nt1|w(x)|1\nt1|end|0\n")
	want := wantReport(t, std, aerodrome.Optimized)

	// A "router" that publishes the ring but fails every check.
	router := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			json.NewEncoder(w).Encode(map[string]any{
				"ring_epoch": 7,
				"backends": map[string]any{
					backendTS.URL: map[string]any{"healthy": true},
				},
			})
			return
		}
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer router.Close()

	client := &Client{BaseURL: router.URL, MaxRetries: 1,
		RetryBase: time.Millisecond, RetryMax: time.Millisecond}
	rep, err := client.Check(bytes.NewReader(std), aerodrome.Options{})
	if err != nil {
		t.Fatalf("Check with dead router and healthy ring backend: %v", err)
	}
	sameReport(t, "ring-fallback", rep, want)
	if got := client.RingEpoch(); got != 7 {
		t.Fatalf("RingEpoch = %d, want 7", got)
	}
}

// TestClientPollsPlainBackendOnce pins that the ring cache costs a plain
// aerodromed one /metrics poll, not one per retry: its snapshot has no
// ring_epoch, so there is no topology to watch.
func TestClientPollsPlainBackendOnce(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var checks, polls atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/metrics":
			polls.Add(1)
		case "/v1/check":
			if checks.Add(1) <= 3 {
				w.Header().Set("Retry-After", "0")
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
		}
		s.ServeHTTP(w, r)
	}))
	defer backend.Close()

	std := []byte("t1|begin|0\nt1|w(x)|1\nt1|end|0\n")
	client := &Client{BaseURL: backend.URL, MaxRetries: 3,
		RetryBase: time.Millisecond, RetryMax: time.Millisecond}
	rep, err := client.Check(bytes.NewReader(std), aerodrome.Options{})
	if err != nil {
		t.Fatalf("Check after three 503s: %v", err)
	}
	sameReport(t, "plain-backend-retries", rep, wantReport(t, std, aerodrome.Optimized))
	if got := checks.Load(); got != 4 {
		t.Fatalf("server saw %d check attempts, want 4", got)
	}
	if got := polls.Load(); got != 1 {
		t.Fatalf("client polled /metrics %d times, want 1", got)
	}
}

// TestRouterViolatedSessionSurvivesBackendLoss pins failover for a
// session past its violation: the journal froze at the chunk that latched
// it, but the chunks after it were still acknowledged, so the recreated
// session must take the client's next chunk in sequence rather than
// refusing it as a gap.
func TestRouterViolatedSessionSurvivesBackendLoss(t *testing.T) {
	c := newTestCluster(t, 2, Config{})
	client := &Client{BaseURL: c.routerTS.URL, TraceKey: "violated-failover"}
	sess, err := client.NewSession(aerodrome.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chunks := []string{
		"t1|begin|0\nt2|begin|0\n",
		"t1|w(x)|1\nt2|w(y)|2\n",
		"t1|r(y)|3\nt2|r(x)|4\n", // the crossing reads latch the violation
		"t1|end|0\nt2|end|0\n",
		"t3|begin|0\nt3|w(z)|5\n",
		"t3|end|0\n",
		"t4|begin|0\nt4|end|0\n",
	}
	var std []byte
	for i, chunk := range chunks {
		std = append(std, chunk...)
		if i == len(chunks)-1 {
			c.closeOwner(sess.ID) // the session's backend dies before the last chunk
		}
		v, err := sess.Feed([]byte(chunk))
		if err != nil {
			t.Fatalf("feed %d: %v", i, err)
		}
		if i >= 2 && v.State != stateViolated {
			t.Fatalf("feed %d: state %q, want violated", i, v.State)
		}
	}
	rep, err := sess.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	sameReport(t, "violated-failover", rep, wantReport(t, std, aerodrome.Optimized))
	if rep.Serializable {
		t.Fatal("violated session reported serializable after failover")
	}
}

// TestRouterSessionsUnderTransportFaults runs every golden trace as a
// keyed session, concurrently, through a router over three backends whose
// transport fails one round trip in ten. Creates, recreates, replays,
// feeds and deletes all cross that transport, so sessions are retried in
// place, placed elsewhere and failed over mid-stream; every final report
// must still equal sequential CheckSTD's, and every seed must have failed
// sessions over.
func TestRouterSessionsUnderTransportFaults(t *testing.T) {
	traces := goldenSTD(t)
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed-", seed), func(t *testing.T) {
			// Seeds run side by side: most of a run is clients sleeping
			// out the router's Retry-After while every backend is down.
			t.Parallel()
			faults := faultinject.New(faultinject.Config{Seed: seed, ErrorProb: 0.1})
			c := newTestClusterTuned(t, 3, Config{}, func(rc *RouterConfig) {
				rc.Transport = faults.WrapTransport(nil)
			})
			type result struct {
				name string
				rep  *aerodrome.Report
				err  error
			}
			results := make(chan result, len(traces))
			i := 0
			for name, std := range traces {
				// Chunk sizes vary per trace and cut lines mid-way.
				go func(name string, std []byte, size int) {
					client := &Client{BaseURL: c.routerTS.URL, TraceKey: name,
						RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond}
					sess, err := client.NewSession(aerodrome.Options{})
					if err != nil {
						results <- result{name: name, err: fmt.Errorf("create: %w", err)}
						return
					}
					for off := 0; off < len(std); off += size {
						if _, err := sess.Feed(std[off:min(off+size, len(std))]); err != nil {
							results <- result{name: name, err: fmt.Errorf("feed at byte %d: %w", off, err)}
							return
						}
					}
					rep, err := sess.Close()
					results <- result{name: name, rep: rep, err: err}
				}(name, std, 61+(i*277)%900)
				i++
			}
			for range traces {
				res := <-results
				if res.err != nil {
					t.Errorf("%s: %v", res.name, res.err)
					continue
				}
				sameReport(t, res.name, res.rep, wantReport(t, traces[res.name], aerodrome.Optimized))
			}
			if n := c.router.failovers.Load(); n == 0 {
				t.Errorf("failovers_total = 0 with %s: the faults never moved a session", faults)
			}
		})
	}
}
