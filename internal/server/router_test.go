package server

// Shard-router tests. Correctness: the golden corpus and the paper's
// ρ1–ρ4, replayed through the router's /v1/check and session API against
// two live backends, must stay byte-identical to sequential CheckSTD —
// routing is an ingestion topology, not a semantic variant. Failure modes:
// backend down at admission (creates fail over, checks reroute after
// mark-down), backend death mid-session (journaled failover onto the
// survivor, verdict unchanged; 409 only past the replay horizon),
// hash-ring determinism across router restarts, and drain behavior.

import (
	"aerodrome"

	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// cluster is a router fronting n in-process backends.
type cluster struct {
	router   *Router
	routerTS *httptest.Server
	backends []*Server
	backTS   []*httptest.Server
}

// newTestCluster boots n backends and a router over them. Probing is fast
// and a single failure marks a backend down, so failure tests don't wait.
func newTestCluster(t *testing.T, n int, cfg Config) *cluster {
	return newTestClusterTuned(t, n, cfg, nil)
}

// newTestClusterTuned is newTestCluster with a hook to adjust the router
// config (journal bounds, transports) before boot.
func newTestClusterTuned(t *testing.T, n int, cfg Config, tune func(*RouterConfig)) *cluster {
	t.Helper()
	c := &cluster{}
	var urls []string
	for i := 0; i < n; i++ {
		s, ts := newTestServer(t, cfg)
		c.backends = append(c.backends, s)
		c.backTS = append(c.backTS, ts)
		urls = append(urls, ts.URL)
	}
	rcfg := RouterConfig{
		Backends:      urls,
		ProbeInterval: 25 * time.Millisecond,
		FailAfter:     1,
	}
	if tune != nil {
		tune(&rcfg)
	}
	rt, err := NewRouter(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	c.router = rt
	c.routerTS = httptest.NewServer(rt)
	t.Cleanup(func() {
		c.routerTS.Close()
		rt.Close()
	})
	return c
}

// postCheckKeyed streams body to the router's /v1/check under a routing
// key and returns the report plus the backend that served it.
func postCheckKeyed(t *testing.T, ts *httptest.Server, body []byte, key string) (*aerodrome.Report, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/check", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set(RouterTraceHeader, key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed POST /v1/check: HTTP %d", resp.StatusCode)
	}
	var rep aerodrome.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return &rep, resp.Header.Get(RouterBackendHeader)
}

// TestRouterCheckGoldenAndPaperTraces is the routed half of the e2e
// correctness pin: every golden and paper trace through the router (STD
// and binary one-shots, plus a chunked session replay) matches sequential
// CheckSTD on verdict, violation index and event count, and the traffic
// actually spreads across both backends.
func TestRouterCheckGoldenAndPaperTraces(t *testing.T) {
	c := newTestCluster(t, 2, Config{})
	traces := goldenSTD(t)
	for name, data := range paperSTD(t) {
		traces[name] = data
	}
	served := map[string]bool{}
	for name, std := range traces {
		want := wantReport(t, std, aerodrome.Optimized) // the backend default
		rep, backend := postCheckKeyed(t, c.routerTS, std, name)
		served[backend] = true
		sameReport(t, name+"/std", rep, want)
		brep, _ := postCheckKeyed(t, c.routerTS, toBinary(t, std), name)
		sameReport(t, name+"/bin", brep, want)

		// Session replay through the router, chunked mid-line, keyed by
		// trace name so every chunk lands on the same backend.
		client := &Client{BaseURL: c.routerTS.URL, TraceKey: name}
		sess, err := client.NewSession("")
		if err != nil {
			t.Fatalf("%s: NewSession: %v", name, err)
		}
		chunk := 997
		if len(std) < 256 {
			chunk = 3
		}
		for i := 0; i < len(std); i += chunk {
			end := min(i+chunk, len(std))
			if _, err := sess.Feed(std[i:end]); err != nil {
				t.Fatalf("%s: feed: %v", name, err)
			}
		}
		srep, err := sess.Close()
		if err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		sameReport(t, name+"/routed-session", srep, want)
	}
	if len(served) != 2 {
		t.Fatalf("one-shot checks used backends %v, want both", served)
	}
}

// TestRouterRingDeterminism pins the consistent-hash contract: a router
// restarted over the same backend list assigns every key identically;
// marking one backend down moves exactly its keys (deterministically, to
// the next point on the ring) and leaves every other key in place; and
// recovery restores the original assignment.
func TestRouterRingDeterminism(t *testing.T) {
	urls := []string{"http://backend-a:8421", "http://backend-b:8421", "http://backend-c:8421"}
	newRing := func() *Router {
		rt, err := NewRouter(RouterConfig{Backends: urls, ProbeInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		return rt
	}
	rt1, rt2 := newRing(), newRing()

	keys := make([]string, 500)
	for i := range keys {
		keys[i] = fmt.Sprintf("trace-%d", i)
	}
	before := map[string]string{}
	perBackend := map[string]int{}
	for _, k := range keys {
		b1, b2 := rt1.pick(k, nil), rt2.pick(k, nil)
		if b1.name != b2.name {
			t.Fatalf("key %q: %s on router 1, %s on router 2", k, b1.name, b2.name)
		}
		before[k] = b1.name
		perBackend[b1.name]++
	}
	// The split must be usable, not perfect: no backend starves.
	for _, u := range urls {
		if perBackend[u] < len(keys)/10 {
			t.Fatalf("lopsided ring: %v", perBackend)
		}
	}

	// Deterministic rehash on loss: down a backend, only its keys move.
	var down *backend
	for _, b := range rt1.backends {
		if b.name == urls[1] {
			down = b
		}
	}
	down.healthy.Store(false)
	for _, k := range keys {
		after := rt1.pick(k, nil).name
		if before[k] != urls[1] && after != before[k] {
			t.Fatalf("key %q moved from surviving backend %s to %s", k, before[k], after)
		}
		if before[k] == urls[1] && after == urls[1] {
			t.Fatalf("key %q still on downed backend", k)
		}
		if rt2.pickDowned(k, urls[1]) != after {
			t.Fatalf("key %q: rehash differs across routers", k)
		}
	}
	// Recovery restores the original assignment exactly.
	down.healthy.Store(true)
	for _, k := range keys {
		if got := rt1.pick(k, nil).name; got != before[k] {
			t.Fatalf("key %q: %s after recovery, want %s", k, got, before[k])
		}
	}
}

// pickDowned is a test helper: pick with the named backend treated as
// down, leaving the router's real health state alone.
func (rt *Router) pickDowned(key, downed string) string {
	for _, b := range rt.backends {
		if b.name == downed {
			b.healthy.Store(false)
			defer b.healthy.Store(true)
		}
	}
	return rt.pick(key, nil).name
}

// TestRouterBackendDownAtAdmission pins the create-time failover: with a
// backend hard-down (connection refused), session creation still answers
// 201 on the first try — the buffered create retries across the ring —
// and one-shot checks converge to the survivor after the mark-down.
func TestRouterBackendDownAtAdmission(t *testing.T) {
	c := newTestCluster(t, 2, Config{})
	c.backTS[1].Close() // hard down: connection refused, prober not yet aware

	for i := 0; i < 16; i++ {
		resp := tenantPost(t, c.routerTS, "/v1/sessions?trace=key-"+fmt.Sprint(i), "", "")
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %d with backend down: HTTP %d, want 201 (failover)", i, resp.StatusCode)
		}
	}

	// One-shot checks stream and cannot transparently retry: at most one
	// 503 (Retry-After set) marks the backend down, after which every key
	// routes to the survivor.
	unavailable := 0
	for i := 0; i < 16; i++ {
		resp := tenantPost(t, c.routerTS, "/v1/check?trace=key-"+fmt.Sprint(i), "", "t0|begin|0\nt0|end|0\n")
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusServiceUnavailable:
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("check %d: 503 without Retry-After", i)
			}
			unavailable++
		default:
			t.Fatalf("check %d: HTTP %d", i, resp.StatusCode)
		}
	}
	if unavailable > 1 {
		t.Fatalf("%d checks hit 503, want ≤1 (first failure marks the backend down)", unavailable)
	}
}

// TestRouterBackendDiesMidSession pins the failover contract: a session
// whose backend dies mid-stream resumes transparently — the router
// recreates it on the survivor, replays the journaled prefix, and the
// final verdict is byte-identical to sequential CheckSTD over the whole
// trace. The survivor's own session is untouched, and the failover is
// visible in the router metrics.
func TestRouterBackendDiesMidSession(t *testing.T) {
	c := newTestCluster(t, 2, Config{})

	// Open sessions under distinct keys until both backends hold at least
	// one (the ring splits 500 keys; a handful suffices in practice).
	type routedSession struct{ id, backend, key string }
	var sessions []routedSession
	byBackend := map[string]routedSession{}
	for i := 0; len(byBackend) < 2 && i < 64; i++ {
		key := fmt.Sprintf("trace-%d", i)
		req, _ := http.NewRequest(http.MethodPost, c.routerTS.URL+"/v1/sessions", nil)
		req.Header.Set(RouterTraceHeader, key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var v SessionView
		json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create: HTTP %d", resp.StatusCode)
		}
		rs := routedSession{id: v.ID, backend: resp.Header.Get(RouterBackendHeader), key: key}
		sessions = append(sessions, rs)
		byBackend[rs.backend] = rs
	}
	if len(byBackend) < 2 {
		t.Fatalf("could not place sessions on both backends: %v", byBackend)
	}

	// Feed the victim session the first half of a golden trace before the
	// crash: the journaled prefix is what failover must replay.
	victim := byBackend[c.backTS[0].URL]
	std := goldenSTD(t)["sharded-cross"]
	if len(std) == 0 {
		t.Fatal("golden trace sharded-cross missing")
	}
	want := wantReport(t, std, aerodrome.Optimized)
	half := len(std) / 2
	feedChunk := func(rs routedSession, chunk []byte) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost,
			c.routerTS.URL+"/v1/sessions/"+rs.id+"/events", strings.NewReader(string(chunk)))
		req.Header.Set(RouterTraceHeader, rs.key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := feedChunk(victim, std[:half])
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-crash feed: HTTP %d", resp.StatusCode)
	}

	// Kill the victim's backend hard.
	c.backTS[0].Close()

	// Wait until the prober notices (FailAfter=1, 25ms interval).
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

	// Feeding the orphaned session now fails over: the router recreates it
	// on the survivor, replays the journaled prefix, and applies the rest.
	resp = feedChunk(victim, std[half:])
	servedBy := resp.Header.Get(RouterBackendHeader)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-crash feed: HTTP %d, want 200 (failover)", resp.StatusCode)
	}
	if servedBy != c.backTS[1].URL {
		t.Fatalf("post-crash feed served by %q, want survivor %q", servedBy, c.backTS[1].URL)
	}

	// Finalize through the router: the report must match sequential
	// CheckSTD over the whole trace — failover is semantically invisible.
	req, _ := http.NewRequest(http.MethodDelete, c.routerTS.URL+"/v1/sessions/"+victim.id, nil)
	req.Header.Set(RouterTraceHeader, victim.key)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("post-failover DELETE: HTTP %d", dresp.StatusCode)
	}
	var rep aerodrome.Report
	if err := json.NewDecoder(dresp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	sameReport(t, "failover-session", &rep, want)

	// The survivor's own session is untouched.
	survivor := byBackend[c.backTS[1].URL]
	resp = feedChunk(survivor, []byte("t0|begin|0\n"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("surviving session feed: HTTP %d, want 200", resp.StatusCode)
	}

	mresp, err := http.Get(c.routerTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Failovers     int64 `json:"failovers_total"`
		ReplayedBytes int64 `json:"replayed_bytes_total"`
		RingEpoch     int64 `json:"ring_epoch"`
	}
	json.NewDecoder(mresp.Body).Decode(&m)
	mresp.Body.Close()
	if m.Failovers < 1 {
		t.Fatalf("failovers_total = %d, want ≥1", m.Failovers)
	}
	if m.ReplayedBytes < int64(half) {
		t.Fatalf("replayed_bytes_total = %d, want ≥%d", m.ReplayedBytes, half)
	}
	if m.RingEpoch < 1 {
		t.Fatalf("ring_epoch = %d, want ≥1 after a backend loss", m.RingEpoch)
	}
}

// TestRouterUnknownSession pins the affinity-miss paths: an id the router
// has never seen is 409 without a routing key (the session may be alive on
// a backend this router no longer knows) and a clean backend 404 with one.
func TestRouterUnknownSession(t *testing.T) {
	c := newTestCluster(t, 2, Config{})
	resp, err := http.Get(c.routerTS.URL + "/v1/sessions/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("keyless unknown session: HTTP %d, want 409", resp.StatusCode)
	}
	resp, err = http.Get(c.routerTS.URL + "/v1/sessions/deadbeef?trace=k")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("keyed unknown session: HTTP %d, want backend 404", resp.StatusCode)
	}
}

// TestRouterDrainAndNoBackends pins the operational edges: draining
// rejects new work but keeps existing-session traffic flowing, and a
// router with every backend down is 503 + Retry-After everywhere.
func TestRouterDrainAndNoBackends(t *testing.T) {
	c := newTestCluster(t, 2, Config{})
	client := &Client{BaseURL: c.routerTS.URL, TraceKey: "drain-key"}
	sess, err := client.NewSession("")
	if err != nil {
		t.Fatal(err)
	}

	c.router.SetDraining(true)
	resp, err := http.Get(c.routerTS.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: HTTP %d, want 503", resp.StatusCode)
	}
	resp = tenantPost(t, c.routerTS, "/v1/check", "", "t0|begin|0\nt0|end|0\n")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining check: HTTP %d, want 503", resp.StatusCode)
	}
	if _, err := sess.Feed([]byte("t0|begin|0\nt0|end|0\n")); err != nil {
		t.Fatalf("draining feed to existing session: %v, want success", err)
	}
	c.router.SetDraining(false)

	for _, b := range c.router.backends {
		b.healthy.Store(false)
	}
	resp, err = http.Get(c.routerTS.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no-backend healthz: HTTP %d, want 503", resp.StatusCode)
	}
	resp = tenantPost(t, c.routerTS, "/v1/check", "", "t0|begin|0\nt0|end|0\n")
	ra := resp.Header.Get("Retry-After")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no-backend check: HTTP %d, want 503", resp.StatusCode)
	}
	if ra == "" {
		t.Fatal("no-backend check: 503 without Retry-After")
	}
}
