package server

// Multi-tenant quota tests: per-tenant session, concurrent-check and byte
// budgets must reject the over-quota tenant (429 + Retry-After) without
// touching its neighbors, release slots on finalization, and hold exact
// under admission races — the quota layer is the isolation boundary the
// shard router multiplies across backends.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tenantPost posts body to path with the given tenant header.
func tenantPost(t *testing.T, ts *httptest.Server, path, tenant, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(DefaultTenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestTenantSessionQuota(t *testing.T) {
	_, ts := newTestServer(t, Config{TenantQuota: TenantQuota{MaxSessions: 2}})

	var ids []string
	openSession := func(tenant string) (*http.Response, string) {
		resp := tenantPost(t, ts, "/v1/sessions", tenant, "")
		defer resp.Body.Close()
		var v SessionView
		json.NewDecoder(resp.Body).Decode(&v)
		return resp, v.ID
	}

	for i := 0; i < 2; i++ {
		resp, id := openSession("acme")
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("session %d: HTTP %d, want 201", i, resp.StatusCode)
		}
		ids = append(ids, id)
	}
	resp, _ := openSession("acme")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota session: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("tenant 429 without Retry-After")
	}
	// A different tenant has its own budget.
	if resp, _ := openSession("other"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("neighbor tenant: HTTP %d, want 201", resp.StatusCode)
	}
	// Finalizing frees the slot.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+ids[0], nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if resp, _ := openSession("acme"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("slot not freed after DELETE: HTTP %d", resp.StatusCode)
	}
}

func TestTenantCheckQuota(t *testing.T) {
	_, ts := newTestServer(t, Config{TenantQuota: TenantQuota{MaxConcurrentChecks: 1}})

	pr, pw := io.Pipe()
	// Registered after newTestServer's cleanup, so it runs first: a test
	// that fails before releasing the body must not leave the handler
	// reading it while the server's Close waits.
	t.Cleanup(func() { pw.Close() })
	done := make(chan error, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/check", pr)
		req.Header.Set(DefaultTenantHeader, "acme")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	if _, err := pw.Write([]byte("t0|begin|0\n")); err != nil {
		t.Fatal(err)
	}

	// acme's one slot is held; its next check must answer 429 (poll: the
	// held request races to the handler), while another tenant sails
	// through the whole time.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := tenantPost(t, ts, "/v1/check", "acme", "t0|begin|0\nt0|end|0\n")
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("saturated tenant never rejected: last HTTP %d", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp := tenantPost(t, ts, "/v1/check", "other", "t0|begin|0\nt0|end|0\n")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("neighbor tenant during saturation: HTTP %d, want 200", resp.StatusCode)
	}

	pw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	resp = tenantPost(t, ts, "/v1/check", "acme", "t0|begin|0\nt0|end|0\n")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: HTTP %d, want 200", resp.StatusCode)
	}
}

func TestTenantByteBudget(t *testing.T) {
	// 256 B/s for every tenant, each with its own bucket: the first small
	// body fits acme's (one-second) bucket, the second is rejected with a
	// Retry-After, and an untagged request is untouched (it belongs to the
	// "default" tenant, whose bucket acme's traffic never drew on).
	_, ts := newTestServer(t, Config{TenantQuota: TenantQuota{BytesPerSec: 256}})
	body := strings.Repeat("t0|begin|0\nt0|end|0\n", 10) // 200 bytes

	resp := tenantPost(t, ts, "/v1/check", "acme", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first check: HTTP %d, want 200", resp.StatusCode)
	}
	resp = tenantPost(t, ts, "/v1/check", "acme", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget check: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("byte-budget 429 without Retry-After")
	}
	resp = tenantPost(t, ts, "/v1/check", "", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("untagged check during acme exhaustion: HTTP %d, want 200", resp.StatusCode)
	}

	// Chunked transfer (no declared length): the budget trips mid-stream
	// and still surfaces as 429.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/check",
		struct{ io.Reader }{strings.NewReader(body)})
	req.Header.Set(DefaultTenantHeader, "acme")
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("chunked over-budget check: HTTP %d, want 429", cresp.StatusCode)
	}
}

// TestTenantBytesReaderCapsReads pins a chunked body read through a
// bucket smaller than one decoder read: at 8 KiB/s with a full bucket, a
// 64 KiB read of a 12 KiB body is admitted one bucketful at a time, then
// told when to come back, instead of refused outright as a debit no wait
// could admit.
func TestTenantBytesReaderCapsReads(t *testing.T) {
	ten := &tenant{quota: TenantQuota{BytesPerSec: 8192}}
	ten.bucket.rate, ten.bucket.tokens = 8192, 8192
	tr := &tenantBytesReader{r: bytes.NewReader(make([]byte, 12<<10)), t: ten}
	buf := make([]byte, 64<<10)
	if n, err := tr.Read(buf); n != 8192 || err != nil {
		t.Fatalf("first Read = (%d, %v), want (8192, nil)", n, err)
	}
	n, err := tr.Read(buf)
	var budget *errTenantBudget
	if n != 0 || !errors.As(err, &budget) || budget.retryAfter <= 0 {
		t.Fatalf("second Read = (%d, %v), want a budget error with a positive retry delay", n, err)
	}
}

// TestTenantByteBudgetNeverAdmissible pins the 413-vs-429 distinction: a
// declared body larger than the bucket capacity (one second of budget)
// can never be admitted, so it must get a terminal 413 instead of a 429
// whose Retry-After would loop an obedient client forever.
func TestTenantByteBudgetNeverAdmissible(t *testing.T) {
	_, ts := newTestServer(t, Config{TenantQuota: TenantQuota{BytesPerSec: 64}})
	body := strings.Repeat("t0|begin|0\nt0|end|0\n", 10) // 200 bytes > 64-byte bucket
	resp := tenantPost(t, ts, "/v1/check", "acme", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("never-admissible check: HTTP %d, want 413", resp.StatusCode)
	}
}

// TestTenantTableBounded pins the overflow cap: the tenant header is
// client-supplied, so inventing fresh names must not grow the table (or
// mint fresh budgets) without bound — past MaxTenants every new name
// shares one overflow bucket, which the quota still throttles.
func TestTenantTableBounded(t *testing.T) {
	s, ts := newTestServer(t, Config{
		MaxTenants:  4,
		TenantQuota: TenantQuota{MaxSessions: 1},
	})
	for i := 0; i < 16; i++ {
		resp := tenantPost(t, ts, "/v1/sessions", fmt.Sprintf("rotating-%d", i), "")
		resp.Body.Close()
	}
	s.tenantMu.Lock()
	n := len(s.tenants)
	overflow := s.tenants[overflowTenant]
	s.tenantMu.Unlock()
	if n > 5 { // MaxTenants distinct names + the shared overflow bucket
		t.Fatalf("tenant table grew to %d entries, want ≤ 5", n)
	}
	if overflow == nil {
		t.Fatal("overflow tenant never materialized")
	}
	// The shared overflow budget throttles rotated names: of the 13
	// creations that landed on it, only MaxSessions=1 was admitted.
	if got := overflow.sessions.Load(); got != 1 {
		t.Fatalf("overflow sessions = %d, want 1", got)
	}
	if overflow.sessionsRejected.Load() == 0 {
		t.Fatal("overflow rejections = 0, want > 0")
	}
}

// TestTenantQuotaRacesSessionCreation pins quota exactness under the race
// the admission path actually runs: many concurrent creations against a
// small per-tenant budget admit exactly the budget, no more, no matter how
// the goroutines interleave.
func TestTenantQuotaRacesSessionCreation(t *testing.T) {
	const quota, attempts = 8, 64
	_, ts := newTestServer(t, Config{TenantQuota: TenantQuota{MaxSessions: quota}})

	var created, rejected atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := tenantPost(t, ts, "/v1/sessions", "acme", "")
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusCreated:
				created.Add(1)
			case http.StatusTooManyRequests:
				rejected.Add(1)
			default:
				t.Errorf("unexpected HTTP %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if created.Load() != quota || rejected.Load() != attempts-quota {
		t.Fatalf("created %d / rejected %d, want %d / %d",
			created.Load(), rejected.Load(), quota, attempts-quota)
	}
}

// TestTenantMetrics pins the per-tenant /metrics section: the counters
// operators and the daemon's byte-budget test read.
func TestTenantMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{TenantQuota: TenantQuota{MaxSessions: 1}})

	resp := tenantPost(t, ts, "/v1/check", "acme", "t0|begin|0\nt0|w(x)|1\nt0|end|0\n")
	resp.Body.Close()
	for i := 0; i < 2; i++ { // second create is over quota
		resp := tenantPost(t, ts, "/v1/sessions", "acme", "")
		resp.Body.Close()
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m struct {
		Tenants map[string]struct {
			SessionsActive   int64 `json:"sessions_active"`
			SessionsRejected int64 `json:"sessions_rejected"`
			ChecksTotal      int64 `json:"checks_total"`
			EventsTotal      int64 `json:"events_total"`
		} `json:"tenants"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	acme, ok := m.Tenants["acme"]
	if !ok {
		t.Fatalf("tenant section missing acme: %+v", m.Tenants)
	}
	if acme.ChecksTotal != 1 || acme.EventsTotal != 3 {
		t.Fatalf("acme checks/events = %d/%d, want 1/3", acme.ChecksTotal, acme.EventsTotal)
	}
	if acme.SessionsActive != 1 || acme.SessionsRejected != 1 {
		t.Fatalf("acme sessions active/rejected = %d/%d, want 1/1",
			acme.SessionsActive, acme.SessionsRejected)
	}
}
