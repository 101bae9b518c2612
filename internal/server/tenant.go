package server

// Multi-tenant quotas: per-tenant session, concurrent-check and ingest-byte
// budgets layered on the global admission caps. The tenant is named by a
// request header (Config.TenantHeader, default "X-Aerodrome-Tenant");
// requests without the header share the "default" tenant. Like the global
// caps, over-budget admission is rejected (429 + Retry-After), never
// queued, and every tenant gets its own /metrics counters so a noisy
// neighbor is visible, not just throttled.

import (
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTenantHeader names the tenant of a request when Config does not
// override it.
const DefaultTenantHeader = "X-Aerodrome-Tenant"

// anonymousTenant is the bucket for requests that carry no tenant header.
const anonymousTenant = "default"

// TenantQuota is the admission budget of one tenant. Zero fields are
// unlimited; the zero value disables per-tenant admission entirely (the
// global caps still apply).
type TenantQuota struct {
	// MaxSessions caps the tenant's concurrent incremental sessions.
	MaxSessions int
	// MaxConcurrentChecks caps the tenant's concurrent /v1/check requests.
	MaxConcurrentChecks int
	// BytesPerSec caps the tenant's sustained ingest rate across checks and
	// session feeds, enforced by a token bucket holding one second of
	// budget: a request (or chunk) with a declared Content-Length is
	// admitted only when the bucket covers it — so a single body larger
	// than one second's budget is never admitted — and chunked bodies are
	// debited as they stream.
	BytesPerSec int64
}

// limited reports whether any budget is set.
func (q TenantQuota) limited() bool {
	return q.MaxSessions > 0 || q.MaxConcurrentChecks > 0 || q.BytesPerSec > 0
}

// tenant is the runtime state of one tenant: live gauges admission checks
// race on, the byte bucket, and the monotonic counters /metrics serves.
type tenant struct {
	name  string
	quota TenantQuota

	sessions atomic.Int64 // live sessions gauge
	checks   atomic.Int64 // live checks gauge
	bucket   byteBucket

	sessionsOpened   atomic.Int64
	sessionsRejected atomic.Int64
	checksTotal      atomic.Int64
	checksRejected   atomic.Int64
	bytesRejected    atomic.Int64 // requests rejected on the byte budget
	bytesTotal       atomic.Int64
	eventsTotal      atomic.Int64
	violationsTotal  atomic.Int64
}

// byteBucket is a token bucket over ingest bytes. rate 0 disables it. The
// capacity is one second of budget, full at start.
type byteBucket struct {
	mu     sync.Mutex
	rate   int64 // bytes per second; 0 = unlimited
	tokens float64
	last   time.Time
}

// take debits n bytes if the budget covers them, or reports how long the
// caller should wait before retrying. n may be 0 (always admitted).
// never means n exceeds the bucket's capacity outright: no amount of
// waiting would admit it, and the caller should answer 413, not 429.
func (b *byteBucket) take(n int64) (ok bool, retryAfter time.Duration, never bool) {
	if b.rate <= 0 {
		return true, 0, false
	}
	if n > b.rate {
		return false, 0, true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * float64(b.rate)
	}
	b.last = now
	if limit := float64(b.rate); b.tokens > limit {
		b.tokens = limit
	}
	if b.tokens >= float64(n) {
		b.tokens -= float64(n)
		return true, 0, false
	}
	deficit := float64(n) - b.tokens
	return false, time.Duration(deficit / float64(b.rate) * float64(time.Second)), false
}

// tenantName resolves the tenant of a request.
func (s *Server) tenantName(r *http.Request) string {
	if name := r.Header.Get(s.cfg.TenantHeader); name != "" {
		return name
	}
	return anonymousTenant
}

// overflowTenant is the shared bucket for tenant names seen after the
// MaxTenants cap. The header is client-supplied and unauthenticated, so a
// client inventing a fresh name per request must not be able to grow the
// tenant table (and the /metrics body) without bound — nor mint itself a
// fresh quota each time: past the cap, every new name shares this one
// budget.
const overflowTenant = "overflow"

// tenant returns (lazily creating) the state for a request's tenant.
func (s *Server) tenant(r *http.Request) *tenant {
	name := s.tenantName(r)
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	t, ok := s.tenants[name]
	if !ok {
		if len(s.tenants) >= s.cfg.MaxTenants {
			name = overflowTenant
			if t, ok = s.tenants[name]; ok {
				return t
			}
		}
		q := s.cfg.TenantQuota
		if override, ok := s.cfg.TenantQuotas[name]; ok {
			q = override
		}
		t = &tenant{name: name, quota: q}
		t.bucket.rate = q.BytesPerSec
		if q.BytesPerSec > 0 {
			t.bucket.tokens = float64(q.BytesPerSec)
		}
		s.tenants[name] = t
	}
	return t
}

// admitCheck takes one concurrent-check slot, or answers why not. The
// returned release must be called exactly once when admission succeeded.
func (t *tenant) admitCheck() (release func(), ok bool) {
	if t.quota.MaxConcurrentChecks > 0 {
		if t.checks.Add(1) > int64(t.quota.MaxConcurrentChecks) {
			t.checks.Add(-1)
			t.checksRejected.Add(1)
			return nil, false
		}
	} else {
		t.checks.Add(1)
	}
	return func() { t.checks.Add(-1) }, true
}

// admitSession takes one session slot. The slot is released by
// releaseSession when the session is finalized (closed or evicted).
func (t *tenant) admitSession() bool {
	if t.quota.MaxSessions > 0 {
		if t.sessions.Add(1) > int64(t.quota.MaxSessions) {
			t.sessions.Add(-1)
			t.sessionsRejected.Add(1)
			return false
		}
	} else {
		t.sessions.Add(1)
	}
	return true
}

func (t *tenant) releaseSession() { t.sessions.Add(-1) }

// admitBytes debits a declared body length from the byte budget. Bodies
// with unknown length (chunked transfer) pass here and are debited as they
// stream (see tenantBytesReader). never means the body exceeds the bucket
// capacity (one second of budget) and no retry will ever admit it.
func (t *tenant) admitBytes(contentLength int64) (ok bool, retryAfter time.Duration, never bool) {
	if contentLength <= 0 {
		return true, 0, false
	}
	ok, retry, never := t.bucket.take(contentLength)
	if !ok {
		t.bytesRejected.Add(1)
		return false, retry, never
	}
	t.bytesTotal.Add(contentLength)
	return true, 0, false
}

// writeQuotaRejection answers a per-tenant 429 with a Retry-After derived
// from the bucket deficit (minimum 1s, the same floor the global caps use).
func writeQuotaRejection(w http.ResponseWriter, retryAfter time.Duration, msg string) {
	secs := int64(retryAfter/time.Second) + 1
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeError(w, http.StatusTooManyRequests, msg)
}

// errTenantBudget is the sentinel a tenantBytesReader returns when a
// chunked body outruns the tenant's byte budget mid-stream.
type errTenantBudget struct{ retryAfter time.Duration }

func (e *errTenantBudget) Error() string { return "tenant byte budget exhausted" }

// tenantBytesReader debits a tenant's byte budget as an unbounded-length
// body streams, failing the read once the budget is gone — the only
// admission point for chunked bodies, whose cost is unknown upfront. The
// budget error is latched: the failed read's bytes are dropped, so a
// consumer that read on once the bucket refilled would get a stream with
// a hole in it. The trace decoder stops at the first error, but the latch
// does not rely on that.
type tenantBytesReader struct {
	r   io.Reader
	t   *tenant
	err error
}

func (tr *tenantBytesReader) Read(p []byte) (int, error) {
	if tr.err != nil {
		return 0, tr.err
	}
	// A read may ask for more than the bucket holds when full (the decoder
	// asks for its whole 64 KiB window), and take refuses such a debit
	// outright. Reading at most one bucketful keeps every debit one that
	// waiting can admit, so the never case cannot fire here.
	if rate := tr.t.bucket.rate; rate > 0 && int64(len(p)) > rate {
		p = p[:rate]
	}
	n, err := tr.r.Read(p)
	if n > 0 {
		if ok, retry, _ := tr.t.bucket.take(int64(n)); !ok {
			tr.t.bytesRejected.Add(1)
			tr.err = &errTenantBudget{retryAfter: retry}
			return 0, tr.err
		}
		tr.t.bytesTotal.Add(int64(n))
	}
	return n, err
}

// snapshotTenants renders the per-tenant metrics section.
func (s *Server) snapshotTenants() map[string]map[string]int64 {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	out := make(map[string]map[string]int64, len(s.tenants))
	for name, t := range s.tenants {
		out[name] = map[string]int64{
			"sessions_active":   t.sessions.Load(),
			"sessions_opened":   t.sessionsOpened.Load(),
			"sessions_rejected": t.sessionsRejected.Load(),
			"checks_active":     t.checks.Load(),
			"checks_total":      t.checksTotal.Load(),
			"checks_rejected":   t.checksRejected.Load(),
			"bytes_rejected":    t.bytesRejected.Load(),
			"bytes_total":       t.bytesTotal.Load(),
			"events_total":      t.eventsTotal.Load(),
			"violations_total":  t.violationsTotal.Load(),
		}
	}
	return out
}
