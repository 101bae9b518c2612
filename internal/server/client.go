package server

// Client is the HTTP client behind `aerodrome -remote`: it speaks the
// /v1 wire format and maps service errors back to Go errors, so the CLI
// front end renders remote verdicts exactly like local ones.
//
// It is also the reference implementation of the retry contract the
// fault-tolerant session plane asks of clients (documented in
// examples/server/README.md): every request runs under a per-attempt
// timeout; transport errors and retryable statuses (429, 502, 503) are
// retried with capped exponential backoff plus jitter, honoring
// Retry-After when the server sent one; /v1/check bodies are re-POSTed by
// rewinding an io.ReadSeeker; session chunks carry strictly increasing
// sequence numbers so a retried feed is answered from the server's
// idempotency cache instead of being applied twice; and the router's
// ring-epoch metric is consulted on repeated failure, so a client stuck
// on a dead router can re-resolve to a surviving backend instead of
// hammering the corpse.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aerodrome"
)

// Client calls an aerodromed instance — or a shard router, which speaks
// the same wire format plus two routing headers.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8421".
	BaseURL string
	// Tenant, when set, is sent as the tenant header: the server's quota
	// and metrics bucket, and the router's routing-key fallback.
	Tenant string
	// TraceKey, when set, is sent as the trace routing key, pinning this
	// client's requests to one consistent-hash backend behind a router.
	TraceKey string
	// HTTPClient defaults to http.DefaultClient. Per-request deadlines
	// come from Timeout, so the client's own Timeout field can stay zero.
	HTTPClient *http.Client
	// Timeout bounds each attempt (default 30s; negative disables). A
	// hung backend then costs one attempt, not a wedged CLI.
	Timeout time.Duration
	// MaxRetries is how many times a failed request is retried (default
	// 4; negative disables retries). Only rewindable requests retry.
	MaxRetries int
	// RetryBase is the first backoff step (default 100ms); RetryMax caps
	// the exponential growth (default 2s). Retry-After from the server
	// overrides a shorter backoff, never a longer one.
	RetryBase time.Duration
	RetryMax  time.Duration

	// Ring cache: the last-seen router topology, refreshed from /metrics
	// when requests fail. A changed ring_epoch means backends came or
	// went; the healthy list is the direct-fallback pool for one-shot
	// checks when the router itself is unreachable.
	ringMu       sync.Mutex
	ringEpoch    uint64
	ringBackends []string
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) timeout() time.Duration {
	if c.Timeout < 0 {
		return 0
	}
	if c.Timeout == 0 {
		return 30 * time.Second
	}
	return c.Timeout
}

func (c *Client) maxRetries() int {
	if c.MaxRetries < 0 {
		return 0
	}
	if c.MaxRetries == 0 {
		return 4
	}
	return c.MaxRetries
}

func (c *Client) retryBase() time.Duration {
	if c.RetryBase <= 0 {
		return 100 * time.Millisecond
	}
	return c.RetryBase
}

func (c *Client) retryMax() time.Duration {
	if c.RetryMax <= 0 {
		return 2 * time.Second
	}
	return c.RetryMax
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.BaseURL, "/") + path
}

// retryableStatus reports whether a response status is worth retrying:
// explicit back-off signals (429, 503) and the gateway-lost-the-backend
// 502 a pre-failover router could still emit.
func retryableStatus(status int) bool {
	return status == http.StatusTooManyRequests ||
		status == http.StatusServiceUnavailable ||
		status == http.StatusBadGateway
}

// retryAfter extracts a Retry-After delay in seconds, or 0.
func retryAfter(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	secs, err := strconv.ParseInt(resp.Header.Get("Retry-After"), 10, 64)
	if err != nil || secs < 0 || secs > 300 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// backoff computes the jittered, capped exponential delay before retry
// attempt (0-based), floored by the server's Retry-After when present.
func (c *Client) backoff(attempt int, resp *http.Response) time.Duration {
	max := c.retryMax()
	d := c.retryBase()
	// Double step by step, stopping at the cap: a single shift by attempt
	// would overflow for large MaxRetries and feed rand.Int63n a negative.
	for i := 0; i < attempt && d < max; i++ {
		d <<= 1
	}
	if d <= 0 || d > max {
		d = max
	}
	// Full jitter in [d/2, d): desynchronizes a fleet of retrying clients
	// without starving any of them.
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	if ra := retryAfter(resp); ra > d {
		d = ra
	}
	return d
}

// attempt is one request attempt under the per-attempt timeout.
func (c *Client) attempt(method, url, contentType string, body io.Reader, seq int64) (*http.Response, context.CancelFunc, error) {
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if t := c.timeout(); t > 0 {
		ctx, cancel = context.WithTimeout(ctx, t)
	}
	if _, ok := body.(io.Closer); ok {
		// The caller owns the body, and a retry rewinds and resends it:
		// the transport, which closes a request body that is an
		// io.Closer, must not close the caller's file. Feed chunks are
		// *bytes.Readers, which are not, and keep their Content-Length.
		body = struct{ io.Reader }{body}
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if c.Tenant != "" {
		req.Header.Set(DefaultTenantHeader, c.Tenant)
	}
	if c.TraceKey != "" {
		req.Header.Set(RouterTraceHeader, c.TraceKey)
	}
	if seq >= 0 {
		req.Header.Set(ChunkSeqHeader, strconv.FormatInt(seq, 10))
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	return resp, cancel, nil
}

// do sends a request with retries. body may be nil or an io.ReadSeeker
// (rewound before each retry); any other reader disables retries after
// the first byte is gone. The returned response's Body must be closed by
// the caller; closing it releases the attempt's timeout.
func (c *Client) do(method, url, contentType string, body io.Reader, seq int64) (*http.Response, error) {
	seeker, rewindable := body.(io.ReadSeeker)
	if body == nil {
		rewindable = true
	}
	retries := c.maxRetries()
	if !rewindable {
		retries = 0
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 && seeker != nil {
			if _, err := seeker.Seek(0, io.SeekStart); err != nil {
				return nil, fmt.Errorf("remote: rewinding request body for retry: %w", err)
			}
		}
		resp, cancel, err := c.attempt(method, url, contentType, body, seq)
		if err == nil && !retryableStatus(resp.StatusCode) {
			return closeCancelBody{resp: resp, cancel: cancel}.wrap(), nil
		}
		var wait time.Duration
		if err != nil {
			lastErr = err
		} else {
			lastErr = remoteError(resp)
			wait = retryAfter(resp)
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			cancel()
		}
		if attempt >= retries {
			return nil, lastErr
		}
		// Peek at the router's ring epoch between attempts: a bumped epoch
		// means the topology changed under us and the next attempt already
		// routes around the failure, so the wait stays short.
		c.refreshRing()
		if b := c.backoff(attempt, nil); b > wait {
			wait = b
		}
		time.Sleep(wait)
	}
}

// closeCancelBody ties an attempt's timeout cancel to the response body:
// the deadline must outlive c.do (the caller still reads the body) and
// must be released when the caller is done.
type closeCancelBody struct {
	resp   *http.Response
	cancel context.CancelFunc
}

func (b closeCancelBody) wrap() *http.Response {
	b.resp.Body = &cancelOnClose{ReadCloser: b.resp.Body, cancel: b.cancel}
	return b.resp
}

type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (c *cancelOnClose) Close() error {
	err := c.ReadCloser.Close()
	c.cancel()
	return err
}

// RingEpoch reports the router's last-seen ring epoch (0 before any
// refresh). The epoch bumps on every backend health transition, so a
// changed value between calls means the topology moved.
func (c *Client) RingEpoch() uint64 {
	c.ringMu.Lock()
	defer c.ringMu.Unlock()
	return c.ringEpoch
}

// refreshRing polls BaseURL's /metrics for the ring epoch and healthy
// backend set. Errors are swallowed: the ring cache is an optimization
// (plain backends have no ring and that is fine).
func (c *Client) refreshRing() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/metrics"), nil)
	if err != nil {
		return
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var m struct {
		RouterMetricsSnapshot
		// RingEpoch shadows the embedded field with a pointer for
		// presence detection: a plain backend's /metrics has no
		// ring_epoch key, and its document must not clobber the cache.
		RingEpoch *uint64 `json:"ring_epoch"`
	}
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&m) != nil || m.RingEpoch == nil {
		return
	}
	var healthy []string
	for name, b := range m.Backends {
		if b.Healthy {
			healthy = append(healthy, name)
		}
	}
	sort.Strings(healthy)
	c.ringMu.Lock()
	c.ringEpoch, c.ringBackends = *m.RingEpoch, healthy
	c.ringMu.Unlock()
}

// fallbackBackends returns the cached healthy backends — the direct
// targets of last resort when the router stops answering.
func (c *Client) fallbackBackends() []string {
	c.ringMu.Lock()
	defer c.ringMu.Unlock()
	return append([]string(nil), c.ringBackends...)
}

// remoteError decodes the service's {"error": ...} body into an error.
func remoteError(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	// Reading consumed the body; callers that retry re-read via rewind.
	resp.Body = io.NopCloser(bytes.NewReader(body))
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("remote: %s (HTTP %d)", e.Error, resp.StatusCode)
	}
	return fmt.Errorf("remote: HTTP %d", resp.StatusCode)
}

// Check streams one whole trace (STD or binary; the server sniffs) to
// POST /v1/check and returns the Report. An unset o.Algorithm leaves the
// server's default; a non-default o.Analyses adds per-analysis verdicts
// in Report.Analyses. Pass an io.ReadSeeker (a *os.File or *bytes.Reader)
// to make the request retryable.
func (c *Client) Check(r io.Reader, o aerodrome.Options) (*aerodrome.Report, error) {
	resp, err := c.do(http.MethodPost, c.url("/v1/check"+optionsQuery(o)), "application/octet-stream", r, -1)
	if err != nil {
		// Router gone? A one-shot check is stateless, so any healthy
		// backend from the last-seen ring can serve it directly.
		seeker, ok := r.(io.ReadSeeker)
		if !ok {
			return nil, err
		}
		for _, backend := range c.fallbackBackends() {
			if _, serr := seeker.Seek(0, io.SeekStart); serr != nil {
				return nil, err
			}
			direct := &Client{BaseURL: backend, Tenant: c.Tenant, TraceKey: c.TraceKey,
				HTTPClient: c.HTTPClient, Timeout: c.Timeout, MaxRetries: -1}
			if rep, derr := direct.Check(seeker, o); derr == nil {
				return rep, nil
			}
		}
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, remoteError(resp)
	}
	var rep aerodrome.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, fmt.Errorf("remote: decoding report: %w", err)
	}
	return &rep, nil
}

// Session is a remote incremental session. Feed chunks are numbered with
// strictly increasing sequence numbers, so retried feeds are answered
// from the server's idempotency cache instead of being applied twice.
type Session struct {
	c   *Client
	ID  string
	seq atomic.Int64
}

// NewSession opens an incremental session running o. An unset
// o.Algorithm leaves the server's default.
func (c *Client) NewSession(o aerodrome.Options) (*Session, error) {
	resp, err := c.do(http.MethodPost, c.url("/v1/sessions"+optionsQuery(o)), "application/json", nil, -1)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return nil, remoteError(resp)
	}
	var v SessionView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, fmt.Errorf("remote: decoding session: %w", err)
	}
	s := &Session{c: c, ID: v.ID}
	s.seq.Store(-1)
	return s, nil
}

// Feed posts one STD chunk and returns the post-chunk snapshot.
func (s *Session) Feed(chunk []byte) (*SessionView, error) {
	seq := s.seq.Add(1)
	resp, err := s.c.do(http.MethodPost,
		s.c.url("/v1/sessions/"+s.ID+"/events"), "text/plain", bytes.NewReader(chunk), seq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusBadRequest, http.StatusConflict:
		// All three carry a SessionView body: 400 = this chunk failed the
		// session, 409 = the session had already failed (or, behind a
		// router, is unrecoverable — that one has no view and decodes to
		// an error below).
	default:
		return nil, remoteError(resp)
	}
	var v SessionView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, fmt.Errorf("remote: decoding snapshot: %w", err)
	}
	if v.ID == "" && resp.StatusCode == http.StatusConflict {
		return nil, fmt.Errorf("remote: session lost (HTTP 409)")
	}
	if v.State == stateFailed {
		return &v, fmt.Errorf("remote: session failed: %s", v.Error)
	}
	return &v, nil
}

// Close finalizes the session and returns the final Report.
func (s *Session) Close() (*aerodrome.Report, error) {
	resp, err := s.c.do(http.MethodDelete, s.c.url("/v1/sessions/"+s.ID), "", nil, -1)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, remoteError(resp)
	}
	var rep aerodrome.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, fmt.Errorf("remote: decoding report: %w", err)
	}
	return &rep, nil
}
