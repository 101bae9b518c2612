// Package server implements aerodromed, the multi-session streaming
// atomicity-checking service: a stdlib-only HTTP front end over the
// repository's checking layers. The paper's algorithm is a single-pass,
// bounded-memory sweep, so a server can multiplex many concurrent trace
// streams — each request (or session) is one independent engine driven by
// the ingestion pipeline.
//
// Endpoints:
//
//	POST /v1/check                 whole trace in (STD or binary, sniffed),
//	                               JSON Report out; parsing is pipelined
//	                               against checking per request
//	POST /v1/sessions              open an incremental session
//	POST /v1/sessions/{id}/events  feed one STD chunk, snapshot out
//	GET  /v1/sessions/{id}         session snapshot
//	DELETE /v1/sessions/{id}       finalize, final Report out
//	GET  /healthz                  liveness (503 while draining)
//	GET  /metrics                  expvar-style JSON counters
//
// Resource management: at most MaxSessions concurrent sessions and
// MaxConcurrentChecks concurrent one-shot checks — over-admission is
// rejected (429/503, Retry-After) rather than queued; request bodies are
// bounded by MaxBodyBytes; idle sessions are evicted after SessionTTL;
// SetDraining flips healthz and new admissions for a graceful drain, while
// in-flight work completes under http.Server.Shutdown.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aerodrome"
)

// Config tunes the server. The zero value selects the defaults.
type Config struct {
	// Algorithm is the default checking algorithm for requests that do not
	// name one. Defaults to aerodrome.Optimized, the paper's Algorithm 3.
	Algorithm aerodrome.Algorithm
	// MaxSessions caps concurrent incremental sessions (default 1024);
	// session creation beyond it is answered 429.
	MaxSessions int
	// MaxConcurrentChecks caps concurrent /v1/check requests (default
	// 2×GOMAXPROCS); checks beyond it are answered 503. Each check runs a
	// two-goroutine pipeline, so the default keeps the box saturated
	// without queueing unboundedly behind the scheduler.
	MaxConcurrentChecks int
	// MaxBodyBytes bounds one request body — a whole trace for /v1/check,
	// one chunk for session feeds (default 64 MiB).
	MaxBodyBytes int64
	// SessionTTL evicts sessions idle longer than this (default 5m).
	SessionTTL time.Duration
	// BodyReadTimeout bounds each read of a request body (default 30s).
	// A whole-request timeout would kill legitimate slow trace streams;
	// a per-read deadline only requires the client to keep making
	// progress, so a stalled upload cannot pin a session lock or an
	// admission slot indefinitely.
	BodyReadTimeout time.Duration
	// TenantQuota is the admission budget applied to every tenant (the
	// zero value disables per-tenant admission; the global caps above
	// always apply).
	TenantQuota TenantQuota
	// TenantQuotas overrides TenantQuota for specific tenant names.
	TenantQuotas map[string]TenantQuota
	// MaxTenants bounds the tenant table (default 4096): the tenant header
	// is client-supplied, so names beyond the cap share one overflow
	// budget instead of growing state without bound.
	MaxTenants int
	// Logger receives structured access and lifecycle logs. Nil (the
	// default for embedders and tests) discards them; the daemon wires
	// its -log-level flag here.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Algorithm == "" {
		c.Algorithm = aerodrome.Optimized
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.MaxConcurrentChecks <= 0 {
		c.MaxConcurrentChecks = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 5 * time.Minute
	}
	if c.BodyReadTimeout <= 0 {
		c.BodyReadTimeout = 30 * time.Second
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 4096
	}
	return c
}

// Server is the aerodromed HTTP handler plus its session table, admission
// semaphore and metrics. Create with New, serve with any http.Server, stop
// with Close.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	checkSem chan struct{}
	metrics  *metrics
	logger   *slog.Logger
	draining atomic.Bool

	mu       sync.Mutex
	sessions map[string]*session
	closed   bool

	// finalized caches each DELETE's exact response bytes for a short
	// window (see finalizedTTL in session.go), making finalize idempotent:
	// a retried DELETE — a client that lost the response, or a router
	// re-sending after a connection fault — replays the report instead of
	// getting a 404 that reads as a lost session.
	finalMu   sync.Mutex
	finalized map[string]finalizedReport

	tenantMu sync.Mutex
	tenants  map[string]*tenant

	stop     chan struct{}
	stopOnce sync.Once
}

// New validates cfg and returns a ready-to-serve Server.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	// Fail fast on an unknown default algorithm rather than per request.
	if err := (aerodrome.Options{Algorithm: cfg.Algorithm}).Validate(); err != nil {
		return nil, err
	}
	logger := cfg.Logger
	if logger == nil {
		logger = newLogger(nil, 0)
	}
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		checkSem:  make(chan struct{}, cfg.MaxConcurrentChecks),
		metrics:   newMetrics(),
		logger:    logger,
		sessions:  map[string]*session{},
		finalized: map[string]finalizedReport{},
		tenants:   map[string]*tenant{},
		stop:      make(chan struct{}),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/check", s.handleCheck)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("POST /v1/sessions/{id}/events", s.handleSessionEvents)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	go s.janitor(cfg.SessionTTL)
	return s, nil
}

// ServeHTTP implements http.Handler. Every request gets a correlation
// ID (RequestIDHeader, generated here when the client — or an upstream
// router — did not supply one), echoed in the response and carried on
// the structured access log line.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	serveLogged(s.logger, s.mux, w, r)
}

// SetDraining flips drain mode: healthz answers 503 (so load balancers
// stop routing here) and new sessions and checks are rejected, while
// requests already admitted run to completion. The daemon calls this on
// SIGTERM before http.Server.Shutdown.
func (s *Server) SetDraining(v bool) {
	s.draining.Store(v)
}

// Close stops the janitor and finalizes every remaining session. It does
// not interrupt in-flight handlers — drain those first via
// http.Server.Shutdown.
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.mu.Lock()
	s.closed = true
	remaining := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		remaining = append(remaining, sess)
	}
	s.sessions = map[string]*session{}
	s.mu.Unlock()
	for _, sess := range remaining {
		s.finalizeSession(sess, &s.metrics.sessionsClosed)
		s.metrics.sessionsActive.Add(-1)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleCheck is POST /v1/check: one whole trace in, one Report out,
// through aerodrome.Check (the body format is sniffed, and parsing
// overlaps checking).
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	// A request naming an unknown algorithm or analysis is rejected before
	// admission: it takes no slot, no byte budget and no check count.
	opts, err := decodeOptions(r.URL.Query(), nil, s.cfg.Algorithm)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Tenant admission precedes the global semaphore so one over-quota
	// tenant cannot burn global slots on requests that were never going to
	// run.
	ten := s.tenant(r)
	release, ok := ten.admitCheck()
	if !ok {
		writeQuotaRejection(w, 0, "tenant check concurrency limit reached")
		return
	}
	defer release()
	select {
	case s.checkSem <- struct{}{}:
		defer func() { <-s.checkSem }()
	default:
		s.metrics.checksRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "check concurrency limit reached")
		return
	}
	s.metrics.checksActive.Add(1)
	defer s.metrics.checksActive.Add(-1)

	if r.ContentLength > s.cfg.MaxBodyBytes {
		// Reject declared-oversized bodies before parsing: once the
		// MaxBytesReader truncates mid-line, the parser reports the
		// truncated fragment and would mask the real cause.
		writeError(w, http.StatusRequestEntityTooLarge, "request body too large")
		return
	}
	// Declared body cost is debited from the tenant's byte budget before
	// any parsing; chunked bodies (unknown length) are debited as they
	// stream instead. A body larger than the bucket itself can never be
	// admitted, so it gets a terminal 413 rather than a 429 that would
	// send an obedient client into a retry loop.
	if ok, retry, never := ten.admitBytes(r.ContentLength); !ok {
		if never {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds tenant byte budget capacity")
			return
		}
		writeQuotaRejection(w, retry, "tenant byte budget exhausted")
		return
	}
	s.metrics.checksTotal.Add(1)
	ten.checksTotal.Add(1)
	// For chunked bodies the limit can only trip mid-stream; track it so
	// an oversized body maps to 413 even when a parse error in a line
	// before the cut surfaces first.
	limited := &limitTrackReader{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)}
	var raw io.Reader = limited
	if r.ContentLength < 0 {
		raw = &tenantBytesReader{r: limited, t: ten}
	}
	rep, cs, err := aerodrome.Check(s.bodyReader(w, raw), opts)
	if err != nil {
		var budget *errTenantBudget
		switch {
		case limited.tripped:
			writeError(w, http.StatusRequestEntityTooLarge, "request body too large")
		case errors.As(err, &budget):
			writeQuotaRejection(w, budget.retryAfter, "tenant byte budget exhausted")
		case errors.Is(err, os.ErrDeadlineExceeded):
			writeError(w, http.StatusRequestTimeout, "request body stalled")
		default:
			writeBodyError(w, err)
		}
		return
	}
	s.metrics.eventsTotal.Add(rep.Events)
	ten.eventsTotal.Add(rep.Events)
	if !rep.Serializable {
		s.metrics.violationsTotal.Add(1)
		ten.violationsTotal.Add(1)
	}
	s.metrics.countCheck(rep)
	s.metrics.selectEngine(rep.Algorithm)
	s.metrics.stageParse.Record(cs.ParseTime)
	s.metrics.stageCheck.Record(cs.CheckTime)
	if cs.HasEngineStats {
		s.metrics.addEngineStats(cs.Engine)
	}
	writeJSON(w, http.StatusOK, rep)
}

// decodeOptions is the one decoder from a request to the Options it asks
// for, shared by /v1/check, session create and the router: the query's
// `algo` and `analyses` (comma-separated), over the JSON body's
// {"algo","analyses"} when body is non-nil. The query wins. An unset
// algorithm is def. The returned Options are validated.
func decodeOptions(q url.Values, body io.Reader, def aerodrome.Algorithm) (aerodrome.Options, error) {
	var req struct {
		Algo     string   `json:"algo"`
		Analyses []string `json:"analyses"`
	}
	if body != nil {
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			return aerodrome.Options{}, fmt.Errorf("bad request body: %w", err)
		}
	}
	if a := q.Get("algo"); a != "" {
		req.Algo = a
	}
	if a := q.Get("analyses"); a != "" {
		req.Analyses = strings.Split(a, ",")
	}
	o := aerodrome.Options{Algorithm: aerodrome.Algorithm(req.Algo)}
	if o.Algorithm == "" {
		o.Algorithm = def
	}
	for _, name := range req.Analyses {
		if name = strings.TrimSpace(name); name != "" {
			o.Analyses = append(o.Analyses, aerodrome.AnalysisKind(name))
		}
	}
	return o, o.Validate()
}

// optionsQuery is decodeOptions' inverse: the query string, with its
// leading "?", that asks for o. algo is set only when named, analyses
// only for a non-empty set; "" when neither is.
func optionsQuery(o aerodrome.Options) string {
	q := url.Values{}
	if o.Algorithm != "" {
		q.Set("algo", string(o.Algorithm))
	}
	if len(o.Analyses) > 0 {
		names := make([]string, len(o.Analyses))
		for i, k := range o.Analyses {
			names[i] = string(k)
		}
		q.Set("analyses", strings.Join(names, ","))
	}
	if len(q) == 0 {
		return ""
	}
	return "?" + q.Encode()
}

// bodyReader wraps a request body so every read must progress within
// BodyReadTimeout (see deadlineReader).
func (s *Server) bodyReader(w http.ResponseWriter, r io.Reader) io.Reader {
	return &deadlineReader{rc: http.NewResponseController(w), r: r, d: s.cfg.BodyReadTimeout}
}

// deadlineReader arms a fresh read deadline before every Read: a client
// that keeps sending is never cut off, a stalled one fails with
// os.ErrDeadlineExceeded instead of pinning its handler (and whatever
// lock or admission slot that handler holds) forever.
type deadlineReader struct {
	rc *http.ResponseController
	r  io.Reader
	d  time.Duration
}

func (dr *deadlineReader) Read(p []byte) (int, error) {
	// SetReadDeadline errors (unsupported by the underlying conn, as in
	// some test harnesses) degrade to the old unbounded behavior.
	dr.rc.SetReadDeadline(time.Now().Add(dr.d))
	return dr.r.Read(p)
}

// limitTrackReader remembers whether the wrapped MaxBytesReader tripped.
// The trace decoder returns that read error as itself, but it parses the
// complete lines before the cut first, and a parse error among them must
// still be reported as the size-limit condition the body really is.
type limitTrackReader struct {
	r       io.Reader
	tripped bool
}

func (l *limitTrackReader) Read(p []byte) (int, error) {
	n, err := l.r.Read(p)
	if err != nil && isBodyTooLarge(err) {
		l.tripped = true
	}
	return n, err
}

func writeBodyError(w http.ResponseWriter, err error) {
	if isBodyTooLarge(err) {
		writeError(w, http.StatusRequestEntityTooLarge, err.Error())
		return
	}
	writeError(w, http.StatusBadRequest, err.Error())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
