package server

// Structured logging and request correlation for both daemon modes.
//
// Every request carries an ID in RequestIDHeader: generated at the edge
// (the first aerodromed process the request hits — normally the shard
// router) when the client did not supply one, echoed back in the
// response, and propagated verbatim on every hop the router makes on
// the request's behalf (proxied checks, session forwards). One grep for
// the ID across the router's and backends' logs reconstructs a
// request's whole path through a sharded topology.
//
// Log lines are log/slog text records. The level is configurable per
// daemon (-log-level); tests and embedders that pass no log writer get
// a discard logger, so the suites stay quiet by default.

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"
)

// RequestIDHeader carries the request correlation ID. The router (or a
// single backend, when it is the edge) generates one per request when
// the client did not send one; the same value is echoed in the response
// and forwarded on every backend hop.
const RequestIDHeader = "X-Aerodrome-Request-Id"

// newRequestID returns a fresh 16-hex-digit request ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("server: request id entropy: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// ensureRequestID returns the request's correlation ID, generating one
// and installing it on the request headers when absent — so downstream
// forwards (which clone the headers) propagate it automatically.
func ensureRequestID(r *http.Request) string {
	id := r.Header.Get(RequestIDHeader)
	if id == "" {
		id = newRequestID()
		r.Header.Set(RequestIDHeader, id)
	}
	return id
}

// ParseLogLevel maps a -log-level flag value (debug, info, warn, error;
// case-insensitive, empty = info) to its slog level.
func ParseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
}

// newLogger builds the shared structured logger: slog text records to w
// at the given level, or a discard logger when w is nil — the quiet
// default every test and library embedder gets.
func newLogger(w io.Writer, level slog.Level) *slog.Logger {
	if w == nil {
		w = io.Discard
	}
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}

// lockedWriter serializes the writes of several loggers sharing one
// writer.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// statusRecorder captures the response status for the access log. It
// implements Unwrap so http.NewResponseController still reaches the
// underlying connection's deadline controls through the wrapper.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(p)
}

// Unwrap exposes the underlying ResponseWriter to http.ResponseController.
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// accessLevel picks the log level for one access line: operational
// endpoints that probers and scrapers hit on a cadence log at debug so
// an Info-level daemon log stays readable.
func accessLevel(path string) slog.Level {
	if path == "/healthz" || path == "/metrics" {
		return slog.LevelDebug
	}
	return slog.LevelInfo
}

// serveLogged runs one request through next with request-ID correlation
// and one access-log line: the ID is ensured on the request (so
// forwards propagate it), echoed in the response header, and logged
// with method, path, status and duration.
func serveLogged(logger *slog.Logger, next http.Handler, w http.ResponseWriter, r *http.Request) {
	id := ensureRequestID(r)
	w.Header().Set(RequestIDHeader, id)
	rec := &statusRecorder{ResponseWriter: w}
	start := time.Now()
	next.ServeHTTP(rec, r)
	status := rec.status
	if status == 0 {
		status = http.StatusOK
	}
	logger.Log(r.Context(), accessLevel(r.URL.Path), "request",
		"id", id, "method", r.Method, "path", r.URL.Path,
		"status", status, "dur", time.Since(start))
}
