package server

// Daemon glue shared by cmd/aerodromed and `aerodrome -serve`: listen,
// serve, and on context cancellation drain gracefully — flip healthz to
// draining, stop admitting new work, let in-flight requests finish under
// the shutdown deadline, then finalize remaining sessions.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"aerodrome/internal/faultinject"
)

// DaemonConfig configures RunDaemon.
type DaemonConfig struct {
	// Addr is the listen address (default ":8421").
	Addr string
	// Server is the service configuration.
	Server Config
	// ShutdownTimeout bounds the graceful drain after cancellation
	// (default 10s); when exceeded, remaining connections are closed hard
	// and RunDaemon returns an error.
	ShutdownTimeout time.Duration
	// Log receives the daemon's structured log lines (default: discarded).
	Log io.Writer
	// LogLevel is the minimum level written to Log (default Info).
	LogLevel slog.Level
	// DebugAddr, when set, serves net/http/pprof on its own listener
	// (e.g. "127.0.0.1:6060") — deliberately never on the service
	// address, so profiling endpoints are reachable only where the
	// operator pointed them.
	DebugAddr string
	// Ready, when non-nil, receives the bound listen address once the
	// server is accepting (the tests and -addr :0 users read the actual
	// port from it).
	Ready chan<- string
	// Chaos, when non-nil, wraps the listener with fault injection — the
	// chaos harness's way of making this instance unreliable on purpose.
	Chaos *faultinject.Injector
}

// RunDaemon serves an aerodromed instance until ctx is cancelled, then
// drains. It returns nil after a clean drain, or the error that stopped
// the server.
func RunDaemon(ctx context.Context, cfg DaemonConfig) error {
	logger := newLogger(cfg.Log, cfg.LogLevel).With("component", "aerodromed")
	if cfg.Server.Logger == nil {
		cfg.Server.Logger = logger
	}
	s, err := New(cfg.Server)
	if err != nil {
		return err
	}
	defer s.Close()
	banner := fmt.Sprintf("(default algo %s)", s.cfg.Algorithm)
	if cfg.Chaos.Enabled() {
		banner += " [chaos " + cfg.Chaos.String() + "]"
	}
	return serveDrainable(ctx, s, serveOpts{
		addr:            cfg.Addr,
		shutdownTimeout: cfg.ShutdownTimeout,
		logger:          logger,
		debugAddr:       cfg.DebugAddr,
		ready:           cfg.Ready,
		banner:          banner,
		chaos:           cfg.Chaos,
	})
}

// RouterDaemonConfig configures RunRouterDaemon.
type RouterDaemonConfig struct {
	// Addr is the listen address (default ":8421").
	Addr string
	// Router is the shard-router configuration.
	Router RouterConfig
	// ShutdownTimeout bounds the graceful drain after cancellation
	// (default 10s).
	ShutdownTimeout time.Duration
	// Log receives the daemon's structured log lines (default: discarded).
	Log io.Writer
	// LogLevel is the minimum level written to Log (default Info).
	LogLevel slog.Level
	// DebugAddr, when set, serves net/http/pprof on its own listener.
	DebugAddr string
	// Ready, when non-nil, receives the bound listen address once the
	// router is accepting.
	Ready chan<- string
	// Chaos, when non-nil, wraps both the router's listener and its
	// backend transport with fault injection.
	Chaos *faultinject.Injector
}

// RunRouterDaemon serves a shard router until ctx is cancelled, then
// drains: new checks and sessions are rejected, proxied requests already
// in flight finish under the shutdown deadline, and the backends — which
// drain on their own SIGTERM — keep the session state.
func RunRouterDaemon(ctx context.Context, cfg RouterDaemonConfig) error {
	// The router and the serve loop each build a slog handler, and a
	// handler locks only its own writes: one lock around the shared
	// writer keeps the two from writing to it at once.
	if cfg.Log != nil {
		cfg.Log = &lockedWriter{w: cfg.Log}
	}
	rcfg := cfg.Router
	if rcfg.Log == nil {
		rcfg.Log = cfg.Log
		rcfg.LogLevel = cfg.LogLevel
	}
	if cfg.Chaos.Enabled() {
		rcfg.Transport = cfg.Chaos.WrapTransport(rcfg.Transport)
	}
	rt, err := NewRouter(rcfg)
	if err != nil {
		return err
	}
	defer rt.Close()
	banner := fmt.Sprintf("(routing %d backends)", len(rt.backends))
	if cfg.Chaos.Enabled() {
		banner += " [chaos " + cfg.Chaos.String() + "]"
	}
	return serveDrainable(ctx, rt, serveOpts{
		addr:            cfg.Addr,
		shutdownTimeout: cfg.ShutdownTimeout,
		logger:          newLogger(cfg.Log, cfg.LogLevel).With("component", "aerodromed-router"),
		debugAddr:       cfg.DebugAddr,
		ready:           cfg.Ready,
		banner:          banner,
		chaos:           cfg.Chaos,
	})
}

// drainable is what the daemon loop needs from a service: serve requests
// and flip into drain mode while http.Server.Shutdown runs them out.
type drainable interface {
	http.Handler
	SetDraining(bool)
}

// serveOpts parameterizes serveDrainable.
type serveOpts struct {
	addr            string
	shutdownTimeout time.Duration
	logger          *slog.Logger
	debugAddr       string
	ready           chan<- string
	banner          string
	chaos           *faultinject.Injector
}

// serveDebug binds the pprof listener and serves it until the returned
// stop func runs. The profiling mux is separate from the service mux on
// purpose: /debug/pprof on the public address would hand any client CPU
// profiles and heap dumps.
func serveDebug(addr string, logger *slog.Logger) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	// Worded "debug endpoint", not "listening on": scripts find the
	// service address by grepping the latter.
	logger.Info("debug endpoint on " + ln.Addr().String())
	go srv.Serve(ln)
	return func() { srv.Close() }, nil
}

// serveDrainable is the listen/serve/drain loop shared by the backend and
// router daemons.
func serveDrainable(ctx context.Context, h drainable, opts serveOpts) error {
	addr := opts.addr
	if addr == "" {
		addr = ":8421"
	}
	shutdownTimeout := opts.shutdownTimeout
	if shutdownTimeout <= 0 {
		shutdownTimeout = 10 * time.Second
	}
	logger := opts.logger
	if logger == nil {
		logger = newLogger(nil, 0)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if opts.debugAddr != "" {
		stop, derr := serveDebug(opts.debugAddr, logger)
		if derr != nil {
			ln.Close()
			return derr
		}
		defer stop()
	}
	// The chaos listener sits in front of the real one, so every accepted
	// connection — including health probes — can carry injected faults.
	wrapped := net.Listener(ln)
	if opts.chaos.Enabled() {
		wrapped = opts.chaos.WrapListener(ln)
	}
	// ReadHeaderTimeout/IdleTimeout reap slow-loris and abandoned keepalive
	// connections before they pin admission slots. There is deliberately no
	// whole-request ReadTimeout: a trace body streaming at producer speed
	// is the service's core use case and is bounded by MaxBodyBytes and
	// admission control instead.
	httpSrv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	logger.Info(fmt.Sprintf("listening on %s %s", ln.Addr(), opts.banner))
	if opts.ready != nil {
		opts.ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(wrapped) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	logger.Info("draining", "deadline", shutdownTimeout)
	h.SetDraining(true)
	sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		httpSrv.Close()
		return fmt.Errorf("drain deadline exceeded: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("drained cleanly")
	return nil
}
