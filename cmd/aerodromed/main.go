// Command aerodromed is the multi-session streaming atomicity-checking
// service: an HTTP daemon that accepts trace streams and returns
// conflict-serializability verdicts, multiplexing many concurrent checks
// over the AeroDrome single-pass vector-clock algorithm.
//
// Usage:
//
//	aerodromed [-addr :8421] [-algo optimized] [-max-sessions N]
//	           [-max-checks N] [-max-body BYTES] [-session-ttl D]
//	           [-tenant-sessions N] [-tenant-checks N] [-tenant-bytes-per-sec N]
//	           [-log-level info] [-debug-addr ADDR] [-shutdown-timeout D]
//	aerodromed -shard -backends URL,URL,... [-addr :8421]
//	           [-probe-interval D] [-probe-on-start] [-journal-mem BYTES]
//	           [-journal-max BYTES] [-journal-total BYTES] [-journal-spill DIR]
//	           [-log-level info] [-debug-addr ADDR] [-shutdown-timeout D]
//
// Endpoints: POST /v1/check (whole trace in, JSON report out; STD or
// binary format, sniffed), the incremental session API under
// /v1/sessions, GET /healthz and GET /metrics — expvar-style JSON by
// default (stage latency quantiles, engine introspection counters),
// Prometheus text exposition with ?format=prom. See the package
// documentation of aerodrome/internal/server for the wire format.
//
// Logs are structured (log/slog text) at -log-level (debug, info, warn,
// error); every request carries an X-Aerodrome-Request-Id — generated
// at the edge when absent, echoed in the response and propagated on
// every routed hop — on its access-log line. -debug-addr serves
// net/http/pprof on a separate listener (never the service address).
//
// The -tenant-* flags set the default per-tenant admission budget; the
// tenant is named by the X-Aerodrome-Tenant request header, and
// over-budget requests are rejected 429 + Retry-After, never queued.
//
// With -shard the daemon is a consistent-hash router instead of a
// checking backend: sessions and /v1/check requests are spread across the
// -backends aerodromed instances by the X-Aerodrome-Trace header (or
// ?trace=, or the tenant header), and backends are health-probed. The
// router journals every session chunk a backend acknowledged (bounded by
// the -journal-* flags); when a backend dies, its sessions fail over —
// recreated on the next ring point with the journal replayed — and only a
// session whose journal was truncated past the replay horizon answers a
// Retry-After-guarded 409. Every routed response carries
// X-Aerodrome-Backend.
//
// -chaos SPEC (or the AERODROME_CHAOS environment variable) enables
// seeded fault injection for the chaos harness: connection resets,
// partial writes, transport errors and latency, e.g.
// "reset=0.02,partial=0.01,error=0.05,latency=2ms@0.1,seed=7". Faults
// apply to this instance's own listener and, for -shard, to its backend
// transport. Never enable it in production.
//
// On SIGINT/SIGTERM the daemon drains: health flips to 503, new work is
// rejected, in-flight requests finish within -shutdown-timeout, then it
// exits 0. The exit code is 1 when serving or draining failed, 2 on usage
// errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"aerodrome"
	"aerodrome/internal/faultinject"
	"aerodrome/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr, nil))
}

// run is main with its wiring exposed: args in, logs out, and an optional
// ready channel that receives the bound address (tests listen on :0).
func run(args []string, logw io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("aerodromed", flag.ContinueOnError)
	fs.SetOutput(logw)
	addr := fs.String("addr", ":8421", "listen address")
	algo := fs.String("algo", "optimized", "default checking algorithm for requests that do not name one")
	maxSessions := fs.Int("max-sessions", 0, "max concurrent incremental sessions (0 = default 1024)")
	maxChecks := fs.Int("max-checks", 0, "max concurrent /v1/check requests (0 = default 2x GOMAXPROCS)")
	maxBody := fs.Int64("max-body", 0, "max request body bytes (0 = default 64 MiB)")
	sessionTTL := fs.Duration("session-ttl", 0, "evict sessions idle longer than this (0 = default 5m)")
	tenantSessions := fs.Int("tenant-sessions", 0, "per-tenant concurrent-session budget (0 = unlimited)")
	tenantChecks := fs.Int("tenant-checks", 0, "per-tenant concurrent-check budget (0 = unlimited)")
	tenantBytes := fs.Int64("tenant-bytes-per-sec", 0, "per-tenant sustained ingest budget in bytes/sec (0 = unlimited)")
	shard := fs.Bool("shard", false, "run as a consistent-hash router over -backends instead of a checking backend")
	backends := fs.String("backends", "", "comma-separated backend base URLs (required with -shard)")
	probeInterval := fs.Duration("probe-interval", 0, "router backend health-probe cadence (0 = default 500ms)")
	probeOnStart := fs.Bool("probe-on-start", false, "router: probe every backend once before serving (restart hygiene)")
	journalMem := fs.Int64("journal-mem", 0, "router: per-session in-memory journal cap in bytes (0 = default 256 KiB)")
	journalMax := fs.Int64("journal-max", 0, "router: per-session total journal cap in bytes (0 = default 4 MiB)")
	journalTotal := fs.Int64("journal-total", 0, "router: shared in-memory journal budget in bytes (0 = default 64 MiB)")
	journalSpill := fs.String("journal-spill", "", "router: directory for journal spill files (empty = no spill)")
	chaosSpec := fs.String("chaos", os.Getenv("AERODROME_CHAOS"),
		"fault-injection spec, e.g. reset=0.02,error=0.05,latency=2ms@0.1,seed=7 (testing only)")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "graceful drain deadline on SIGTERM")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(logw, "usage: aerodromed [flags]; aerodromed takes no arguments")
		return 2
	}
	chaosCfg, err := faultinject.ParseSpec(*chaosSpec)
	if err != nil {
		fmt.Fprintln(logw, "aerodromed:", err)
		return 2
	}
	chaos := faultinject.New(chaosCfg)
	level, err := server.ParseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(logw, "aerodromed:", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *shard {
		if *backends == "" {
			fmt.Fprintln(logw, "aerodromed: -shard requires -backends URL,URL,...")
			return 2
		}
		var urls []string
		for _, u := range strings.Split(*backends, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		err := server.RunRouterDaemon(ctx, server.RouterDaemonConfig{
			Addr: *addr,
			Router: server.RouterConfig{
				Backends:          urls,
				ProbeInterval:     *probeInterval,
				ProbeOnStart:      *probeOnStart,
				JournalMemBytes:   *journalMem,
				JournalMaxBytes:   *journalMax,
				JournalTotalBytes: *journalTotal,
				JournalSpillDir:   *journalSpill,
			},
			ShutdownTimeout: *shutdownTimeout,
			Log:             logw,
			LogLevel:        level,
			DebugAddr:       *debugAddr,
			Ready:           ready,
			Chaos:           chaos,
		})
		if err != nil {
			fmt.Fprintln(logw, "aerodromed:", err)
			return 1
		}
		return 0
	}

	if *backends != "" {
		fmt.Fprintln(logw, "aerodromed: -backends requires -shard")
		return 2
	}
	if _, err := aerodrome.NewCheckerErr(aerodrome.Algorithm(*algo)); err != nil {
		fmt.Fprintln(logw, "aerodromed:", err)
		return 2
	}
	err = server.RunDaemon(ctx, server.DaemonConfig{
		Addr: *addr,
		Server: server.Config{
			Algorithm:           aerodrome.Algorithm(*algo),
			MaxSessions:         *maxSessions,
			MaxConcurrentChecks: *maxChecks,
			MaxBodyBytes:        *maxBody,
			SessionTTL:          *sessionTTL,
			TenantQuota: server.TenantQuota{
				MaxSessions:         *tenantSessions,
				MaxConcurrentChecks: *tenantChecks,
				BytesPerSec:         *tenantBytes,
			},
		},
		ShutdownTimeout: *shutdownTimeout,
		Log:             logw,
		LogLevel:        level,
		DebugAddr:       *debugAddr,
		Ready:           ready,
		Chaos:           chaos,
	})
	if err != nil {
		fmt.Fprintln(logw, "aerodromed:", err)
		return 1
	}
	return 0
}
