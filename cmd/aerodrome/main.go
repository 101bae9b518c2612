// Command aerodrome checks a concurrent-program trace log for conflict
// serializability (atomicity) violations using the AeroDrome vector-clock
// algorithm (or, via -algo, any of the other checkers in this repository).
//
// Usage:
//
//	aerodrome [-algo optimized] [-format std] [-stats] [trace-file]
//	aerodrome [-algo optimized] -parallel N trace-file...
//	aerodrome [-algo optimized] -serve :8421
//	aerodrome [-algo A] -remote http://host:8421 [-incremental] [trace-file]
//
// With no file argument the trace is read from standard input. A local
// check parses on one goroutine and checks on another (internal/pipeline),
// with the verdict, violation index and event count of a sequential
// check; -pipeline is still accepted and changes nothing. -parallel N
// checks several trace files concurrently, one engine per trace, on N
// workers (N < 0 selects one per CPU; the format of each file is
// sniffed). -stats adds introspection lines after the check — the epoch
// fast-path hit rate, GC'd transaction ends and deferred and skipped joins
// behind the verdict (aerodrome engines only), then the parse and check
// stage times. The exit code is 0 when every trace is conflict
// serializable, 1 when a violation was found, and 2 on usage or input
// errors.
//
// -algo names one of basic, readopt, optimized, velodrome, velodrome-pk
// and doublechecker. aerodrome, auto, hybrid and treeclock are aliases of
// optimized: the last three once chose other clock representations and
// stay accepted so existing scripts keep working.
//
// -serve runs the aerodromed service in-process on the given address
// (equivalent to the aerodromed command with default limits; -algo sets
// the server's default algorithm). -remote streams the trace to a running
// aerodromed instead of checking locally: same output, same exit codes,
// the format is sniffed by the server. Remote requests run under
// per-attempt timeouts (-timeout) and are retried with backoff (-retries)
// on transport errors and retryable statuses, honoring Retry-After.
//
// -remote -incremental replays the trace through the session API in
// -chunk-bytes chunks instead of one POST — the mode that exercises (and
// survives) the router's journaled session failover. If the session is
// lost beyond recovery (HTTP 409: the replay journal was truncated or the
// chunk sequence gapped; HTTP 404: the session vanished with its router),
// the client re-opens a fresh session and replays the file from the
// start, up to three times.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"aerodrome"
	"aerodrome/internal/core"
	"aerodrome/internal/doublechecker"
	"aerodrome/internal/pipeline"
	"aerodrome/internal/race"
	"aerodrome/internal/rapidio"
	"aerodrome/internal/server"
	"aerodrome/internal/trace"
	"aerodrome/internal/velodrome"
)

// newEngine builds the engine of an -algo name run has already validated.
func newEngine(algo string) core.Engine {
	switch normalizeAlgo(algo) {
	case "basic":
		return core.NewBasic()
	case "readopt":
		return core.NewReadOpt()
	case "optimized", "":
		return core.NewOptimized()
	case "velodrome":
		return velodrome.New()
	case "velodrome-pk":
		return velodrome.New(velodrome.WithStrategy("pearce-kelly"))
	case "doublechecker":
		return doublechecker.New(0)
	}
	panic("aerodrome: unvalidated algorithm " + algo)
}

func openSource(path, format string) (pipeline.BatchSource, func() error, error) {
	var r io.Reader = os.Stdin
	closer := func() error { return nil }
	if path != "" && path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		r = f
		closer = f.Close
	}
	switch format {
	case "std", "":
		return rapidio.NewReader(r), closer, nil
	case "bin":
		return rapidio.NewBinaryReader(r), closer, nil
	}
	return nil, nil, fmt.Errorf("unknown format %q (want std or bin)", format)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aerodrome", flag.ContinueOnError)
	fs.SetOutput(stderr)
	algo := fs.String("algo", "optimized", "checking algorithm: basic, readopt, optimized, velodrome, velodrome-pk, doublechecker (aerodrome, auto, hybrid and treeclock are aliases of optimized)")
	analysesFlag := fs.String("analyses", "", "analysis set over the same event stream: comma-separated from atomicity, hbrace (default atomicity); hbrace adds happens-before data-race detection")
	format := fs.String("format", "std", "trace format: std (RAPID text) or bin (compact binary)")
	quiet := fs.Bool("q", false, "suppress everything except the verdict line")
	fs.Bool("pipeline", false, "no effect, kept so existing scripts work: every local check parses and checks on separate goroutines")
	stats := fs.Bool("stats", false, "print engine introspection counters (epoch fast-path hit rate, GC'd ends, deferred and skipped joins; aerodrome engines only) and the parse and check stage times after the check")
	parallel := fs.Int("parallel", 0, "check multiple trace files concurrently on this many workers (<0 = one per CPU); sniffs each file's format (-format and -q are ignored)")
	serve := fs.String("serve", "", "run the aerodromed service on this address instead of checking a trace (-algo sets the server's default algorithm)")
	remote := fs.String("remote", "", "stream the trace to a running aerodromed at this base URL instead of checking locally (the server's default algorithm applies unless -algo is set)")
	tenant := fs.String("tenant", "", "tenant name sent with -remote requests (the server's quota and metrics bucket)")
	traceKey := fs.String("trace", "", "trace routing key sent with -remote requests (pins the request to one backend behind a shard router)")
	incremental := fs.Bool("incremental", false, "with -remote: replay the trace through the incremental session API in -chunk-bytes chunks")
	chunkBytes := fs.Int("chunk-bytes", 64<<10, "with -remote -incremental: feed chunk size in bytes")
	timeout := fs.Duration("timeout", 0, "with -remote: per-attempt request timeout (0 = default 30s, negative = none)")
	retries := fs.Int("retries", 0, "with -remote: retry attempts for failed requests (0 = default 4, negative = none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Validate -analyses and -algo up front, in every mode: an unknown name
	// is a usage error here, never silently dropped or deferred to a local
	// engine, a listener or a remote server to notice.
	analysisSet, err := aerodrome.ParseAnalyses(*analysesFlag)
	if err == nil {
		err = aerodrome.Options{Algorithm: aerodrome.Algorithm(normalizeAlgo(*algo)), Analyses: analysisSet}.Validate()
	}
	if err != nil {
		fmt.Fprintln(stderr, err) // the library error carries the aerodrome: prefix
		return 2
	}
	// The flag default "optimized" is the local-check default; -remote
	// must be able to tell "unset" from an explicit choice, so the remote
	// server's configured default is not silently overridden.
	algoSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "algo" {
			algoSet = true
		}
	})
	multiAnalyses := !(len(analysisSet) == 1 && analysisSet[0] == aerodrome.AnalysisAtomicity)
	if *serve != "" {
		if fs.NArg() > 0 {
			fmt.Fprintln(stderr, "usage: aerodrome -serve ADDR takes no trace-file arguments")
			return 2
		}
		if multiAnalyses {
			fmt.Fprintln(stderr, "aerodrome: -serve has no default analysis set; clients declare analyses per request")
			return 2
		}
		return runServe(*serve, *algo, stderr)
	}
	if *remote != "" {
		if !algoSet {
			*algo = "" // let the server apply its configured default
		}
		var remoteSet []aerodrome.AnalysisKind
		if *analysesFlag != "" {
			remoteSet = analysisSet // else the server's default set
		}
		return runRemote(remoteOpts{
			baseURL: *remote, algo: *algo, analyses: remoteSet, tenant: *tenant,
			traceKey: *traceKey, incremental: *incremental, chunkBytes: *chunkBytes,
			timeout: *timeout, retries: *retries, quiet: *quiet,
		}, fs.Args(), stdout, stderr)
	}
	if *parallel != 0 {
		if multiAnalyses {
			fmt.Fprintln(stderr, "aerodrome: -parallel runs the atomicity analysis only")
			return 2
		}
		return runParallel(fs.Args(), *algo, *parallel, stdout, stderr)
	}
	if fs.NArg() > 1 {
		fmt.Fprintln(stderr, "usage: aerodrome [-algo A] [-format F] [trace-file], or aerodrome -parallel N trace-file...")
		return 2
	}

	// The hbrace analysis rides the same event stream as the atomicity
	// engine — one parse, two verdicts.
	an := pipeline.Analyses{Engine: newEngine(*algo)}
	var det *race.Detector
	for _, k := range analysisSet {
		if k == aerodrome.AnalysisHBRace {
			det = race.New()
			an.Extra = append(an.Extra, detectorSink{det})
		}
	}
	src, closeSrc, err := openSource(fs.Arg(0), *format)
	if err != nil {
		fmt.Fprintln(stderr, "aerodrome:", err)
		return 2
	}
	defer closeSrc()

	start := time.Now()
	var stages pipeline.StageStats
	v, n, err := pipeline.RunMulti(an, src, pipeline.Config{Stats: &stages})
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintln(stderr, "aerodrome:", err)
		return 2
	}

	if !*quiet {
		fmt.Fprintf(stdout, "algorithm: %s\nevents:    %d\ntime:      %v\n", an.Engine.Name(), n, elapsed)
	}
	if *stats {
		// An explicit -stats request prints even under -q.
		printEngineStats(stdout, an.Engine)
		fmt.Fprintf(stdout, "stages:    parse %v, check %v\n", stages.ParseTime(), stages.CheckTime())
	}
	code := 0
	if v != nil {
		fmt.Fprintf(stdout, "result: NOT conflict serializable — %v\n", v)
		code = 1
	} else {
		fmt.Fprintf(stdout, "result: conflict serializable (no atomicity violation)\n")
	}
	if det != nil {
		if rv := det.Violation(); rv != nil {
			fmt.Fprintf(stdout, "hbrace: data race — %v (%d events)\n", rv, det.Processed())
			code = 1
		} else {
			fmt.Fprintf(stdout, "hbrace: race free (%d events)\n", det.Processed())
		}
	}
	return code
}

// detectorSink adapts the race detector to the pipeline's Sink surface.
type detectorSink struct{ d *race.Detector }

func (s detectorSink) Process(e trace.Event) { s.d.Process(e) }
func (s detectorSink) Done() bool            { return s.d.Violation() != nil }

// printEngineStats renders the engine's introspection counters on one
// line. Engines without counters (velodrome, doublechecker) print a note
// instead of silence, so -stats never looks like it was ignored.
func printEngineStats(w io.Writer, eng core.Engine) {
	r, ok := eng.(core.StatsReporter)
	if !ok {
		fmt.Fprintf(w, "engine:    %s reports no introspection counters\n", eng.Name())
		return
	}
	s := r.Stats()
	checks := s.EpochHits + s.EpochMisses
	rate := 0.0
	if checks > 0 {
		rate = 100 * float64(s.EpochHits) / float64(checks)
	}
	fmt.Fprintf(w, "engine:    epoch %d/%d hits (%.1f%%), ends %d full / %d collected, flushes %d deferred / %d settled, joins %d skipped, promotions %d sparse\n",
		s.EpochHits, checks, rate, s.EndsFull, s.EndsCollected,
		s.FlushesDeferred, s.FlushesSettled, s.JoinsSkipped, s.SparsePromotions)
}

// normalizeAlgo resolves the aliases of "optimized" — the CLI's own
// "aerodrome", and "auto", "hybrid" and "treeclock", the names of removed
// clock representations — to the canonical engine name, in one place for
// every front-end mode. The empty string passes through: it means
// "caller's default" (the public API and the remote server each resolve
// it themselves).
func normalizeAlgo(algo string) string {
	switch algo {
	case "aerodrome", "auto", "hybrid", "treeclock":
		return "optimized"
	}
	return algo
}

// runServe fronts the aerodromed daemon from the main CLI: same service,
// default limits, same default engine as aerodromed.
// It blocks until SIGINT or SIGTERM, then drains gracefully.
func runServe(addr, algo string, stderr io.Writer) int {
	algo = normalizeAlgo(algo)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := server.RunDaemon(ctx, server.DaemonConfig{
		Addr:   addr,
		Server: server.Config{Algorithm: aerodrome.Algorithm(algo)},
		Log:    stderr,
	})
	if err != nil {
		fmt.Fprintln(stderr, "aerodrome:", err)
		return 2
	}
	return 0
}

// remoteOpts bundles the -remote mode's knobs.
type remoteOpts struct {
	baseURL, algo, tenant, traceKey string
	analyses                        []aerodrome.AnalysisKind // nil: the server's default set
	incremental                     bool
	chunkBytes                      int
	timeout                         time.Duration
	retries                         int
	quiet                           bool
}

// runRemote streams one trace (file or stdin) to a running aerodromed (or
// shard router) and renders the report exactly like a local check.
func runRemote(opts remoteOpts, args []string, stdout, stderr io.Writer) int {
	if len(args) > 1 {
		fmt.Fprintln(stderr, "usage: aerodrome -remote URL [trace-file]")
		return 2
	}
	var r io.Reader = os.Stdin
	if len(args) == 1 && args[0] != "-" {
		f, err := os.Open(args[0])
		if err != nil {
			fmt.Fprintln(stderr, "aerodrome:", err)
			return 2
		}
		defer f.Close()
		r = f
	}
	o := aerodrome.Options{Algorithm: aerodrome.Algorithm(normalizeAlgo(opts.algo)), Analyses: opts.analyses}
	client := &server.Client{
		BaseURL: opts.baseURL, Tenant: opts.tenant, TraceKey: opts.traceKey,
		Timeout: opts.timeout, MaxRetries: opts.retries,
	}
	start := time.Now()
	var rep *aerodrome.Report
	var err error
	if opts.incremental {
		rep, err = remoteIncremental(client, r, o, opts.chunkBytes)
	} else {
		rep, err = client.Check(r, o)
	}
	if err != nil {
		fmt.Fprintln(stderr, "aerodrome:", err)
		return 2
	}
	if !opts.quiet {
		fmt.Fprintf(stdout, "algorithm: %s\nevents:    %d\ntime:      %v (remote)\n",
			rep.Algorithm, rep.Events, time.Since(start))
	}
	code := 0
	if !rep.Serializable {
		fmt.Fprintf(stdout, "result: NOT conflict serializable — %v\n", rep.Violation)
		code = 1
	} else {
		fmt.Fprintf(stdout, "result: conflict serializable (no atomicity violation)\n")
	}
	for _, ar := range rep.Analyses {
		if ar.Analysis == string(aerodrome.AnalysisAtomicity) {
			continue // rendered by the legacy result line above
		}
		if !ar.Clean {
			fmt.Fprintf(stdout, "%s: violation — %v (%d events)\n", ar.Analysis, ar.Violation, ar.Events)
			code = 1
		} else {
			fmt.Fprintf(stdout, "%s: clean (%d events)\n", ar.Analysis, ar.Events)
		}
	}
	return code
}

// remoteIncremental replays the trace through the session API chunk by
// chunk. Behind a fault-tolerant router a backend death is invisible here
// (the journal replays on another backend); only the unrecoverable 409 —
// journal truncated past the replay horizon — surfaces, and then the
// whole trace is replayed into a fresh session, which is exact because
// the checker is a deterministic single pass. Restart needs the trace
// bytes again, so stdin input is only retried when it fit in memory — a
// file is rewound with Seek.
func remoteIncremental(client *server.Client, r io.Reader, o aerodrome.Options, chunkBytes int) (*aerodrome.Report, error) {
	if chunkBytes <= 0 {
		chunkBytes = 64 << 10
	}
	seeker, rewindable := r.(io.ReadSeeker)
	if !rewindable {
		data, err := io.ReadAll(r)
		if err != nil {
			return nil, err
		}
		seeker = bytes.NewReader(data)
	}
	const maxRestarts = 3
	var lastErr error
	for restart := 0; restart <= maxRestarts; restart++ {
		if _, err := seeker.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		rep, err := feedSession(client, seeker, o, chunkBytes)
		if err == nil {
			return rep, nil
		}
		lastErr = err
		// 409: affinity or replay horizon lost, or a chunk-sequence gap —
		// the session's server-side state can no longer be trusted. 404:
		// the session vanished outright (e.g. a restarted router re-derived
		// a placement on a backend that never held it). Both are recovered
		// the same way: a fresh session and a full replay.
		if !strings.Contains(err.Error(), "HTTP 409") && !strings.Contains(err.Error(), "HTTP 404") {
			return nil, err
		}
		time.Sleep(time.Duration(restart+1) * 200 * time.Millisecond)
	}
	return nil, fmt.Errorf("session lost %d times, giving up: %w", maxRestarts+1, lastErr)
}

// feedSession drives one session: create, feed chunks, finalize.
func feedSession(client *server.Client, r io.Reader, o aerodrome.Options, chunkBytes int) (*aerodrome.Report, error) {
	sess, err := client.NewSession(o)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, chunkBytes)
	for {
		n, rerr := io.ReadFull(r, buf)
		if n > 0 {
			if _, err := sess.Feed(buf[:n]); err != nil {
				sess.Close()
				return nil, err
			}
		}
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			break
		}
		if rerr != nil {
			sess.Close()
			return nil, rerr
		}
	}
	return sess.Close()
}

// runParallel checks every file argument concurrently (one engine and one
// parse/check pipeline per trace) and prints one verdict line per file, in
// input order.
func runParallel(paths []string, algo string, workers int, stdout, stderr io.Writer) int {
	if len(paths) == 0 {
		fmt.Fprintln(stderr, "usage: aerodrome -parallel N trace-file...")
		return 2
	}
	algo = normalizeAlgo(algo)
	reports, err := aerodrome.CheckFilesParallel(paths, aerodrome.Algorithm(algo), workers)
	if err != nil {
		fmt.Fprintln(stderr, "aerodrome:", err)
		return 2
	}
	code := 0
	for _, fr := range reports {
		switch {
		case fr.Err != nil:
			// FileReport errors are typed *aerodrome.FileError carrying the
			// path; unwrap so the path prints once.
			msg := fr.Err.Error()
			var fe *aerodrome.FileError
			if errors.As(fr.Err, &fe) {
				msg = fe.Err.Error()
			}
			fmt.Fprintf(stdout, "%s: error: %s\n", fr.Path, msg)
			code = 2
		case !fr.Report.Serializable:
			fmt.Fprintf(stdout, "%s: NOT conflict serializable — %v\n", fr.Path, fr.Report.Violation)
			if code == 0 {
				code = 1
			}
		default:
			fmt.Fprintf(stdout, "%s: conflict serializable (%d events, %s)\n",
				fr.Path, fr.Report.Events, fr.Report.Algorithm)
		}
	}
	return code
}
