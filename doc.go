// Package aerodrome is a Go implementation of AeroDrome, the single-pass,
// linear-time vector-clock algorithm for detecting conflict-serializability
// (atomicity) violations in traces of concurrent programs, from
//
//	Umang Mathur and Mahesh Viswanathan.
//	"Atomicity Checking in Linear Time using Vector Clocks." ASPLOS 2020.
//
// The package also provides the Velodrome baseline (Flanagan–Freund–Yi,
// PLDI 2008), a DoubleChecker-style two-phase analysis, trace generation
// and I/O, and a harness regenerating the paper's evaluation
// (cmd/experiments).
//
// # Flat vector clocks and sublinear hot paths
//
// The evaluated engine (Algorithm 3, aerodrome.Optimized) runs on dense
// vector clocks (internal/vc), the representation the paper's Theorem 4
// bound is stated for: every operation is a tight O(width) loop, and each
// clock also keeps its nonzero-entry count and a mutation counter for the
// fast paths below. The ȒR_x accumulators are sparse (vc.Sparse,
// thread→time pairs that promote themselves to dense past a bench-swept
// threshold of 16 entries; see vc.PromoteThreshold). The engine keeps its
// per-event cost sublinear in thread count: an active-transaction registry
// replaces the all-thread update-set scans, per-thread released/dirty lock
// lists replace the end-event lock-table sweeps, and FastTrack-style epoch
// fast paths skip already-absorbed clock checks entirely.
// BENCH_baseline.json and BENCH_after.json at the repository root record
// ns/event and allocs/event on a thread-scaling grid (T ∈ {8, 64, 256}),
// produced by `experiments -run bench`; both files must come from the
// same machine session to be comparable.
//
// The end-of-transaction flushes are deferred: Algorithm 3's laziness
// carries on past the end event. A full-propagation end copies C_t once
// into a pooled, immutable snapshot. Every variable in its update sets
// then records a pending (owner, snapshot) pair instead of paying three
// O(width) joins. The represented 𝕎_x and ℝ_x are the stored
// clocks joined with the pending snapshot; the represented ȒR_x joins the
// snapshot zeroed at its owner. A later end by the same owner supersedes a
// pending snapshot without a join, because thread clocks only grow; a
// flush from a different owner settles (joins in) the old one first; a
// unary write that overwrites 𝕎_x drops it. Snapshots are reference
// counted and recycled through a per-engine free list.
//
// Before an O(width) join the engine asks in O(1) whether the target
// already holds the source. An outermost end ticks C_t(t) before it
// propagates, and each snapshot records its owner's component as its
// stamp, so snapshot s ⊑ C_u exactly when C_u(owner) ≥ stamp: only the
// owner raises its own component (at its begins and ends), a clock whose
// owner component reaches the stamp absorbed the owner's clock at or after
// the end that took s, and thread clocks only grow. The tick keeps every
// begin-stamp comparison's outcome, because the ticked value lies between
// the begin stamp and the next begin stamp. With that test a read or write
// consults 𝕎_x without settling it: the pending snapshot is joined straight
// into the reader's clock unless the stamp shows it is there already, and
// the stored 𝕎_x goes through the epoch fast path. A write settles ℝ_x
// only when its snapshot is not below the writer's clock, and skips the
// ℝ_x absorb while a per-variable epoch shows the writer already joined
// this version of ℝ_x. Violation tests compare begin stamps, C⊲_t(t) ≤
// K(t), which under the local-time invariant is exactly C⊲_t ⊑ K, so no
// begin clock is kept. Update-set membership is one inline (thread, begin
// stamp) pair per variable, spilled to a thread-indexed vector only while
// a second running transaction lists the variable. Every shortcut answers
// its question exactly as the full computation would, so verdicts and
// violation indices are unchanged (golden corpus, differential suites).
// EngineStats.FlushesDeferred, FlushesSettled and JoinsSkipped count the
// deferrals, the settles and the skipped joins.
//
// # Pipelined and parallel checking
//
// The single-pass, constant-per-event algorithm streams naturally, so the
// package offers an ingestion pipeline (internal/pipeline) that overlaps
// parsing and checking: a producer goroutine fills pooled event batches
// from the trace log and hands them to the checker through a bounded
// channel — backpressure keeps memory constant, the batch pool keeps the
// steady state allocation-free, and the checker's first violation stops
// the producer early. CheckReaderPipelined and CheckBinaryReaderPipelined
// expose it per trace; CheckFilesParallel checks N traces concurrently,
// one independent engine and pipeline per file. The pipelined paths are
// observationally identical to the sequential ones: same verdict, same
// violation index, same event count, enforced by a concurrency-
// differential suite that runs under the race detector in CI and by a
// dedicated fuzz target (FuzzPipelineDifferential).
//
// For streams that arrive in pieces rather than behind an io.Reader — a
// network session, a log follower — IncrementalChecker accepts arbitrary
// byte chunks of a trace log (STD text or ADB1 binary, sniffed from the
// first bytes; boundaries need not align with lines or records) and is
// likewise pinned to the sequential checkers over the concatenated bytes.
// Monitor.Event is the equivalent hook at the Monitor level for
// already-decoded events.
//
// # Multi-analysis checking
//
// The atomicity checker's vector-clock substrate answers more questions
// than serializability, so one ingested event stream can drive several
// analyses off a single parse ("one parse, one clock substrate, N
// verdicts" — ROADMAP item 4). An analysis set is a list of
// AnalysisKind values: AnalysisAtomicity (the default, the AeroDrome
// algorithms above) and AnalysisHBRace, a FastTrack-style happens-before
// data-race detector (internal/race) reusing the same internal/vc clocks
// — per-variable write/read epochs with read escalation to full vectors
// under concurrent readers, release/fork/join publication edges, and
// write-write / write-read / read-write verdicts. CheckSTDAnalyses,
// CheckReaderPipelinedAnalyses and NewIncrementalCheckerAnalyses accept
// the set (the CLI spells it `-analyses atomicity,hbrace`); each
// analysis latches at its own first violation and the stream stops once
// every requested analysis is done. The report's top-level fields always
// carry the atomicity verdict in the legacy wire format; per-analysis
// entries land in Report.Analyses — and when the set is exactly the
// default ["atomicity"], the output is byte-identical to the
// single-analysis path. Unknown analysis names are rejected up front
// with the valid set listed, in the library, the CLI (every mode) and
// the service alike. The hbrace detector is pinned against a naive
// full-vector-clock happens-before oracle over the golden corpus, the
// paper traces, the scenario shapes and the fuzz seeds
// (race_differential_test.go, FuzzRaceDifferential), under -race in CI;
// the dual-analysis ingest cost is tracked by the dual-analysis rows in
// BENCH_after.json (~1.1x the single-analysis pipelined path on
// sharded-t64).
//
// # The aerodromed service
//
// cmd/aerodromed (and `aerodrome -serve`) exposes all of the above as a
// long-running, stdlib-only HTTP service: the algorithm is a single-pass,
// bounded-memory sweep, so one daemon multiplexes many concurrent trace
// streams, each on its own engine. POST /v1/check streams a whole trace
// (STD or binary, sniffed) through the ingestion pipeline and returns the
// JSON Report; the /v1/sessions API is the incremental mode — create a
// session, feed STD chunks, poll the snapshot, finalize for the Report —
// backed by IncrementalChecker per session. Admission is controlled, not
// queued: concurrent sessions and checks are capped (429/503 +
// Retry-After beyond the caps), request bodies are bounded, idle sessions
// are evicted after a TTL, and SIGTERM drains in-flight work before
// exiting. GET /healthz flips to 503 while draining; GET /metrics serves
// expvar-style JSON (sessions, checks, events/sec, verdicts, per-engine
// selection counts, plus a per-tenant section). The CLI fronts a remote daemon via
// `aerodrome -remote URL`. The httptest-based end-to-end suite replays the
// golden corpus and the paper traces through both endpoints and pins them
// byte-identical to sequential CheckSTD, under -race with ≥64 concurrent
// sessions; see examples/server for a quickstart.
//
// # Scale-out: multi-tenant quotas and the shard router
//
// Two layers turn one daemon into a fleet. Per-tenant quotas
// (server.TenantQuota; tenant named by the X-Aerodrome-Tenant header)
// budget concurrent sessions, concurrent checks and sustained ingest
// bytes/sec per tenant on top of the global caps — over-budget requests
// are rejected 429 + Retry-After, never queued, and every tenant gets its
// own /metrics counters. The shard router (`aerodromed -shard -backends
// URL,URL,...`) consistent-hashes sessions and one-shot checks across N
// backend instances by a client-supplied trace key (X-Aerodrome-Trace or
// ?trace=, falling back to the tenant): the ring is a pure function of
// the backend URLs, so a restarted router routes identically, and a lost
// backend (detected by /healthz probes and proxy failures) deterministically
// moves exactly its keys to the ring's next backend — and back on
// recovery. Sessions stay backend-affine, and the router journals every
// applied session chunk (bounded memory with optional spill): when a
// session's backend dies, the next feed transparently recreates the
// session on the ring's next backend and replays the journal first — the
// client sees an ordinary 200 and a report covering every event. Only a
// truncated journal (the session outgrew its caps) answers 409 +
// Retry-After, asking the client for a full replay; chunk-sequence
// numbers (X-Aerodrome-Chunk-Seq) make blind retries idempotent and turn
// post-restart placement drift into a detected 409 instead of a silent
// wrong verdict. server.Client implements the matching retry loop:
// per-attempt timeouts, capped jittered backoff honoring Retry-After,
// rewindable bodies, and ring-epoch awareness from /metrics. The
// internal/faultinject package (wired as `aerodromed -chaos`) injects
// connection dooms, partial writes, transport errors and latency; the
// chaos e2e leg (scripts/e2e_server.sh chaos) kill -9s backends and the
// router mid-stream under injected faults and holds every keyed session's
// verdict byte-identical to the local sequential check. Every routed
// response carries X-Aerodrome-Backend. The serve-sat-* rows in
// BENCH_after.json (from `experiments -run saturate`) measure aggregate
// events/sec under N concurrent clients for the single-server,
// router+2-backend, and fault-injected router topologies — the chaos row
// asserts zero client-visible hard failures — and a bench-gate CI job
// re-measures pinned engine/ingest rows against BENCH_baseline.json's
// gate_rows so the perf work of PR 1–4 cannot regress silently
// (internal/bench/gate.go).
//
// # Open-loop load harness and the scenario zoo
//
// Where the saturation rows ask "how much can a topology absorb", the
// load harness (internal/loadgen, `experiments -run load`) asks "what
// does a scheduled demand curve experience": each scenario pairs a
// seeded arrival process — constant, linear ramp, square-wave burst, or
// long-lived low-rate incremental sessions — with a payload drawn from
// the scenario-shape workload patterns (producer-consumer hand-offs,
// barrier phases, a hot-lock convoy, and an adversarial quota-thrash
// shape whose variable footprint grows without bound). Schedules are
// computed up front by Poisson thinning from a per-profile seed, so the
// demand a run applies is reproducible; a dispatcher walks the schedule
// on the wall clock and hands arrivals to a worker pool through a
// bounded queue without ever blocking on the server — arrivals that
// find the queue full are counted as coordinated-omission debt rather
// than silently delaying the clock, and every latency is measured from
// the arrival's scheduled time into a lock-free HDR-style histogram.
// The load-<scenario>-<topology> rows in BENCH_after.json carry
// p50/p99/p999 end-to-end latency, admission rejections (429/503),
// failover counts scraped from the router, and the omission debt, for
// the single, router+2 and fault-injected router topologies (the last
// with a backend killed mid-run). Retry semantics are shared with the
// saturation bench through one helper (internal/bench Outcome and
// RetryPolicy), and every admitted response — one-shot or session
// finalize — is pinned against a locally computed CheckSTD report: a
// harness that returns wrong answers quickly is a failure, not a
// throughput record. A CI leg (scripts/e2e_server.sh load) drives the
// low-RPS burst-smoke scenario against real daemons behind the router.
//
// # Observability
//
// Every daemon stage is instrumented through internal/obs, a lock-free
// metrics registry (atomic counters, gauges and log-linear latency
// histograms). GET /metrics keeps the expvar-style JSON — extended with
// a "stages" section carrying per-stage latency quantiles (parse,
// check, feed, finalize on a backend; proxy, replay, failover on the
// router) and an "engine" section surfacing the EngineStats
// introspection counters (epoch fast-path hits/misses, GC'd ends,
// deferred/settled flushes, skipped joins, sparse promotions)
// aggregated across every check and session — and GET
// /metrics?format=prom serves the same registry as Prometheus text
// exposition (counters, gauges, cumulative histograms in seconds), so
// the JSON and the scrape can never disagree: both read the same
// atomics. Logs are structured log/slog text at -log-level; every
// request carries an X-Aerodrome-Request-Id — generated at the edge
// when absent, echoed on the response and propagated on every routed
// hop — so one grep follows one request through router and backend.
// The same engine counters reach the CLI (`aerodrome -stats`) and the
// BENCH row columns (epoch_hit_rate and friends), and -debug-addr
// serves net/http/pprof on its own listener, never the service address.
//
// # Testing strategy
//
// The lazy engine diverges structurally from the reference algorithm in
// exactly the ways that are hard to eyeball, so the checker is held to
// verdict equivalence at several levels:
//
//   - Differential suites: Algorithm 3 must agree with Basic (Algorithm 1)
//     on the verdict, with its detection point earlier or equal, on the
//     paper's worked traces, on randomized well-formed traces (including
//     lock-heavy and nested-critical-section shapes generated by
//     internal/testutil), and on the benchmark workload patterns; ReadOpt
//     must report Basic's exact violation event, and a cross-checker suite
//     (internal/velodrome) pins every checker to Velodrome and, on small
//     traces, to the serial oracle.
//   - Native fuzzing: FuzzDifferentialEngines (internal/core) decodes
//     arbitrary fuzz bytes into well-formed traces through a repairing
//     byte-program VM (internal/testutil) and cross-checks Basic against
//     the optimized engine; the corpus is seeded with ρ1–ρ4,
//     injected-violation workloads, the phase-shift (chain burst, then
//     sharded steady state) shape, and the four scenario-zoo shapes
//     (producer-consumer, barrier phases, lock convoy, quota-thrash) via
//     their deterministic builders. A second target,
//     FuzzPipelineDifferential at the repository root, renders the same
//     byte programs to STD logs and cross-checks the pipelined against
//     the sequential ingestion path.
//   - Golden corpus: tracegen-produced STD logs under testdata/golden with
//     pinned verdict/violation-index snapshots, replayed end-to-end
//     through internal/rapidio — covering the parser-to-engine path —
//     both sequentially and through the pipelined checker.
//   - Concurrency differentials: the pipelined checker and
//     CheckFilesParallel are pinned to sequential CheckSTD across the
//     golden corpus, paper traces and fuzz seeds, and a Monitor stress
//     suite asserts exact event accounting and at-most-once OnViolation
//     delivery; CI runs all of it under -race.
//   - White-box replays: internal/core checks every O(1) shortcut of the
//     optimized engine (snapshot stamps, absorb epochs, update-set marks)
//     against the full computation it stands for after every event of the
//     golden, fuzz-seed and random traces, and pins each deferred-flush
//     rule and the snapshot-pool invariants.
//
// # Checking a trace
//
//	checker := aerodrome.NewChecker(aerodrome.Optimized)
//	for _, ev := range events {
//	    if v := checker.Event(ev); v != nil {
//	        fmt.Println("atomicity violation:", v)
//	        break
//	    }
//	}
//
// # Monitoring a live program
//
// The Monitor type offers a concurrency-safe front end for instrumenting
// running Go code: register threads, wrap atomic blocks in Begin/End, and
// report shared accesses; the monitor reports the first violation.
//
//	m := aerodrome.NewMonitor()
//	worker := m.Thread("worker-1")
//	worker.Begin()
//	worker.Read("balance")
//	worker.Write("balance")
//	worker.End()
package aerodrome
