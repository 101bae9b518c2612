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
// `experiments -run bench` records ns/event and allocs/event of this
// engine on a thread-scaling grid (sharded and chain, T ∈ {8, 64, 256}).
// BENCH_after.json at the repository root is its output on the current
// engine. BENCH_baseline.json holds two row sets: rows, the same grid on
// the seed engine, and gate_rows, three rows measured on the flat engine
// that a CI job re-measures, failing a change that makes one of them more
// than 2× slower or 2× more allocating (internal/bench/gate.go). The
// files come from different machine sessions, and numbers drift between
// sessions, so they show trends, not verdicts: a change is judged by
// `bash benchmark/run.sh`, which reports medians and quartiles end to end.
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
// Per-variable state is sized to what it holds. Each variable has one
// pointer-free 64-byte record with what every access reads: the last
// writer and Staleʷ, the two pending snapshots, the absorb and
// repeat-write epochs, the inline update-set marks, the first stale reader
// and flag bits. The owned 𝕎_x, ℝ_x and ȒR_x stay absent (⊥) until
// something is joined or copied into them; they live with the epoch slots,
// spilled marks and further stale readers in a cold record allocated on
// first need, and the flag bits let the common path skip it. A ⊥ 𝕎_x is
// not consulted at all, so epoch hits and misses count lookups of owned
// clocks only. The records sit in 256-record pages allocated on first
// touch: the table grows without copying, and a lone high variable ID
// costs one page. On chain traces, where few variables ever own a clock,
// the engine holds ~140 live bytes per variable at 4 threads and ~240 at
// 8, against ~500–700 with eagerly allocated clocks.
//
// # One front door: Check and Options
//
// Check(r, Options{Algorithm, Analyses}) checks one whole trace. It
// reads r through internal/rapidio's one trace decoder, which sniffs the
// format once (the ADB1 binary magic, else STD text) and reports a failed
// read as itself, not as a parse error on the partial line or record it
// cut off, so aerodromed answers a spent byte budget or a stalled upload
// with 429 or 408 rather than 400. Parsing and checking overlap through
// internal/pipeline: a producer goroutine fills pooled event batches and
// hands them to the checker through a bounded channel, so memory stays
// constant, the steady state allocates nothing, and the first violation
// stops the producer. The aerodrome command and aerodromed's /v1/check
// run through the same loop.
// CheckFilesParallel runs Check on N files concurrently. CheckSTD is the
// sequential reference: Check on STD text and on its ADB1 re-encoding
// gives the same verdict, violation index and event count, enforced by a
// concurrency-differential suite under the race detector in CI and by a
// fuzz target (FuzzPipelineDifferential).
//
// Two streaming front ends take the same Options: IncrementalChecker
// accepts arbitrary byte chunks of a trace (the same decoder, pushed to
// instead of pulling; boundaries need not align with lines or records)
// and checks each chunk on the caller's goroutine, and Monitor interns
// arbitrary keys for a live program. Checker, for raw dense IDs, takes
// just an Algorithm.
//
// Options.Analyses is the analysis set one parse drives ("one parse, one
// clock substrate, N verdicts"): AnalysisAtomicity, the default, and
// AnalysisHBRace, a FastTrack-style happens-before data-race detector
// (internal/race) on the same internal/vc clocks. One rule governs a
// check run: each analysis latches at its own first violation and gets
// no event after it, and the stream is read until every analysis has
// latched, so a parse error is reported only while some analysis is
// still live. One fan-out applies it, pipeline.Analyses.Process, which
// Check, IncrementalChecker and Monitor all call; CheckSTD keeps its own
// event-at-a-time loop as the reference the three are tested against.
// The report's top-level fields always carry the atomicity verdict;
// per-analysis entries land in Report.Analyses, and for the default set
// the report is byte-identical to the single-analysis one. Unknown
// analysis and algorithm names are rejected up front with the library's
// error: by Options.Validate in the library and the service, and by the
// CLI's `-analyses` and `-algo` flags in every mode, before it checks,
// listens or sends anything. The hbrace detector is pinned against a
// naive full-vector-clock oracle (race_differential_test.go,
// FuzzRaceDifferential) on every path, the push path included, under
// -race in CI.
//
// # The aerodromed service
//
// cmd/aerodromed (and `aerodrome -serve`) exposes all of the above as a
// long-running, stdlib-only HTTP service: the algorithm is a single-pass,
// bounded-memory sweep, so one daemon multiplexes many concurrent trace
// streams, each on its own engine. POST /v1/check streams a whole trace
// (STD or binary, sniffed) through Check and returns the
// JSON Report; the /v1/sessions API is the incremental mode — create a
// session, feed STD chunks, poll the snapshot, finalize for the Report —
// backed by IncrementalChecker per session. A session's snapshot is
// published from its checker after every block a feed reads, and the
// session is done once it failed or every requested analysis has
// latched: later chunks are accepted and discarded. A check body and a
// session chunk pass one intake. Admission is controlled, not queued:
// concurrent sessions and checks are capped (429/503 + Retry-After beyond
// the caps), request bodies are bounded (one whose declared length is
// over the cap is refused before any of it is read, so a chunk is never
// applied in part), idle sessions are evicted after a TTL, and SIGTERM
// drains in-flight work before exiting. GET /healthz flips to 503 while
// draining; GET /metrics serves expvar-style JSON (sessions, checks,
// events/sec, verdicts, per-engine selection counts, plus a per-tenant
// section). The CLI fronts a remote daemon via
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
// backend deterministically moves exactly its keys to the ring's next
// backend — and back on recovery. A backend is marked down by /healthz
// probes and by the router's own failed requests to it, never by a client
// that gave up waiting. Sessions stay backend-affine, and the router
// journals every applied session chunk (bounded memory with optional
// spill) until the backend's view says the session is done, by the rule
// the backend itself applies: when a session's backend dies, the next
// feed, snapshot or delete transparently recreates the session on the
// ring's next backend and replays the journal first — the client sees an
// ordinary 200 and a report covering every event, a violated session
// included, with every analysis it requested. Only a
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
// response carries X-Aerodrome-Backend.
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
//     suite asserts exact event accounting and at-most-once onViolation
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
//	m := aerodrome.NewMonitor(aerodrome.Options{}, nil)
//	worker := m.Thread("worker-1")
//	worker.Begin()
//	worker.Read("balance")
//	worker.Write("balance")
//	worker.End()
package aerodrome
