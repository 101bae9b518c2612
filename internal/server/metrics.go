package server

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"aerodrome"
	"aerodrome/internal/obs"
)

// metrics is the server's instrument set, served two ways from
// GET /metrics: the legacy expvar-style JSON document (the default, see
// MetricsSnapshot for the schema) and Prometheus text exposition with
// `?format=prom`. Everything is monotonic except the two active gauges;
// all updates are atomic so handlers never contend on a metrics lock.
// The Prometheus view is read-through over the same atomics (see
// internal/obs), so the two expositions can never disagree.
type metrics struct {
	start time.Time
	reg   *obs.Registry

	sessionsActive   atomic.Int64
	sessionsOpened   atomic.Int64
	sessionsClosed   atomic.Int64
	sessionsEvicted  atomic.Int64
	sessionsRejected atomic.Int64

	checksActive   atomic.Int64
	checksTotal    atomic.Int64
	checksRejected atomic.Int64

	eventsTotal     atomic.Int64
	violationsTotal atomic.Int64

	// analyses counts per-analysis activity: how many checks and sessions
	// requested each analysis, and how many violations each reported. The
	// map is built once in newMetrics (one entry per supported analysis) and
	// never mutated afterwards, so reads need no lock.
	analyses map[string]*analysisCounters

	// engineMu guards insertion into engines; the counters themselves are
	// atomic. Keyed by engine name, counting how often each engine was
	// selected (one per /v1/check and one per session).
	engineMu sync.Mutex
	engines  map[string]*atomic.Int64

	// statsMu guards engineStats: introspection counters settled out of
	// finished one-shot checks and out of sessions at every feed and
	// finalize boundary, aggregated across every engine this server ran.
	statsMu     sync.Mutex
	engineStats aerodrome.EngineStats

	// Per-stage latency histograms for the request path.
	stageParse    *obs.Histogram
	stageCheck    *obs.Histogram
	stageFeed     *obs.Histogram
	stageFinalize *obs.Histogram
}

// analysisCounters is one analysis' counter row: requested-by counts and
// violations reported. All atomic; see metrics.analyses.
type analysisCounters struct {
	checks     atomic.Int64
	sessions   atomic.Int64
	violations atomic.Int64
}

func newMetrics() *metrics {
	m := &metrics{
		start:    time.Now(),
		reg:      obs.NewRegistry(),
		engines:  map[string]*atomic.Int64{},
		analyses: map[string]*analysisCounters{},
	}
	for _, k := range aerodrome.AnalysisKinds() {
		ac := &analysisCounters{}
		m.analyses[string(k)] = ac
		labels := obs.Labels(map[string]string{"analysis": string(k)})
		m.reg.CounterFunc("aerodromed_analysis_checks_total", labels,
			"One-shot checks that ran this analysis.", ac.checks.Load)
		m.reg.CounterFunc("aerodromed_analysis_sessions_total", labels,
			"Sessions opened with this analysis.", ac.sessions.Load)
		m.reg.CounterFunc("aerodromed_analysis_violations_total", labels,
			"Violations reported by this analysis.", ac.violations.Load)
	}
	gauge := func(name, help string, v *atomic.Int64) {
		m.reg.GaugeFunc(name, "", help, func() float64 { return float64(v.Load()) })
	}
	counter := func(name, help string, v *atomic.Int64) {
		m.reg.CounterFunc(name, "", help, v.Load)
	}
	m.reg.GaugeFunc("aerodromed_uptime_seconds", "", "Seconds since process start.",
		func() float64 { return time.Since(m.start).Seconds() })
	gauge("aerodromed_sessions_active", "Incremental sessions currently open.", &m.sessionsActive)
	counter("aerodromed_sessions_opened_total", "Sessions opened.", &m.sessionsOpened)
	counter("aerodromed_sessions_closed_total", "Sessions finalized by clients.", &m.sessionsClosed)
	counter("aerodromed_sessions_evicted_total", "Idle sessions evicted by the janitor.", &m.sessionsEvicted)
	counter("aerodromed_sessions_rejected_total", "Session opens rejected by admission control.", &m.sessionsRejected)
	gauge("aerodromed_checks_active", "One-shot checks currently running.", &m.checksActive)
	counter("aerodromed_checks_total", "One-shot checks admitted.", &m.checksTotal)
	counter("aerodromed_checks_rejected_total", "One-shot checks rejected by admission control.", &m.checksRejected)
	counter("aerodromed_events_total", "Trace events processed.", &m.eventsTotal)
	counter("aerodromed_violations_total", "Atomicity violations reported.", &m.violationsTotal)

	engineCounter := func(name, help string, sel func(aerodrome.EngineStats) int64) {
		m.reg.CounterFunc(name, "", help, func() int64 {
			m.statsMu.Lock()
			defer m.statsMu.Unlock()
			return sel(m.engineStats)
		})
	}
	// Registration order is exposition order: alphabetical, like the JSON
	// engine section.
	engineCounter("aerodromed_engine_ends_collected_total",
		"Transaction ends taking the garbage-collection fast path.",
		func(s aerodrome.EngineStats) int64 { return s.EndsCollected })
	engineCounter("aerodromed_engine_ends_full_total",
		"Transaction ends taking the full propagation path.",
		func(s aerodrome.EngineStats) int64 { return s.EndsFull })
	engineCounter("aerodromed_engine_epoch_hits_total",
		"Conflict checks resolved by the epoch fast path.",
		func(s aerodrome.EngineStats) int64 { return s.EpochHits })
	engineCounter("aerodromed_engine_epoch_misses_total",
		"Conflict checks that fell through to a full clock comparison.",
		func(s aerodrome.EngineStats) int64 { return s.EpochMisses })
	engineCounter("aerodromed_engine_flushes_deferred_total",
		"End-of-transaction clock flushes recorded as pending snapshots.",
		func(s aerodrome.EngineStats) int64 { return s.FlushesDeferred })
	engineCounter("aerodromed_engine_flushes_settled_total",
		"Pending end-of-transaction snapshots joined in on consultation.",
		func(s aerodrome.EngineStats) int64 { return s.FlushesSettled })
	engineCounter("aerodromed_engine_joins_skipped_total",
		"Clock joins and settles skipped as provable no-ops.",
		func(s aerodrome.EngineStats) int64 { return s.JoinsSkipped })
	engineCounter("aerodromed_engine_sparse_promotions_total",
		"Sparse read accumulators promoted to dense clocks.",
		func(s aerodrome.EngineStats) int64 { return s.SparsePromotions })

	stage := func(name string) *obs.Histogram {
		h := &obs.Histogram{}
		m.reg.RegisterHistogram("aerodromed_stage_duration_seconds",
			obs.Labels(map[string]string{"stage": name}),
			"Request-path stage latency by stage name.", h)
		return h
	}
	m.stageParse = stage("parse")
	m.stageCheck = stage("check")
	m.stageFeed = stage("feed")
	m.stageFinalize = stage("finalize")
	return m
}

func (m *metrics) selectEngine(name string) {
	m.engineMu.Lock()
	c, ok := m.engines[name]
	if !ok {
		c = &atomic.Int64{}
		m.engines[name] = c
		// First sighting of an engine name lazily registers its labeled
		// Prometheus series, read through the same atomic.
		m.reg.CounterFunc("aerodromed_engine_selections_total",
			obs.Labels(map[string]string{"engine": name}),
			"Engine selections by engine name.", c.Load)
	}
	m.engineMu.Unlock()
	c.Add(1)
}

// countCheck settles one finished /v1/check report into the per-analysis
// counters: every analysis the check ran gets a check tick, and each
// non-clean verdict a violation tick. A report without an Analyses section
// ran the default set (atomicity alone), whose verdict is the legacy
// top-level fields.
func (m *metrics) countCheck(rep *aerodrome.Report) {
	rows := rep.Analyses
	if len(rows) == 0 {
		rows = []aerodrome.AnalysisReport{{Analysis: string(aerodrome.AnalysisAtomicity), Clean: rep.Serializable}}
	}
	for _, ar := range rows {
		if ac := m.analyses[ar.Analysis]; ac != nil {
			ac.checks.Add(1)
		}
		if !ar.Clean {
			m.countViolation(ar.Analysis)
		}
	}
}

// countViolation ticks one analysis' violation counter.
func (m *metrics) countViolation(analysis string) {
	if ac := m.analyses[analysis]; ac != nil {
		ac.violations.Add(1)
	}
}

// addEngineStats folds one settled batch of engine introspection deltas
// into the server-wide aggregate.
func (m *metrics) addEngineStats(s aerodrome.EngineStats) {
	m.statsMu.Lock()
	m.engineStats.Add(s)
	m.statsMu.Unlock()
}

func (m *metrics) engineSnapshot() EngineMetrics {
	m.statsMu.Lock()
	s := m.engineStats
	m.statsMu.Unlock()
	return engineMetricsOf(s)
}

// snapshot renders the counters. The JSON shape is part of the service
// interface (the bench harness, the client library and the e2e script
// read it) — see MetricsSnapshot.
func (m *metrics) snapshot() MetricsSnapshot {
	uptime := time.Since(m.start).Seconds()
	events := m.eventsTotal.Load()
	perSec := 0.0
	if uptime > 0 {
		perSec = float64(events) / uptime
	}
	m.engineMu.Lock()
	engines := make(map[string]int64, len(m.engines))
	for name, c := range m.engines {
		engines[name] = c.Load()
	}
	m.engineMu.Unlock()
	analyses := make(map[string]AnalysisMetrics, len(m.analyses))
	for name, ac := range m.analyses {
		analyses[name] = AnalysisMetrics{
			Checks:     ac.checks.Load(),
			Sessions:   ac.sessions.Load(),
			Violations: ac.violations.Load(),
		}
	}
	return MetricsSnapshot{
		Analyses: analyses,
		Checks: CheckMetrics{
			Active:   m.checksActive.Load(),
			Rejected: m.checksRejected.Load(),
			Total:    m.checksTotal.Load(),
		},
		Engine:           m.engineSnapshot(),
		EngineSelections: engines,
		EventsPerSecond:  perSec,
		EventsTotal:      events,
		Sessions: SessionMetrics{
			Active:   m.sessionsActive.Load(),
			Closed:   m.sessionsClosed.Load(),
			Evicted:  m.sessionsEvicted.Load(),
			Opened:   m.sessionsOpened.Load(),
			Rejected: m.sessionsRejected.Load(),
		},
		Stages: map[string]StageMetrics{
			"parse":    stageSnapshot(m.stageParse),
			"check":    stageSnapshot(m.stageCheck),
			"feed":     stageSnapshot(m.stageFeed),
			"finalize": stageSnapshot(m.stageFinalize),
		},
		UptimeSeconds:   uptime,
		ViolationsTotal: m.violationsTotal.Load(),
	}
}

// promContentType is the Prometheus text exposition format content type.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// handleMetrics is GET /metrics: the typed JSON snapshot plus the
// per-tenant section by default, Prometheus text with ?format=prom.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", promContentType)
		s.metrics.reg.WritePrometheus(w)
		return
	}
	snap := s.metrics.snapshot()
	snap.Tenants = s.snapshotTenants()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap)
}
