package server

// Typed /metrics snapshots. These structs ARE the JSON wire schema of
// GET /metrics on both daemon modes: what the backend and router encode
// is what Client.refreshRing, the load harness's failover scrape and
// the e2e assertions decode. Field declaration order is the encoding
// order, and the legacy schema was produced from Go maps (which
// encoding/json emits with sorted keys) — so fields here MUST stay in
// alphabetical JSON-key order to keep the emitted document
// byte-compatible with pre-typed releases.

import (
	"aerodrome"
	"aerodrome/internal/obs"
)

// StageMetrics summarizes one stage latency histogram for the JSON
// view: observation count and two tail quantiles in milliseconds. The
// full bucket detail is available from the Prometheus exposition
// (GET /metrics?format=prom).
type StageMetrics struct {
	Count int64   `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// EngineMetrics is the aggregated engine-introspection section of the
// backend snapshot: the counters of every stats-reporting engine the
// server has run (one-shot checks and sessions alike), plus the derived
// epoch fast-path hit rate. Its keys, like the top-level ones, are in
// alphabetical order.
type EngineMetrics struct {
	EndsCollected    int64   `json:"ends_collected"`
	EndsFull         int64   `json:"ends_full"`
	EpochHitRate     float64 `json:"epoch_hit_rate"`
	EpochHits        int64   `json:"epoch_hits"`
	EpochMisses      int64   `json:"epoch_misses"`
	FlushesDeferred  int64   `json:"flushes_deferred"`
	FlushesSettled   int64   `json:"flushes_settled"`
	JoinsSkipped     int64   `json:"joins_skipped"`
	SparsePromotions int64   `json:"sparse_promotions"`
}

func engineMetricsOf(s aerodrome.EngineStats) EngineMetrics {
	return EngineMetrics{
		EndsCollected:    s.EndsCollected,
		EndsFull:         s.EndsFull,
		EpochHitRate:     s.EpochHitRate(),
		EpochHits:        s.EpochHits,
		EpochMisses:      s.EpochMisses,
		FlushesDeferred:  s.FlushesDeferred,
		FlushesSettled:   s.FlushesSettled,
		JoinsSkipped:     s.JoinsSkipped,
		SparsePromotions: s.SparsePromotions,
	}
}

// CheckMetrics is the one-shot /v1/check counter section.
type CheckMetrics struct {
	Active   int64 `json:"active"`
	Rejected int64 `json:"rejected"`
	Total    int64 `json:"total"`
}

// SessionMetrics is the incremental-session counter section.
type SessionMetrics struct {
	Active   int64 `json:"active"`
	Closed   int64 `json:"closed"`
	Evicted  int64 `json:"evicted"`
	Opened   int64 `json:"opened"`
	Rejected int64 `json:"rejected"`
}

// AnalysisMetrics is one analysis' counter row in the backend snapshot:
// how many one-shot checks and sessions ran it, and how many violations
// it reported.
type AnalysisMetrics struct {
	Checks     int64 `json:"checks"`
	Sessions   int64 `json:"sessions"`
	Violations int64 `json:"violations"`
}

// MetricsSnapshot is the backend (single-node aerodromed) /metrics
// document.
type MetricsSnapshot struct {
	// Analyses is the per-analysis counter table keyed by analysis name
	// ("atomicity", "hbrace").
	Analyses map[string]AnalysisMetrics `json:"analyses"`
	Checks   CheckMetrics               `json:"checks"`
	// Engine aggregates introspection counters settled from finished
	// checks and from sessions at feed/finalize boundaries.
	Engine EngineMetrics `json:"engine"`
	// EngineSelections counts checks and sessions per engine name.
	EngineSelections map[string]int64 `json:"engine_selections"`
	EventsPerSecond  float64          `json:"events_per_second"`
	EventsTotal      int64            `json:"events_total"`
	Sessions         SessionMetrics   `json:"sessions"`
	// Stages holds per-stage latency summaries keyed by stage name
	// (parse, check, feed, finalize).
	Stages map[string]StageMetrics `json:"stages"`
	// Tenants is the per-tenant counter table keyed by tenant name.
	Tenants         map[string]map[string]int64 `json:"tenants"`
	UptimeSeconds   float64                     `json:"uptime_seconds"`
	ViolationsTotal int64                       `json:"violations_total"`
}

// RouterBackendMetrics is one backend's row in the router snapshot.
type RouterBackendMetrics struct {
	Healthy        bool  `json:"healthy"`
	ProxyErrors    int64 `json:"proxy_errors"`
	RoutedTotal    int64 `json:"routed_total"`
	SessionsAffine int64 `json:"sessions_affine"`
}

// RouterJournalMetrics is the session-journal section of the router
// snapshot.
type RouterJournalMetrics struct {
	Bytes          int64 `json:"bytes"`
	MemBytes       int64 `json:"mem_bytes"`
	TruncatedTotal int64 `json:"truncated_total"`
}

// RouterMetricsSnapshot is the shard-router /metrics document.
type RouterMetricsSnapshot struct {
	AffinityLostTotal       int64                           `json:"affinity_lost_total"`
	Backends                map[string]RouterBackendMetrics `json:"backends"`
	ChecksRouted            int64                           `json:"checks_routed"`
	FailoverFailuresTotal   int64                           `json:"failover_failures_total"`
	FailoversTotal          int64                           `json:"failovers_total"`
	Journal                 RouterJournalMetrics            `json:"journal"`
	ReplayedBytesTotal      int64                           `json:"replayed_bytes_total"`
	RingEpoch               uint64                          `json:"ring_epoch"`
	SessionsReattachedTotal int64                           `json:"sessions_reattached_total"`
	SessionsRouted          int64                           `json:"sessions_routed"`
	// Stages holds per-stage latency summaries keyed by stage name
	// (proxy, replay, failover).
	Stages          map[string]StageMetrics `json:"stages"`
	UnroutableTotal int64                   `json:"unroutable_total"`
	UptimeSeconds   float64                 `json:"uptime_seconds"`
}

// stageSnapshot renders one histogram into its JSON summary.
func stageSnapshot(h *obs.Histogram) StageMetrics {
	return StageMetrics{Count: h.Count(), P50Ms: h.Quantile(0.5), P99Ms: h.Quantile(0.99)}
}
