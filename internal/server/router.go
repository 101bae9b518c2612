package server

// The shard router: aerodromed's scale-out front end. One engine per
// stream is the service's unit of work, so horizontal scaling is routing —
// spread sessions and one-shot checks across N backend aerodromed
// instances and keep every stream pinned to one backend (the checker is
// stateful per trace). Routing is a consistent hash over a client-supplied
// trace key (or the tenant, or round-robin for keyless one-shots): the
// ring is built deterministically from the backend URLs alone, so a
// restarted router reroutes every key identically, and a lost backend
// moves exactly the keys it owned to the next backend on the ring — back
// again when it recovers.
//
// Sessions are backend-affine but no longer die with their backend: the
// router journals every chunk a backend acknowledged (see journal.go),
// and when the backend is lost it recreates the session on the next ring
// point, replays the journal through the backend's chunk-agnostic
// IncrementalChecker — the checker is a deterministic single pass, so the
// replayed engine is byte-identical to the lost one — and re-sends the
// in-flight request.
// Only a session whose journal was truncated past the replay horizon
// (over-budget, or created before a router restart) still answers 409,
// now Retry-After-guarded so well-behaved clients back off before
// replaying from scratch.
//
// The router is stdlib-only like the rest of the service: per-backend
// net/http/httputil reverse proxies for one-shot checks, direct forwarding
// for session traffic, a background /healthz prober, and a router-level
// /metrics that publishes a ring epoch — bumped on every health
// transition — so ring-aware clients can detect topology change instead
// of hammering a dead backend.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aerodrome"
	"aerodrome/internal/obs"
)

// RouterTraceHeader carries the routing key of a request; the "trace"
// query parameter is the curl-friendly equivalent.
const RouterTraceHeader = "X-Aerodrome-Trace"

// RouterBackendHeader names the backend that served a routed response —
// the observability hook the e2e harness and operators use to see ring
// placement without guessing.
const RouterBackendHeader = "X-Aerodrome-Backend"

// RouterConfig tunes the shard router. Zero values select the defaults.
type RouterConfig struct {
	// Backends are the base URLs of the aerodromed instances to route
	// across (e.g. "http://10.0.0.1:8421"). At least one is required.
	Backends []string
	// Replicas is the number of virtual nodes per backend on the hash ring
	// (default 64): enough to keep the key split near-uniform with few
	// backends while keeping ring walks trivial.
	Replicas int
	// ProbeInterval is the /healthz probe cadence (default 500ms).
	ProbeInterval time.Duration
	// FailAfter is the number of consecutive probe failures that mark a
	// backend down (default 2). Proxy-level connection failures mark it
	// down immediately — the prober brings it back.
	FailAfter int
	// ProbeOnStart runs one synchronous probe round before the router
	// serves, so a backend that is already dead at boot is never picked.
	// A restarted router would otherwise route the first requests to
	// backends it has not probed yet — exactly the window in which a
	// re-attached session would be misdirected at a corpse and lost.
	ProbeOnStart bool
	// TenantHeader is the tenant header consulted as the routing-key
	// fallback (default "X-Aerodrome-Tenant"), so a tenant without
	// per-trace keys still gets a stable backend.
	TenantHeader string
	// AffinityTTL prunes session routes not used for this long (default
	// 15m): sessions that end by backend TTL eviction or client
	// abandonment never see a DELETE through the router, and their
	// entries (and journals) must not accumulate forever. Set it
	// comfortably above the backends' SessionTTL — a pruned-but-live
	// session is still reachable with its trace key.
	AffinityTTL time.Duration
	// JournalMemBytes caps one session's in-memory journal (default
	// 256 KiB); chunks beyond it spill to JournalSpillDir, or truncate the
	// journal when spill is disabled.
	JournalMemBytes int64
	// JournalMaxBytes caps one session's total journal, memory plus spill
	// (default 4 MiB). A session past it loses its replay horizon:
	// backend death becomes a terminal 409 again.
	JournalMaxBytes int64
	// JournalTotalBytes caps in-memory journal bytes across all sessions
	// (default 64 MiB); sessions over the shared budget spill or truncate.
	JournalTotalBytes int64
	// JournalSpillDir, when set, lets journals overflow to unlinked temp
	// files there instead of truncating at the memory caps.
	JournalSpillDir string
	// Transport is the round tripper used for all backend traffic except
	// health probes (default http.DefaultTransport). The chaos harness
	// wraps it to inject proxy-path faults.
	Transport http.RoundTripper
	// Log receives structured router log lines (default: discarded).
	Log io.Writer
	// LogLevel is the minimum level written to Log (default Info).
	LogLevel slog.Level
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.Replicas <= 0 {
		c.Replicas = 64
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.TenantHeader == "" {
		c.TenantHeader = DefaultTenantHeader
	}
	if c.AffinityTTL <= 0 {
		c.AffinityTTL = 15 * time.Minute
	}
	if c.JournalMemBytes <= 0 {
		c.JournalMemBytes = 256 << 10
	}
	if c.JournalMaxBytes <= 0 {
		c.JournalMaxBytes = 4 << 20
	}
	if c.JournalTotalBytes <= 0 {
		c.JournalTotalBytes = 64 << 20
	}
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
	return c
}

// backend is one aerodromed instance behind the router.
type backend struct {
	name    string // the configured base URL, verbatim — the ring seed
	url     *url.URL
	proxy   *httputil.ReverseProxy
	healthy atomic.Bool
	fails   int // consecutive probe failures; prober goroutine only

	routed      atomic.Int64
	proxyErrors atomic.Int64
}

// ringPoint is one virtual node: a backend at a position on the hash ring.
type ringPoint struct {
	h uint64
	b *backend
}

// sessionRoute is the router's state for one client-visible session: its
// affine backend, the backend-local id (which diverges from the client id
// after a failover), the recreation parameters, and the replay journal.
// route.mu serializes forwards and failover per session; b is atomic so
// the metrics scan can read it without route.mu (a feed may hold that
// lock for a whole chunk upload); last is guarded by Router.mu (the prune
// scan).
type sessionRoute struct {
	mu        sync.Mutex
	b         atomic.Pointer[backend] // current affine backend; nil until first resolve
	backendID string                  // session id on b
	key       string                  // consistent-hash routing key ("" = placed round-robin)
	opts      aerodrome.Options       // requested options, replayed on recreation
	tenant    string                  // tenant header value, replayed on recreation
	journal   *journal
	lastSeq   int64 // last journaled chunk sequence (-1 = none)

	last time.Time // guarded by Router.mu
}

// Router is the shard-routing http.Handler. Create with NewRouter, serve
// with any http.Server, stop with Close.
type Router struct {
	cfg      RouterConfig
	mux      *http.ServeMux
	backends []*backend
	ring     []ringPoint  // sorted by h; fixed for the router's lifetime
	client   *http.Client // buffered session creates (small bodies, bounded)
	forward  *http.Client // session forwards and journal replay (streaming)
	logger   *slog.Logger
	draining atomic.Bool
	rr       atomic.Uint64 // round-robin cursor for keyless one-shots
	epoch    atomic.Uint64 // bumped on every backend health transition

	budget *journalBudget

	mu     sync.Mutex
	routes map[string]*sessionRoute // client session id → route

	start            time.Time
	checksRouted     atomic.Int64
	sessRouted       atomic.Int64
	affinityLost     atomic.Int64
	unroutable       atomic.Int64
	failovers        atomic.Int64
	failoverFailures atomic.Int64
	replayedBytes    atomic.Int64
	journalTruncated atomic.Int64
	reattached       atomic.Int64

	// reg backs GET /metrics?format=prom; the stage histograms time the
	// router's request-path phases (see RouterMetricsSnapshot.Stages).
	reg           *obs.Registry
	stageProxy    *obs.Histogram
	stageReplay   *obs.Histogram
	stageFailover *obs.Histogram

	stop     chan struct{}
	stopOnce sync.Once
}

// ringHash is FNV-1a with a murmur3-style 64-bit finalizer, inlined so
// ring placement is a pure function of the configured backend URLs and the
// key bytes — the determinism the restart and rehash tests pin. The
// finalizer matters: raw FNV of strings differing only in a trailing
// counter ("url#0", "url#1", …) lands one prime apart, clustering all of a
// backend's virtual nodes into one arc and starving the others.
func ringHash(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// NewRouter validates cfg and returns a ready-to-serve Router.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("server: router needs at least one backend")
	}
	rt := &Router{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		client:  &http.Client{Timeout: 10 * time.Second, Transport: cfg.Transport},
		forward: &http.Client{Transport: cfg.Transport},
		logger:  newLogger(cfg.Log, cfg.LogLevel).With("component", "router"),
		budget:  &journalBudget{max: cfg.JournalTotalBytes},
		routes:  map[string]*sessionRoute{},
		start:   time.Now(),
		stop:    make(chan struct{}),
	}
	seen := map[string]bool{}
	for _, raw := range cfg.Backends {
		raw = strings.TrimRight(raw, "/")
		if seen[raw] {
			return nil, fmt.Errorf("server: duplicate backend %q", raw)
		}
		seen[raw] = true
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("server: bad backend URL %q", raw)
		}
		b := &backend{name: raw, url: u}
		b.healthy.Store(true) // optimistic: the prober and proxy errors correct
		b.proxy = rt.newProxy(b)
		rt.backends = append(rt.backends, b)
		for i := 0; i < cfg.Replicas; i++ {
			rt.ring = append(rt.ring, ringPoint{h: ringHash(fmt.Sprintf("%s#%d", raw, i)), b: b})
		}
	}
	sort.Slice(rt.ring, func(i, j int) bool { return rt.ring[i].h < rt.ring[j].h })
	rt.initMetrics()

	if cfg.ProbeOnStart {
		rt.probeOnce()
	}

	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("POST /v1/check", rt.handleCheck)
	rt.mux.HandleFunc("POST /v1/sessions", rt.handleSessionCreate)
	rt.mux.HandleFunc("/v1/sessions/{id}", rt.handleSessionSub)
	rt.mux.HandleFunc("/v1/sessions/{id}/{rest...}", rt.handleSessionSub)
	go rt.prober()
	return rt, nil
}

// newProxy builds the reverse proxy for one backend's one-shot checks:
// responses are tagged with the backend name, and connection-level
// failures mark the backend down in the same pass they are answered —
// with 503 + Retry-After, not a bare 502, so a well-behaved client backs
// off and retries into the rerouted ring instead of the dead point. (The
// failed request itself cannot be transparently retried: its body may be
// half-streamed.)
func (rt *Router) newProxy(b *backend) *httputil.ReverseProxy {
	p := httputil.NewSingleHostReverseProxy(b.url)
	p.Transport = rt.cfg.Transport
	p.ModifyResponse = func(resp *http.Response) error {
		resp.Header.Set(RouterBackendHeader, b.name)
		return nil
	}
	p.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
		b.proxyErrors.Add(1)
		rt.markDown(b, err)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "backend unavailable: "+err.Error())
	}
	return p
}

// markDown flips a backend unhealthy (idempotently) and bumps the ring
// epoch; the prober flips it back once /healthz answers again.
func (rt *Router) markDown(b *backend, err error) {
	if b.healthy.CompareAndSwap(true, false) {
		rt.epoch.Add(1)
		rt.logger.Warn("backend down", "backend", b.name, "err", err)
	}
}

// initMetrics builds the router's Prometheus registry: read-through
// series over the existing atomic counters (global, per-backend
// labeled, and the journal budget) plus the stage histograms. Called
// once from NewRouter after the backend list is fixed.
func (rt *Router) initMetrics() {
	rt.reg = obs.NewRegistry()
	counter := func(name, help string, v *atomic.Int64) {
		rt.reg.CounterFunc(name, "", help, v.Load)
	}
	rt.reg.GaugeFunc("aerodromed_router_uptime_seconds", "", "Seconds since router start.",
		func() float64 { return time.Since(rt.start).Seconds() })
	rt.reg.GaugeFunc("aerodromed_router_ring_epoch", "", "Ring epoch, bumped on every backend health transition.",
		func() float64 { return float64(rt.epoch.Load()) })
	counter("aerodromed_router_checks_routed_total", "One-shot checks routed.", &rt.checksRouted)
	counter("aerodromed_router_sessions_routed_total", "Sessions placed on backends.", &rt.sessRouted)
	counter("aerodromed_router_affinity_lost_total", "Session requests whose affinity could not be derived or replayed.", &rt.affinityLost)
	counter("aerodromed_router_unroutable_total", "Requests with no healthy backend.", &rt.unroutable)
	counter("aerodromed_router_failovers_total", "Sessions failed over to another backend.", &rt.failovers)
	counter("aerodromed_router_failover_failures_total", "Failover attempts that failed.", &rt.failoverFailures)
	counter("aerodromed_router_replayed_bytes_total", "Journal bytes replayed into recreated sessions.", &rt.replayedBytes)
	counter("aerodromed_router_journal_truncated_total", "Session journals truncated past the replay horizon.", &rt.journalTruncated)
	counter("aerodromed_router_sessions_reattached_total", "Sessions re-attached by routing key after a router restart.", &rt.reattached)
	rt.reg.GaugeFunc("aerodromed_router_journal_mem_bytes", "", "In-memory journal bytes across all sessions.",
		func() float64 { return float64(rt.budget.used.Load()) })
	for _, b := range rt.backends {
		labels := obs.Labels(map[string]string{"backend": b.name})
		rt.reg.GaugeFunc("aerodromed_router_backend_healthy", labels,
			"Backend health (1 healthy, 0 down).",
			func() float64 {
				if b.healthy.Load() {
					return 1
				}
				return 0
			})
		rt.reg.CounterFunc("aerodromed_router_backend_routed_total", labels,
			"Requests routed to the backend.", b.routed.Load)
		rt.reg.CounterFunc("aerodromed_router_backend_proxy_errors_total", labels,
			"Transport-level failures talking to the backend.", b.proxyErrors.Load)
	}
	stage := func(name string) *obs.Histogram {
		h := &obs.Histogram{}
		rt.reg.RegisterHistogram("aerodromed_router_stage_duration_seconds",
			obs.Labels(map[string]string{"stage": name}),
			"Router request-path stage latency by stage name.", h)
		return h
	}
	rt.stageProxy = stage("proxy")
	rt.stageReplay = stage("replay")
	rt.stageFailover = stage("failover")
}

// probeOnce is the synchronous bootstrap probe round: every backend gets
// one short-deadline /healthz before the router serves.
func (rt *Router) probeOnce() {
	timeout := rt.cfg.ProbeInterval
	if timeout > 500*time.Millisecond {
		timeout = 500 * time.Millisecond
	}
	client := &http.Client{Timeout: timeout}
	for _, b := range rt.backends {
		resp, err := client.Get(b.name + "/healthz")
		ok := err == nil && resp.StatusCode == http.StatusOK
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if !ok {
			if err == nil {
				err = fmt.Errorf("healthz HTTP %d", resp.StatusCode)
			}
			rt.markDown(b, fmt.Errorf("startup probe: %w", err))
		}
	}
}

// prober polls every backend's /healthz. A backend is marked down after
// FailAfter consecutive failures (a draining backend answers 503 and is
// routed around before it disappears) and back up on the first success.
func (rt *Router) prober() {
	tick := time.NewTicker(rt.cfg.ProbeInterval)
	defer tick.Stop()
	client := &http.Client{Timeout: rt.cfg.ProbeInterval}
	for {
		select {
		case <-rt.stop:
			return
		case <-tick.C:
			rt.pruneRoutes()
			for _, b := range rt.backends {
				resp, err := client.Get(b.name + "/healthz")
				ok := err == nil && resp.StatusCode == http.StatusOK
				if resp != nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				if ok {
					b.fails = 0
					if b.healthy.CompareAndSwap(false, true) {
						rt.epoch.Add(1)
						rt.logger.Info("backend healthy", "backend", b.name)
					}
					continue
				}
				b.fails++
				if b.fails >= rt.cfg.FailAfter {
					if err == nil {
						err = fmt.Errorf("healthz HTTP %d", resp.StatusCode)
					}
					rt.markDown(b, err)
				}
			}
		}
	}
}

// ServeHTTP implements http.Handler. The router is the edge of a
// sharded topology: every request gets a correlation ID here
// (RequestIDHeader, kept when the client supplied one), echoed in the
// response, logged on the access line, and propagated verbatim on every
// backend hop — the forwarding paths clone the request headers, so the
// same ID shows up in the backends' access logs.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	serveLogged(rt.logger, rt.mux, w, r)
}

// SetDraining flips drain mode: healthz answers 503 and new checks and
// sessions are rejected, while feeds and deletes to existing sessions keep
// flowing (their backends drain independently).
func (rt *Router) SetDraining(v bool) {
	rt.draining.Store(v)
}

// Close stops the health prober and frees the session journals. In-flight
// proxied requests are the http.Server's to drain.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.mu.Lock()
	routes := rt.routes
	rt.routes = map[string]*sessionRoute{}
	rt.mu.Unlock()
	for _, route := range routes {
		route.journal.free()
	}
}

// routingKey extracts the consistent-hash key of a request: the trace
// header, the trace query parameter, then the tenant header. Empty means
// "any backend" (round-robin) for one-shots.
func (rt *Router) routingKey(r *http.Request) string {
	if k := r.Header.Get(RouterTraceHeader); k != "" {
		return k
	}
	if k := r.URL.Query().Get("trace"); k != "" {
		return k
	}
	return r.Header.Get(rt.cfg.TenantHeader)
}

// pick walks the ring from key's position and returns the first healthy
// backend not vetoed by skip (nil skip allows all). Keys owned by a down
// backend land deterministically on the next distinct backend along the
// ring, and return home when it recovers.
func (rt *Router) pick(key string, skip map[*backend]bool) *backend {
	h := ringHash(key)
	idx := sort.Search(len(rt.ring), func(i int) bool { return rt.ring[i].h >= h })
	for i := 0; i < len(rt.ring); i++ {
		p := rt.ring[(idx+i)%len(rt.ring)]
		if p.b.healthy.Load() && !skip[p.b] {
			return p.b
		}
	}
	return nil
}

// pickAny round-robins over healthy backends, for keyless one-shots where
// affinity buys nothing and spreading load does.
func (rt *Router) pickAny(skip map[*backend]bool) *backend {
	n := len(rt.backends)
	start := int(rt.rr.Add(1) % uint64(n))
	for i := 0; i < n; i++ {
		b := rt.backends[(start+i)%n]
		if b.healthy.Load() && !skip[b] {
			return b
		}
	}
	return nil
}

// route resolves a request to a backend by key (or round-robin).
func (rt *Router) route(r *http.Request) *backend {
	if key := rt.routingKey(r); key != "" {
		return rt.pick(key, nil)
	}
	return rt.pickAny(nil)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if rt.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	healthy := 0
	for _, b := range rt.backends {
		if b.healthy.Load() {
			healthy++
		}
	}
	if healthy == 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "no healthy backends"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "backends_healthy": healthy, "backends_total": len(rt.backends),
	})
}

// handleMetrics is the router's GET /metrics: the typed JSON snapshot
// (RouterMetricsSnapshot) by default, Prometheus text with ?format=prom.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", promContentType)
		rt.reg.WritePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, rt.snapshot())
}

// snapshot renders the router's typed /metrics document.
func (rt *Router) snapshot() RouterMetricsSnapshot {
	rt.mu.Lock()
	affine := make(map[string]int64, len(rt.backends))
	var journaled int64
	for _, route := range rt.routes {
		if b := route.b.Load(); b != nil {
			affine[b.name]++
		}
		journaled += route.journal.size()
	}
	rt.mu.Unlock()
	backends := make(map[string]RouterBackendMetrics, len(rt.backends))
	for _, b := range rt.backends {
		backends[b.name] = RouterBackendMetrics{
			Healthy:        b.healthy.Load(),
			ProxyErrors:    b.proxyErrors.Load(),
			RoutedTotal:    b.routed.Load(),
			SessionsAffine: affine[b.name],
		}
	}
	return RouterMetricsSnapshot{
		AffinityLostTotal:     rt.affinityLost.Load(),
		Backends:              backends,
		ChecksRouted:          rt.checksRouted.Load(),
		FailoverFailuresTotal: rt.failoverFailures.Load(),
		FailoversTotal:        rt.failovers.Load(),
		Journal: RouterJournalMetrics{
			Bytes:          journaled,
			MemBytes:       rt.budget.used.Load(),
			TruncatedTotal: rt.journalTruncated.Load(),
		},
		ReplayedBytesTotal:      rt.replayedBytes.Load(),
		RingEpoch:               rt.epoch.Load(),
		SessionsReattachedTotal: rt.reattached.Load(),
		SessionsRouted:          rt.sessRouted.Load(),
		Stages: map[string]StageMetrics{
			"proxy":    stageSnapshot(rt.stageProxy),
			"replay":   stageSnapshot(rt.stageReplay),
			"failover": stageSnapshot(rt.stageFailover),
		},
		UnroutableTotal: rt.unroutable.Load(),
		UptimeSeconds:   time.Since(rt.start).Seconds(),
	}
}

// handleCheck proxies POST /v1/check to the key's backend. The body
// streams through, so a mid-flight backend failure is a 503 + Retry-After
// to retry — only session traffic, whose chunks are journaled, fails over
// transparently.
func (rt *Router) handleCheck(w http.ResponseWriter, r *http.Request) {
	if rt.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	b := rt.route(r)
	if b == nil {
		rt.unroutable.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "no healthy backend")
		return
	}
	rt.checksRouted.Add(1)
	b.routed.Add(1)
	start := time.Now()
	b.proxy.ServeHTTP(w, r)
	rt.stageProxy.Record(time.Since(start))
}

// handleSessionCreate places a new session on the key's backend. The tiny
// JSON body is buffered, so creation retries across the ring when the
// first choice turns out to be down — admission-time backend loss is
// invisible to the client.
func (rt *Router) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if rt.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<16))
	if err != nil {
		writeBodyError(w, err)
		return
	}
	key := rt.routingKey(r)
	tried := map[*backend]bool{}
	for {
		var b *backend
		if key != "" {
			b = rt.pick(key, tried)
		} else {
			b = rt.pickAny(tried)
		}
		if b == nil {
			rt.unroutable.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "no healthy backend")
			return
		}
		req, rerr := http.NewRequestWithContext(r.Context(), http.MethodPost,
			b.name+r.URL.RequestURI(), strings.NewReader(string(body)))
		if rerr != nil {
			writeError(w, http.StatusInternalServerError, rerr.Error())
			return
		}
		req.Header = r.Header.Clone()
		resp, derr := rt.client.Do(req)
		if derr != nil {
			// Nothing streamed to the client yet: mark the backend down and
			// try the next one on the ring.
			b.proxyErrors.Add(1)
			rt.markDown(b, derr)
			tried[b] = true
			continue
		}
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			writeError(w, http.StatusBadGateway, "backend response: "+rerr.Error())
			return
		}
		if resp.StatusCode == http.StatusCreated {
			var v SessionView
			if json.Unmarshal(data, &v) == nil && v.ID != "" {
				// The backend accepted these options, so they decode; an
				// unset algorithm stays unset, leaving a recreation to its
				// backend's default exactly like the original create.
				var rb io.Reader
				if len(body) > 0 {
					rb = bytes.NewReader(body)
				}
				opts, _ := decodeOptions(r.URL.Query(), rb, "")
				route := &sessionRoute{
					backendID: v.ID,
					key:       key,
					opts:      opts,
					tenant:    r.Header.Get(rt.cfg.TenantHeader),
					journal: newJournal(rt.cfg.JournalMemBytes, rt.cfg.JournalMaxBytes,
						rt.cfg.JournalSpillDir, rt.budget),
					lastSeq: -1,
					last:    time.Now(),
				}
				route.b.Store(b)
				rt.mu.Lock()
				rt.routes[v.ID] = route
				rt.mu.Unlock()
			}
			rt.sessRouted.Add(1)
			b.routed.Add(1)
		}
		for k, vals := range resp.Header {
			w.Header()[k] = vals
		}
		w.Header().Set(RouterBackendHeader, b.name)
		w.WriteHeader(resp.StatusCode)
		w.Write(data)
		return
	}
}

// lookupRoute resolves a session id to its route, re-attaching by routing
// key when the id is unknown (a restarted router): the ring finds the
// same backend the key hashed to at creation, but the replay horizon is
// lost — this router never saw the earlier chunks — so the re-attached
// journal starts truncated. Returns nil when there is no route and no key
// to derive one from.
func (rt *Router) lookupRoute(id string, r *http.Request) *sessionRoute {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if route := rt.routes[id]; route != nil {
		route.last = time.Now()
		return route
	}
	key := rt.routingKey(r)
	if key == "" {
		return nil
	}
	route := &sessionRoute{
		backendID: id,
		key:       key,
		tenant:    r.Header.Get(rt.cfg.TenantHeader),
		journal:   newTruncatedJournal(),
		lastSeq:   -1,
		last:      time.Now(),
	}
	route.b.Store(rt.pick(key, nil)) // nil when every backend is down
	rt.routes[id] = route
	rt.reattached.Add(1)
	return route
}

// Failover outcomes surfaced to clients.
var (
	// errReplayHorizon: the journal was truncated, replay is impossible.
	errReplayHorizon = errors.New("session unrecoverable: journal truncated past replay horizon; open a new session and replay the trace")
	// errNoBackend: nothing healthy to fail over to.
	errNoBackend = errors.New("no healthy backend")
)

// errBackendDeclined: the failover target answered but refused the
// recreate (admission limits); retryable.
type errBackendDeclined struct {
	status     int
	retryAfter string
}

func (e *errBackendDeclined) Error() string {
	return fmt.Sprintf("failover target declined recreate: HTTP %d", e.status)
}

// respondFailoverError maps a failover failure to the wire: the truncated
// journal is the one terminal case (409, Retry-After-guarded so obedient
// clients pause before replaying from scratch); everything else is a
// retryable 503.
func (rt *Router) respondFailoverError(w http.ResponseWriter, err error) {
	var declined *errBackendDeclined
	switch {
	case errors.Is(err, errReplayHorizon):
		rt.affinityLost.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, err.Error())
	case errors.As(err, &declined):
		retry := declined.retryAfter
		if retry == "" {
			retry = "1"
		}
		w.Header().Set("Retry-After", retry)
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err.Error())
	}
}

// failoverLocked moves route to the next healthy ring point: recreate the
// session there (same algorithm, same tenant) and replay the journal
// through the backend's chunk-agnostic IncrementalChecker. The caller
// holds route.mu.
func (rt *Router) failoverLocked(route *sessionRoute) error {
	start := time.Now()
	defer func() { rt.stageFailover.Record(time.Since(start)) }()
	skip := map[*backend]bool{}
	if b := route.b.Load(); b != nil {
		skip[b] = true
	}
	for {
		var nb *backend
		if route.key != "" {
			nb = rt.pick(route.key, skip)
		} else {
			nb = rt.pickAny(skip)
		}
		if nb == nil {
			rt.failoverFailures.Add(1)
			return errNoBackend
		}
		if route.journal.isTruncated() {
			// There is somewhere to go but nothing to replay: the session
			// state is unreproducible and the loss is terminal.
			rt.failoverFailures.Add(1)
			return errReplayHorizon
		}
		newID, replayed, err := rt.recreateOn(nb, route)
		if err != nil {
			var declined *errBackendDeclined
			if errors.As(err, &declined) {
				rt.failoverFailures.Add(1)
				return err
			}
			nb.proxyErrors.Add(1)
			rt.markDown(nb, err)
			skip[nb] = true
			continue
		}
		rt.logger.Info("session failed over",
			"session", route.backendID, "backend", nb.name, "replayed_bytes", replayed)
		route.b.Store(nb)
		route.backendID = newID
		rt.failovers.Add(1)
		nb.routed.Add(1)
		return nil
	}
}

// recreateOn creates a fresh session on nb with route's parameters and
// replays the journal into it. Returns the new backend-local session id.
// A transport-level error means nb is unreachable (the caller marks it
// down and moves on); an HTTP-level refusal is *errBackendDeclined.
func (rt *Router) recreateOn(nb *backend, route *sessionRoute) (string, int64, error) {
	req, err := http.NewRequest(http.MethodPost, nb.name+"/v1/sessions"+optionsQuery(route.opts), nil)
	if err != nil {
		return "", 0, err
	}
	rt.sessionHeaders(req, route)
	resp, err := rt.client.Do(req)
	if err != nil {
		return "", 0, err
	}
	data, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return "", 0, rerr
	}
	if resp.StatusCode != http.StatusCreated {
		return "", 0, &errBackendDeclined{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
	}
	var v SessionView
	if err := json.Unmarshal(data, &v); err != nil || v.ID == "" {
		return "", 0, fmt.Errorf("recreate: bad session body: %v", err)
	}

	rr, n := route.journal.replayReader()
	if n == 0 {
		return v.ID, 0, nil
	}
	req, err = http.NewRequest(http.MethodPost, nb.name+"/v1/sessions/"+v.ID+"/events", rr)
	if err != nil {
		return "", 0, err
	}
	req.ContentLength = n
	rt.sessionHeaders(req, route)
	replayStart := time.Now()
	if route.lastSeq >= 0 {
		// Prime the backend's idempotency cache with the pre-failover
		// sequence number: a client retry of the last acknowledged chunk is
		// then answered from the replayed state instead of being applied a
		// second time.
		req.Header.Set(ChunkSeqHeader, fmt.Sprint(route.lastSeq))
	}
	resp, err = rt.forward.Do(req)
	if err != nil {
		return "", 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rt.stageReplay.Record(time.Since(replayStart))
	switch resp.StatusCode {
	case http.StatusOK, http.StatusBadRequest, http.StatusConflict:
		// 200 is the live replay; 400/409 reproduce a terminal session,
		// which is equally exact.
	default:
		return "", 0, &errBackendDeclined{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
	}
	rt.replayedBytes.Add(n)
	return v.ID, n, nil
}

// sessionHeaders applies route's recreation headers to a backend request.
func (rt *Router) sessionHeaders(req *http.Request, route *sessionRoute) {
	if route.tenant != "" {
		req.Header.Set(rt.cfg.TenantHeader, route.tenant)
	}
	if route.key != "" {
		req.Header.Set(RouterTraceHeader, route.key)
	}
}

// handleSessionSub routes feeds, snapshots and deletes to the session's
// affine backend, failing over — recreate plus journal replay — when that
// backend is lost. Only a session whose journal was truncated answers the
// terminal 409.
func (rt *Router) handleSessionSub(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	route := rt.lookupRoute(id, r)
	if route == nil {
		rt.affinityLost.Add(1)
		writeError(w, http.StatusConflict,
			"session affinity unknown: pass the trace routing key ("+RouterTraceHeader+" or ?trace=)")
		return
	}
	route.mu.Lock()
	defer route.mu.Unlock()
	if r.Method == http.MethodPost && r.PathValue("rest") == "events" {
		rt.forwardFeed(w, r, id, route)
		return
	}
	rt.forwardOther(w, r, id, route)
}

// feedApplied reports whether a feed response status can mean the backend
// consumed the chunk (and the journal must record it). 429/503 rejections
// leave the session untouched; 200 is a live or discarded-terminal feed;
// 400/409 latch or report a terminal state the chunk is part of. A
// consuming status is necessary but not sufficient: 400/409 are also the
// backend's refusal statuses (bad seq header, chunk sequence gap), whose
// bodies are plain errors — the journaling path additionally requires the
// body to decode to a session view before recording the chunk.
func feedApplied(status int) bool {
	return status == http.StatusOK || status == http.StatusBadRequest || status == http.StatusConflict
}

// parseFeedView decodes the session-view fields of a feed response the
// journaling decisions need. ok is false when the body is not a session
// view (the {"error": ...} shape of a gap or bad-header rejection) — the
// backend did not consume that chunk.
func parseFeedView(data []byte) (view struct{ ID, State string }, ok bool) {
	var v struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if json.Unmarshal(data, &v) != nil || v.ID == "" {
		return view, false
	}
	view.ID, view.State = v.ID, v.State
	return view, true
}

// viewTerminal reports whether a feed-view state is terminal — the
// journal freezes there: the recorded prefix reproduces the verdict and
// later discarded chunks must not grow it.
func viewTerminal(state string) bool {
	return state == string(stateViolated) || state == string(stateFailed)
}

// forwardFeed is the journaled feed path: buffer the chunk (bounded by
// the journal's remaining capacity), forward it, journal it once the
// backend acknowledged it, and fail over with a full replay when the
// backend is unreachable. Chunks past the journal bound stream through
// unbuffered and cost the session its replay horizon.
func (rt *Router) forwardFeed(w http.ResponseWriter, r *http.Request, clientID string, route *sessionRoute) {
	seq, ok := parseChunkSeq(r.Header)
	if !ok {
		writeError(w, http.StatusBadRequest, "bad "+ChunkSeqHeader+" header")
		return
	}
	frozen := route.journal.isFrozen()
	var buffered []byte
	var stream io.Reader
	if frozen {
		// The session is terminal: the backend discards chunk bytes anyway,
		// so drain them here and forward an empty feed — it still refreshes
		// the backend's idle timer and returns the authoritative snapshot.
		io.Copy(io.Discard, r.Body)
	} else {
		capLeft := route.journal.capLeft()
		var err error
		buffered, err = io.ReadAll(io.LimitReader(r.Body, capLeft+1))
		if err != nil {
			writeBodyError(w, err)
			return
		}
		if int64(len(buffered)) > capLeft {
			route.journal.truncate()
			rt.journalTruncated.Add(1)
			stream = r.Body
		}
	}

	attempts := 0
	retriedSame := false
	for {
		b := route.b.Load()
		if b == nil || !b.healthy.Load() {
			if ferr := rt.failoverLocked(route); ferr != nil {
				rt.respondFailoverError(w, ferr)
				return
			}
			b = route.b.Load()
		}
		var body io.Reader = bytes.NewReader(buffered)
		n := int64(len(buffered))
		if stream != nil {
			body = io.MultiReader(bytes.NewReader(buffered), stream)
			n = r.ContentLength // may be -1 (chunked): preserved downstream
		}
		resp, err := rt.backendDo(r, b, http.MethodPost,
			"/v1/sessions/"+route.backendID+"/events", body, n)
		var data []byte
		if err == nil {
			data, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				err = fmt.Errorf("backend response: %w", err)
			}
		}
		if err != nil {
			b.proxyErrors.Add(1)
			if !retriedSame && stream == nil && seq >= 0 {
				// One transient fault (a doomed connection, an injected
				// error) should cost a retry, not a failover — and for a
				// session whose journal is already truncated, a failover
				// would cost the session itself. The chunk carries a
				// sequence number, so even an applied-but-unacknowledged
				// re-POST dedups at the backend.
				retriedSame = true
				continue
			}
			rt.markDown(b, err)
			if stream != nil {
				// Part of the chunk went down with the connection and was
				// never journaled; the stream cannot be reproduced.
				rt.failoverFailures.Add(1)
				rt.respondFailoverError(w, errReplayHorizon)
				return
			}
			attempts++
			if attempts > len(rt.backends) {
				rt.respondFailoverError(w, errNoBackend)
				return
			}
			if ferr := rt.failoverLocked(route); ferr != nil {
				rt.respondFailoverError(w, ferr)
				return
			}
			continue
		}
		if stream == nil && !frozen && feedApplied(resp.StatusCode) {
			// Journal exactly the chunks the backend consumed, once. The
			// body must be a session view: a 400/409 with an error body is
			// a refusal (chunk sequence gap, bad header) that left the
			// session untouched, so recording it would make a later replay
			// reproduce state containing a rejected chunk. Re-sent or stale
			// sequence numbers (seq <= lastSeq) were already recorded — the
			// backend answered those from its idempotency cache.
			if fv, isView := parseFeedView(data); isView {
				if seq < 0 || seq > route.lastSeq {
					route.journal.append(buffered)
					if seq >= 0 {
						route.lastSeq = seq
					}
				}
				if resp.StatusCode != http.StatusOK || viewTerminal(fv.State) {
					route.journal.freeze()
				}
			}
		}
		b.routed.Add(1)
		rt.relaySessionResponse(w, resp, data, route, clientID, b)
		return
	}
}

// forwardOther handles GET (snapshot) and DELETE (finalize) for a routed
// session, with the same failover discipline as feeds. A finished DELETE
// — or a backend 404, the session is gone — drops the route and frees its
// journal.
func (rt *Router) forwardOther(w http.ResponseWriter, r *http.Request, clientID string, route *sessionRoute) {
	path := "/v1/sessions/" + route.backendID
	if rest := r.PathValue("rest"); rest != "" {
		path += "/" + rest
	}
	attempts := 0
	retriedSame := false
	for {
		b := route.b.Load()
		if b == nil || !b.healthy.Load() {
			if ferr := rt.failoverLocked(route); ferr != nil {
				rt.respondFailoverError(w, ferr)
				return
			}
			b = route.b.Load()
		}
		resp, err := rt.backendDo(r, b, r.Method, path, nil, 0)
		var data []byte
		if err == nil {
			data, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				err = fmt.Errorf("backend response: %w", err)
			}
		}
		if err != nil {
			b.proxyErrors.Add(1)
			if !retriedSame {
				// Bodyless requests are safe to re-send to the same backend
				// — GET is naturally idempotent, and a DELETE the backend
				// applied before the connection died replays from its
				// finalize cache instead of 404ing — so one transient fault
				// costs a retry, not a failover, which a truncated journal
				// would turn into a lost session.
				retriedSame = true
				continue
			}
			rt.markDown(b, err)
			attempts++
			if attempts > len(rt.backends) {
				rt.respondFailoverError(w, errNoBackend)
				return
			}
			if ferr := rt.failoverLocked(route); ferr != nil {
				rt.respondFailoverError(w, ferr)
				return
			}
			// The path tracks the possibly-new backend id after failover.
			path = "/v1/sessions/" + route.backendID
			if rest := r.PathValue("rest"); rest != "" {
				path += "/" + rest
			}
			continue
		}
		if r.Method == http.MethodDelete && resp.StatusCode == http.StatusOK ||
			resp.StatusCode == http.StatusNotFound {
			rt.forgetRoute(clientID)
		}
		b.routed.Add(1)
		rt.relaySessionResponse(w, resp, data, route, clientID, b)
		return
	}
}

// backendDo sends one forwarded request to b, preserving the original
// headers and context.
func (rt *Router) backendDo(orig *http.Request, b *backend, method, path string, body io.Reader, n int64) (*http.Response, error) {
	var u strings.Builder
	u.WriteString(b.name)
	u.WriteString(path)
	if q := orig.URL.RawQuery; q != "" {
		u.WriteString("?")
		u.WriteString(q)
	}
	req, err := http.NewRequestWithContext(orig.Context(), method, u.String(), body)
	if err != nil {
		return nil, err
	}
	req.Header = orig.Header.Clone()
	req.ContentLength = n
	start := time.Now()
	resp, err := rt.forward.Do(req)
	rt.stageProxy.Record(time.Since(start))
	return resp, err
}

// relaySessionResponse writes a forwarded response back to the client,
// rewriting the backend-local session id to the client-visible one (they
// diverge after a failover; both are 32-hex, so the rewrite is
// length-preserving) and tagging the serving backend.
func (rt *Router) relaySessionResponse(w http.ResponseWriter, resp *http.Response, data []byte, route *sessionRoute, clientID string, b *backend) {
	if route.backendID != clientID {
		data = bytes.ReplaceAll(data, []byte(route.backendID), []byte(clientID))
	}
	for k, vals := range resp.Header {
		w.Header()[k] = vals
	}
	w.Header().Del("Content-Length")
	w.Header().Set(RouterBackendHeader, b.name)
	w.WriteHeader(resp.StatusCode)
	w.Write(data)
}

// forgetRoute drops a session route and frees its journal.
func (rt *Router) forgetRoute(id string) {
	rt.mu.Lock()
	route := rt.routes[id]
	delete(rt.routes, id)
	rt.mu.Unlock()
	if route != nil {
		route.journal.free()
	}
}

// pruneRoutes drops session routes idle past AffinityTTL. Sessions that
// ended without a DELETE through the router (backend TTL eviction,
// abandoned clients) would otherwise leak an entry — and a journal —
// each.
func (rt *Router) pruneRoutes() {
	cutoff := time.Now().Add(-rt.cfg.AffinityTTL)
	var stale []*sessionRoute
	rt.mu.Lock()
	for id, route := range rt.routes {
		if route.last.Before(cutoff) {
			stale = append(stale, route)
			delete(rt.routes, id)
		}
	}
	rt.mu.Unlock()
	for _, route := range stale {
		route.journal.free()
	}
}
