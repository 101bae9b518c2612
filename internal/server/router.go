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
// router journals every chunk a backend acknowledged (see journal.go)
// until the backend's view of the session is done, by the same
// SessionView.done the backend discards later chunks by, and when the
// backend is lost it recreates the session on the next ring point,
// replays the journal through the backend's chunk-agnostic
// IncrementalChecker — the checker is a deterministic single pass, so the
// replayed engine is byte-identical to the lost one — and re-sends the
// in-flight request.
// Only a session whose journal was truncated past the replay horizon
// (over-budget, or created before a router restart) still answers 409,
// now Retry-After-guarded so well-behaved clients back off before
// replaying from scratch.
//
// The router is stdlib-only like the rest of the service. Every request
// reaches a backend through one round trip (send): checks directly,
// session creates and failover recreates through one ring walk (place),
// and feeds, snapshots and deletes through one retry, mark-down and
// failover loop (forwardRoute). A background /healthz prober and a
// router-level /metrics publish a ring epoch — bumped on every health
// transition — so ring-aware clients can detect topology change instead
// of hammering a dead backend.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strconv"
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

const (
	// ringReplicas is the number of virtual nodes per backend on the hash
	// ring: enough to keep the key split near-uniform with few backends
	// while keeping ring walks trivial.
	ringReplicas = 64
	// probeFailAfter is the number of consecutive prober misses that mark
	// a backend down. The router's own failed requests mark it down at
	// once; the prober brings it back on its first answer.
	probeFailAfter = 2
	// affinityTTL prunes session routes not used for this long: sessions
	// that end by backend TTL eviction or client abandonment never see a
	// DELETE through the router, and their entries (and journals) must
	// not accumulate forever. It is well above the backends' SessionTTL,
	// and a pruned-but-live session is still reachable with its trace key.
	affinityTTL = 15 * time.Minute
	// createTimeout bounds one session create, or failover recreate, on
	// one backend.
	createTimeout = 10 * time.Second
)

// RouterConfig tunes the shard router. Zero values select the defaults.
type RouterConfig struct {
	// Backends are the base URLs of the aerodromed instances to route
	// across (e.g. "http://10.0.0.1:8421"). At least one is required.
	Backends []string
	// ProbeInterval is the /healthz probe cadence (default 500ms).
	ProbeInterval time.Duration
	// ProbeOnStart runs one synchronous probe round before the router
	// serves, so a backend that is already dead at boot is never picked.
	// A restarted router would otherwise route the first requests to
	// backends it has not probed yet — exactly the window in which a
	// re-attached session would be misdirected at a corpse and lost.
	ProbeOnStart bool
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
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
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
	healthy atomic.Bool
	fails   int // consecutive probe misses; probe rounds only

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
	lastSeq   int64 // last acknowledged chunk sequence (-1 = none)

	last time.Time // guarded by Router.mu
}

// Router is the shard-routing http.Handler. Create with NewRouter, serve
// with any http.Server, stop with Close.
type Router struct {
	cfg      RouterConfig
	mux      *http.ServeMux
	backends []*backend
	ring     []ringPoint  // sorted by h; fixed for the router's lifetime
	client   *http.Client // every backend request but /healthz (see send)
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
		cfg:    cfg,
		mux:    http.NewServeMux(),
		client: &http.Client{Transport: cfg.Transport},
		logger: newLogger(cfg.Log, cfg.LogLevel).With("component", "router"),
		budget: &journalBudget{max: cfg.JournalTotalBytes},
		routes: map[string]*sessionRoute{},
		start:  time.Now(),
		stop:   make(chan struct{}),
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
		b := &backend{name: raw}
		b.healthy.Store(true) // optimistic: probes and failed requests correct
		rt.backends = append(rt.backends, b)
		for i := 0; i < ringReplicas; i++ {
			rt.ring = append(rt.ring, ringPoint{h: ringHash(fmt.Sprintf("%s#%d", raw, i)), b: b})
		}
	}
	sort.Slice(rt.ring, func(i, j int) bool { return rt.ring[i].h < rt.ring[j].h })
	rt.initMetrics()

	if cfg.ProbeOnStart {
		// A short deadline, and one miss is enough: the round delays
		// serving, and a backend that is slow at boot is retried by the
		// prober anyway.
		rt.probeRound(&http.Client{Timeout: min(cfg.ProbeInterval, 500*time.Millisecond)}, 1)
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

// prober runs a probe round every ProbeInterval until Close.
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
			rt.probeRound(client, probeFailAfter)
		}
	}
}

// probeRound sends one /healthz to every backend. The first 200 marks a
// backend up again; failAfter misses in a row mark it down (a draining
// backend answers 503 and is routed around before it disappears). Rounds
// never overlap — the startup round runs before the prober starts — so
// b.fails needs no lock.
func (rt *Router) probeRound(client *http.Client, failAfter int) {
	for _, b := range rt.backends {
		resp, err := client.Get(b.name + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("healthz HTTP %d", resp.StatusCode)
			}
		}
		if err == nil {
			b.fails = 0
			if b.healthy.CompareAndSwap(false, true) {
				rt.epoch.Add(1)
				rt.logger.Info("backend healthy", "backend", b.name)
			}
			continue
		}
		if b.fails++; b.fails >= failAfter {
			rt.markDown(b, err)
		}
	}
}

// ServeHTTP implements http.Handler. The router is the edge of a
// sharded topology: every request gets a correlation ID here
// (RequestIDHeader, kept when the client supplied one), echoed in the
// response, logged on the access line, and propagated verbatim on every
// backend hop — send clones the request headers, so the same ID shows up
// in the backends' access logs.
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
// forwarded requests are the http.Server's to drain.
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
	return r.Header.Get(DefaultTenantHeader)
}

// pick returns the first healthy backend not vetoed by skip (nil skip
// allows all): walking the ring from key's position, or round-robin for
// the empty key, where affinity buys nothing and spreading load does.
// Keys owned by a down backend land deterministically on the next
// distinct backend along the ring, and return home when it recovers.
func (rt *Router) pick(key string, skip map[*backend]bool) *backend {
	if key == "" {
		n := len(rt.backends)
		start := int(rt.rr.Add(1) % uint64(n))
		for i := 0; i < n; i++ {
			if b := rt.backends[(start+i)%n]; b.healthy.Load() && !skip[b] {
				return b
			}
		}
		return nil
	}
	h := ringHash(key)
	idx := sort.Search(len(rt.ring), func(i int) bool { return rt.ring[i].h >= h })
	for i := 0; i < len(rt.ring); i++ {
		if b := rt.ring[(idx+i)%len(rt.ring)].b; b.healthy.Load() && !skip[b] {
			return b
		}
	}
	return nil
}

// send is the one way a request reaches a backend, health probes aside:
// method and target (a path with its query) on b, a copy of hdr as the
// headers, and body of length n (-1 = unknown). It returns the reply with
// its body read in full. On error the response is nil when the request
// itself failed, and set when only its reply could not be read.
func (rt *Router) send(ctx context.Context, b *backend, method, target string, hdr http.Header, body io.Reader, n int64) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, b.name+target, body)
	if err != nil {
		return nil, nil, err
	}
	req.Header = hdr.Clone()
	req.ContentLength = n
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp, nil, fmt.Errorf("backend response: %w", err)
	}
	return resp, data, nil
}

// relay writes a backend reply to the client, tagged with the backend
// that served it. A session reply may have had its id rewritten, so the
// length is that of data, not the backend's.
func relay(w http.ResponseWriter, resp *http.Response, data []byte, b *backend) {
	for k, vals := range resp.Header {
		w.Header()[k] = vals
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Header().Set(RouterBackendHeader, b.name)
	w.WriteHeader(resp.StatusCode)
	w.Write(data)
}

// unavailable answers a retryable 503.
func unavailable(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, msg)
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

// handleCheck forwards POST /v1/check to the key's backend. The body
// streams through, so a mid-flight backend failure is a 503 + Retry-After
// to retry — only session traffic, whose chunks are journaled, fails over
// transparently.
func (rt *Router) handleCheck(w http.ResponseWriter, r *http.Request) {
	if rt.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	b := rt.pick(rt.routingKey(r), nil)
	if b == nil {
		rt.unroutable.Add(1)
		unavailable(w, errNoBackend.Error())
		return
	}
	rt.checksRouted.Add(1)
	b.routed.Add(1)
	start := time.Now()
	resp, data, err := rt.send(r.Context(), b, http.MethodPost, r.URL.RequestURI(), r.Header, r.Body, r.ContentLength)
	rt.stageProxy.Record(time.Since(start))
	if err != nil {
		if cerr := r.Context().Err(); cerr != nil {
			// The client gave up: that says nothing about the backend.
			unavailable(w, cerr.Error())
			return
		}
		b.proxyErrors.Add(1)
		rt.markDown(b, err)
		unavailable(w, "backend unavailable: "+err.Error())
		return
	}
	relay(w, resp, data, b)
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
	b, resp, data, err := rt.place(r, key, map[*backend]bool{}, r.URL.RequestURI(), r.Header, body)
	switch {
	case errors.Is(err, errNoBackend):
		rt.unroutable.Add(1)
		unavailable(w, err.Error())
		return
	case b == nil:
		unavailable(w, err.Error()) // the client gave up
		return
	case err != nil:
		// The backend answered but its reply was lost: it may hold the
		// session, so placing it again elsewhere could orphan one.
		writeError(w, http.StatusBadGateway, err.Error())
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
				tenant:    r.Header.Get(DefaultTenantHeader),
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
	relay(w, resp, data, b)
}

// place is the ring walk behind session creates and failover recreates:
// it POSTs body to target on the first backend pick(key, skip) offers.
// A failed request is sent once more to the same backend, as feeds,
// snapshots and deletes are; when that fails too, place marks the backend
// down, adds it to skip and tries the next. It returns the backend that
// answered, its reply and the reply body, with err set if the body could
// not be read. Without such a backend it returns errNoBackend, or r's
// context error once the client has given up — which marks nothing down.
func (rt *Router) place(r *http.Request, key string, skip map[*backend]bool, target string, hdr http.Header, body []byte) (*backend, *http.Response, []byte, error) {
	for {
		b := rt.pick(key, skip)
		if b == nil {
			return nil, nil, nil, errNoBackend
		}
		for try := 0; ; try++ {
			ctx, cancel := context.WithTimeout(r.Context(), createTimeout)
			resp, data, err := rt.send(ctx, b, http.MethodPost, target, hdr, bytes.NewReader(body), int64(len(body)))
			cancel()
			if err == nil || resp != nil {
				return b, resp, data, err
			}
			if cerr := r.Context().Err(); cerr != nil {
				return nil, nil, nil, cerr
			}
			b.proxyErrors.Add(1)
			if try > 0 {
				rt.markDown(b, err)
				skip[b] = true
				break
			}
		}
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
		tenant:    r.Header.Get(DefaultTenantHeader),
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
	// errNoBackend: nothing healthy to route or fail over to.
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
	case errors.As(err, &declined) && declined.retryAfter != "":
		w.Header().Set("Retry-After", declined.retryAfter)
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		unavailable(w, err.Error())
	}
}

// failoverLocked moves route to the next healthy ring point: recreate the
// session there (same options, same tenant) and replay the journal
// through the backend's chunk-agnostic IncrementalChecker. r is the
// request that found the backend lost; if its client gives up, the
// failover stops without marking anything down. The caller holds
// route.mu.
func (rt *Router) failoverLocked(r *http.Request, route *sessionRoute) (err error) {
	start := time.Now()
	defer func() {
		rt.stageFailover.Record(time.Since(start))
		if err != nil && r.Context().Err() == nil {
			rt.failoverFailures.Add(1)
		}
	}()
	skip := map[*backend]bool{}
	if b := route.b.Load(); b != nil {
		skip[b] = true
	}
	if route.journal.isTruncated() {
		// Once there is somewhere to go, the loss is terminal: there is
		// nothing to replay, and the session state is unreproducible.
		if rt.pick(route.key, skip) == nil {
			return errNoBackend
		}
		return errReplayHorizon
	}
	hdr := http.Header{}
	hdr.Set(RequestIDHeader, r.Header.Get(RequestIDHeader))
	if route.tenant != "" {
		hdr.Set(DefaultTenantHeader, route.tenant)
	}
	if route.key != "" {
		hdr.Set(RouterTraceHeader, route.key)
	}
	for {
		nb, resp, data, err := rt.place(r, route.key, skip, "/v1/sessions"+optionsQuery(route.opts), hdr, nil)
		if nb == nil {
			return err
		}
		var v SessionView
		if err == nil && resp.StatusCode != http.StatusCreated {
			return &errBackendDeclined{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
		}
		if err == nil && (json.Unmarshal(data, &v) != nil || v.ID == "") {
			err = fmt.Errorf("recreate: bad session body %q", data)
		}
		body, n := route.journal.replayReader()
		if err == nil && n > 0 {
			rhdr := hdr.Clone()
			if route.lastSeq >= 0 {
				// Prime the backend's idempotency cache with the client's
				// last acknowledged sequence number: a retry of that chunk
				// is then answered from the replayed state instead of being
				// applied a second time, and the next chunk is no gap.
				rhdr.Set(ChunkSeqHeader, strconv.FormatInt(route.lastSeq, 10))
			}
			replayStart := time.Now()
			resp, _, err = rt.send(r.Context(), nb, http.MethodPost, "/v1/sessions/"+v.ID+"/events", rhdr, body, n)
			if err == nil {
				rt.stageReplay.Record(time.Since(replayStart))
				// 200 is the live replay; 400/409 reproduce a failed
				// session, which is equally exact.
				if !feedApplied(resp.StatusCode) {
					return &errBackendDeclined{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
				}
			}
		}
		if err != nil {
			if cerr := r.Context().Err(); cerr != nil {
				return cerr
			}
			nb.proxyErrors.Add(1)
			rt.markDown(nb, err)
			skip[nb] = true
			continue
		}
		rt.logger.Info("session failed over",
			"session", route.backendID, "backend", nb.name, "replayed_bytes", n)
		rt.replayedBytes.Add(n)
		route.b.Store(nb)
		route.backendID = v.ID
		rt.failovers.Add(1)
		nb.routed.Add(1)
		return nil
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
		rt.forwardFeed(w, r, route)
		return
	}
	rt.forwardOther(w, r, id, route)
}

// forwardRoute sends r on to route's backend, under the backend-local
// session id, and returns the backend that answered, its reply, and the
// reply body with the id rewritten to the client's. One failed request
// is re-sent to the same backend when retrySame allows; after that the
// backend is marked down and the session fails over, and the path is
// rebuilt for the new backend on every attempt. chunk is the request
// body; stream, when set, is the rest of it, never journaled, so losing
// the backend then costs the session. ok is false when forwardRoute has
// answered the client itself.
func (rt *Router) forwardRoute(w http.ResponseWriter, r *http.Request, route *sessionRoute, chunk []byte, stream io.Reader, retrySame bool) (*backend, *http.Response, []byte, bool) {
	suffix := ""
	if rest := r.PathValue("rest"); rest != "" {
		suffix = "/" + rest
	}
	if r.URL.RawQuery != "" {
		suffix += "?" + r.URL.RawQuery
	}
	attempts, retried, lost := 0, false, false
	for {
		b := route.b.Load()
		if lost || b == nil || !b.healthy.Load() {
			if err := rt.failoverLocked(r, route); err != nil {
				rt.respondFailoverError(w, err)
				return nil, nil, nil, false
			}
			b, lost = route.b.Load(), false
		}
		var body io.Reader
		n := int64(len(chunk))
		if stream != nil {
			body, n = io.MultiReader(bytes.NewReader(chunk), stream), r.ContentLength // n may be -1 (chunked)
		} else if chunk != nil {
			body = bytes.NewReader(chunk)
		}
		start := time.Now()
		resp, data, err := rt.send(r.Context(), b, r.Method, "/v1/sessions/"+route.backendID+suffix, r.Header, body, n)
		rt.stageProxy.Record(time.Since(start))
		if err == nil {
			if clientID := r.PathValue("id"); route.backendID != clientID {
				// The ids diverge after a failover.
				data = bytes.ReplaceAll(data, []byte(route.backendID), []byte(clientID))
			}
			b.routed.Add(1)
			return b, resp, data, true
		}
		if cerr := r.Context().Err(); cerr != nil {
			// The client gave up: that says nothing about the backend.
			unavailable(w, cerr.Error())
			return nil, nil, nil, false
		}
		b.proxyErrors.Add(1)
		if retrySame && !retried {
			// One transient fault (a doomed connection, an injected
			// error) should cost a retry, not a failover — and for a
			// session whose journal is already truncated, a failover
			// would cost the session itself.
			retried = true
			continue
		}
		rt.markDown(b, err)
		if stream != nil {
			// Part of the chunk went down with the connection and was
			// never journaled; the stream cannot be reproduced.
			rt.failoverFailures.Add(1)
			rt.respondFailoverError(w, errReplayHorizon)
			return nil, nil, nil, false
		}
		if attempts++; attempts > len(rt.backends) {
			rt.respondFailoverError(w, errNoBackend)
			return nil, nil, nil, false
		}
		lost = true // fail over even if the prober revives b meanwhile
	}
}

// feedApplied reports whether a feed response status can mean the backend
// consumed the chunk (and the journal must record it). 413/429/503
// rejections leave the session untouched; 200 is a live feed or one a
// done session discarded; 400/409 fail the session or report that it
// failed. A consuming status is necessary but not sufficient: 400/409 are
// also the backend's refusal statuses (bad seq header, chunk sequence
// gap), whose bodies are plain errors — the journaling path additionally
// requires the body to decode to a session view before recording the
// chunk.
func feedApplied(status int) bool {
	return status == http.StatusOK || status == http.StatusBadRequest || status == http.StatusConflict
}

// feedView decodes what the journal needs of a feed reply: the id, which
// only a session view carries — a gap or bad-header refusal is a plain
// error, and ok is false for it, since the backend did not consume that
// chunk — and the state and per-analysis rows that say whether the
// session is done. The timestamps and violations are left undecoded.
func feedView(data []byte) (v SessionView, ok bool) {
	var fv struct {
		ID       string                     `json:"id"`
		State    sessionState               `json:"state"`
		Analyses []aerodrome.AnalysisReport `json:"analyses"`
	}
	if json.Unmarshal(data, &fv) != nil || fv.ID == "" {
		return v, false
	}
	return SessionView{ID: fv.ID, State: fv.State, Analyses: fv.Analyses}, true
}

// forwardFeed is the journaled feed path: buffer the chunk (bounded by
// the journal's remaining capacity), forward it, and journal it once the
// backend acknowledged it. Chunks past the journal bound stream through
// unbuffered and cost the session its replay horizon.
func (rt *Router) forwardFeed(w http.ResponseWriter, r *http.Request, route *sessionRoute) {
	seq, ok := parseChunkSeq(r.Header)
	if !ok {
		writeError(w, http.StatusBadRequest, "bad "+ChunkSeqHeader+" header")
		return
	}
	var chunk []byte
	var stream io.Reader
	if route.journal.isFrozen() {
		// The session is done: the backend discards chunk bytes anyway, so
		// drain them here and forward an empty feed — it still refreshes
		// the backend's idle timer and returns the authoritative view.
		io.Copy(io.Discard, r.Body)
	} else {
		capLeft := route.journal.capLeft()
		var err error
		chunk, err = io.ReadAll(io.LimitReader(r.Body, capLeft+1))
		if err != nil {
			writeBodyError(w, err)
			return
		}
		if int64(len(chunk)) > capLeft {
			route.journal.truncate()
			rt.journalTruncated.Add(1)
			stream = r.Body
		}
	}
	// A sequence number makes even an applied-but-unacknowledged re-send
	// dedup at the backend, so only numbered chunks retry in place.
	b, resp, data, ok := rt.forwardRoute(w, r, route, chunk, stream, stream == nil && seq >= 0)
	if !ok {
		return
	}
	if stream == nil && feedApplied(resp.StatusCode) {
		// Journal exactly the chunks the backend consumed, once. The
		// body must be a session view: a 400/409 with an error body is
		// a refusal (chunk sequence gap, bad header) that left the
		// session untouched, so recording it would make a later replay
		// reproduce state containing a rejected chunk. Re-sent or stale
		// sequence numbers (seq <= lastSeq) were already recorded — the
		// backend answered those from its idempotency cache. A frozen
		// journal records no bytes, but lastSeq still follows the client,
		// so a failover primes the new backend where the client stands.
		if v, isView := feedView(data); isView {
			if seq < 0 || seq > route.lastSeq {
				route.journal.append(chunk)
				if seq >= 0 {
					route.lastSeq = seq
				}
			}
			if v.done() {
				route.journal.freeze()
			}
		}
	}
	relay(w, resp, data, b)
}

// forwardOther handles GET (snapshot) and DELETE (finalize) for a routed
// session. Both are bodyless and safe to re-send to the same backend: GET
// is idempotent, and a DELETE the backend applied before the connection
// died replays from its finalize cache instead of 404ing. A finished
// DELETE — or a backend 404, the session is gone — drops the route and
// frees its journal.
func (rt *Router) forwardOther(w http.ResponseWriter, r *http.Request, clientID string, route *sessionRoute) {
	b, resp, data, ok := rt.forwardRoute(w, r, route, nil, nil, true)
	if !ok {
		return
	}
	if r.Method == http.MethodDelete && resp.StatusCode == http.StatusOK ||
		resp.StatusCode == http.StatusNotFound {
		rt.forgetRoute(clientID)
	}
	relay(w, resp, data, b)
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

// pruneRoutes drops session routes idle past affinityTTL. Sessions that
// ended without a DELETE through the router (backend TTL eviction,
// abandoned clients) would otherwise leak an entry — and a journal —
// each.
func (rt *Router) pruneRoutes() {
	cutoff := time.Now().Add(-affinityTTL)
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
