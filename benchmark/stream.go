package main

// stream-sessions: keyed incremental sessions through the shard router
// over two backends. A fixed number of sessions is live at a time, each
// pinned to one connection; their chunks arrive open-loop at one fixed
// rate, then back to back in a closed loop. A session whose last chunk was
// fed is finalized by DELETE and a new one opens in its place.

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"
)

// slot is one live-session position. Each slot belongs to one connection,
// and only that connection's goroutine touches it.
type slot struct {
	idx, conn int
	order     []int // pool index of each session the slot opens
	opened    int

	id, key  string
	in       *input
	chunks   [][]byte
	next     int
	events   int64 // events the session has checked so far
	traceID  uint64
	rootID   uint64
	openedAt time.Time
}

// streamTarget drives sessions through the router.
type streamTarget struct {
	e       *env
	url     string
	pool    []*input
	clients []*http.Client
	tr      *tracer
}

func chunk(data []byte, size int) [][]byte {
	var out [][]byte
	for len(data) > size {
		out = append(out, data[:size])
		data = data[size:]
	}
	return append(out, data)
}

// open creates the slot's next session.
func (t *streamTarget) open(s *slot) error {
	s.in = t.pool[s.order[s.opened%len(s.order)]]
	s.chunks, s.next, s.events = chunk(s.in.data, t.e.scale.chunkBytes), 0, 0
	s.key = fmt.Sprintf("bench-%d-%d-%d", t.e.seed, s.idx, s.opened)
	s.opened++
	s.openedAt = time.Now()
	s.traceID, s.rootID = t.tr.id(), t.tr.id()
	var v struct {
		ID string `json:"id"`
	}
	err := doJSON(t.clients[s.conn], http.MethodPost, t.url+"/v1/sessions", nil,
		map[string]string{"X-Aerodrome-Trace": s.key}, http.StatusCreated, &v)
	s.id = v.ID
	return err
}

// feed sends the slot's next chunk and returns when the answer arrived.
func (t *streamTarget) feed(s *slot) (time.Time, error) {
	start := time.Now()
	var view wireReport
	err := doJSON(t.clients[s.conn], http.MethodPost, t.url+"/v1/sessions/"+s.id+"/events", s.chunks[s.next],
		map[string]string{"X-Aerodrome-Trace": s.key, "X-Aerodrome-Chunk-Seq": strconv.Itoa(s.next)},
		http.StatusOK, &view)
	done := time.Now()
	t.tr.add(s.traceID, t.tr.id(), s.rootID, "http.feed", start, done, map[string]any{
		"events": view.Events - s.events, "bytes": len(s.chunks[s.next]), "seq": s.next,
	})
	if err != nil {
		return done, err
	}
	if view.State != "active" && view.State != "violated" {
		return done, wrong("session %s chunk %d: state %q", s.key, s.next, view.State)
	}
	s.next++
	s.events = view.Events
	return done, nil
}

// finalize closes the slot's fully fed session and pins its final report.
// It returns the events the final flush added.
func (t *streamTarget) finalize(s *slot) (int64, error) {
	start := time.Now()
	var rep wireReport
	err := doJSON(t.clients[s.conn], http.MethodDelete, t.url+"/v1/sessions/"+s.id, nil,
		map[string]string{"X-Aerodrome-Trace": s.key}, http.StatusOK, &rep)
	done := time.Now()
	t.tr.add(s.traceID, t.tr.id(), s.rootID, "http.finalize", start, done, map[string]any{"events": rep.Events - s.events})
	t.tr.add(s.traceID, s.rootID, 0, "http.session", s.openedAt, done, map[string]any{"chunks": s.next, "key": s.key})
	if err != nil {
		return 0, err
	}
	return rep.Events - s.events, checkReport("session "+s.key, rep, s.in.ref, nil)
}

// newSlots opens one session per slot.
func (t *streamTarget) newSlots(salt int64) ([]*slot, error) {
	slots := make([]*slot, t.e.scale.liveSessions)
	for i := range slots {
		slots[i] = &slot{idx: i, conn: i % conns, order: picks(t.e.seed*104729+salt*31+int64(i), 4096, len(t.pool))}
		if err := t.open(slots[i]); err != nil {
			return nil, err
		}
	}
	return slots, nil
}

// closeSlots feeds every session still open at the end of a phase to its
// end, untimed, and finalizes it, so that every session's verdict is
// pinned.
func (t *streamTarget) closeSlots(slots []*slot) error {
	for _, s := range slots {
		for s.next < len(s.chunks) {
			if _, err := t.feed(s); err != nil {
				return err
			}
		}
		if _, err := t.finalize(s); err != nil {
			return err
		}
	}
	return nil
}

// streamPhase is one fixed-rate phase's outcome.
type streamPhase struct {
	load     loadResult
	verdicts []float64 // ms from the last chunk's due time to the final report
}

// fixedRate feeds chunks open-loop at rate for d.
func (t *streamTarget) fixedRate(salt int64, rate float64, d time.Duration) (streamPhase, error) {
	slots, err := t.newSlots(salt)
	if err != nil {
		return streamPhase{}, err
	}
	verdicts := make([][]float64, len(slots)) // per slot: one writer each
	live := len(slots)
	sched := poissonSchedule(t.e.seed*7919+salt, rate, d)
	load := openLoop(sched, conns, func(i int) int { return slots[i%live].conn }, func(_, i int, due time.Time) (time.Time, error) {
		s := slots[i%live]
		done, err := t.feed(s)
		if err != nil || s.next < len(s.chunks) {
			return done, err
		}
		if _, err := t.finalize(s); err != nil {
			return done, err
		}
		verdicts[s.idx] = append(verdicts[s.idx], float64(time.Since(due))/1e6)
		return done, t.open(s)
	})
	if err := t.closeSlots(slots); err != nil {
		return streamPhase{}, err
	}
	var all []float64
	for _, v := range verdicts {
		all = append(all, v...)
	}
	return streamPhase{load, all}, nil
}

// closed feeds chunks back to back on both connections for d and returns
// the events checked per second and each feed's latency.
func (t *streamTarget) closed(salt int64, d time.Duration) (float64, []float64, error) {
	slots, err := t.newSlots(salt)
	if err != nil {
		return 0, nil, err
	}
	var lat [conns][]float64
	work, elapsed, err := closedLoop(d, conns, func(c, k int) (int64, error) {
		s := slots[c+conns*(k%(len(slots)/conns))]
		before := s.events
		start := time.Now()
		if _, err := t.feed(s); err != nil {
			return 0, err
		}
		lat[c] = append(lat[c], float64(time.Since(start))/1e6)
		n := s.events - before
		if s.next < len(s.chunks) {
			return n, nil
		}
		added, err := t.finalize(s)
		if err != nil {
			return n, err
		}
		return n + added, t.open(s)
	})
	if err != nil {
		return 0, nil, err
	}
	if err := t.closeSlots(slots); err != nil {
		return 0, nil, err
	}
	return float64(work) / elapsed.Seconds(), append(lat[0], lat[1]...), nil
}

func runStream(e *env, res *result) error {
	sc := e.scale
	pool, err := renderAll(makePool(e.seed, []int64{sc.streamEvents}, []int{sc.streamPool}, 0.2, 0))
	if err != nil {
		return err
	}
	if err := pinInputs(e, res, pool); err != nil {
		return err
	}
	if err := references(e, res.Workload, pool); err != nil {
		return err
	}
	// Backends must answer before the router starts: -probe-on-start
	// probes them once, before it serves.
	ds, setups, err := bootTimed(e,
		func() ([]*daemon, error) {
			var ds []*daemon
			for i := 0; i < 2; i++ {
				d, err := startDaemon(e.daemon)
				if err != nil {
					return ds, err
				}
				ds = append(ds, d)
				if err := waitHealthy(d.url, 30*time.Second); err != nil {
					return ds, err
				}
			}
			r, err := startDaemon(e.daemon, "-shard", "-probe-on-start", "-backends", ds[0].url+","+ds[1].url)
			return append(ds, r), err
		},
		func(ds []*daemon) error {
			_, err := checkOne(control, ds[2].url, pool[0])
			return err
		})
	if err != nil {
		return err
	}
	defer stopAll(ds)
	t := &streamTarget{e: e, url: ds[2].url, pool: pool, clients: newConnClients()}
	defer closeClients(t.clients)

	box := probeMs(5)
	fixedD := e.phase(0.5)
	ph, err := t.fixedRate(1, sc.streamChunksPerS, fixedD)
	if err != nil {
		return err
	}
	if ph.load.wrong != nil {
		return ph.load.wrong
	}
	if ph.load.debt > 0 {
		return fmt.Errorf("run void: %d chunks found the queue full at %.0f chunks/s; the box stalled", ph.load.debt, sc.streamChunksPerS)
	}
	res.step("fixed rate", len(ph.load.samples), fixedD)
	res.step("finalizes", len(ph.verdicts), fixedD)
	closedD := e.phase(0.5)
	tput, closedMs, err := t.closed(2, closedD)
	if err != nil {
		return fmt.Errorf("closed loop: %w", err)
	}
	res.step("closed loop", len(closedMs), closedD)
	res.count(ph.load)
	res.Attempted += len(closedMs)

	box = append(box, probeMs(5)...)
	rss, err := peakRSSAll(ds)
	if err != nil {
		return err
	}
	feedMs := ph.load.latencies()
	res.put("throughput_mev_s", single(tput/1e6, "Mevents/s", "higher", len(closedMs)))
	res.put("p50_ms", single(median(closedMs), "ms", "lower", len(closedMs)))
	res.put("p90_ms", single(quantile(closedMs, 0.9), "ms", "lower", len(closedMs)))
	res.put("peak_rss_mib", single(rss, "MiB", "lower", len(ds)))
	res.put("setup_s", timing(setups, "s", "lower"))
	res.put("box.probe_ms", timing(box, "ms", "lower"))
	res.put("feed_p50_ms", single(median(feedMs), "ms", "lower", len(feedMs)))
	res.put("feed_p99_ms", single(quantile(feedMs, 0.99), "ms", "lower", len(feedMs)))
	res.put("verdict_p95_ms", single(quantile(ph.verdicts, 0.95), "ms", "lower", len(ph.verdicts)))

	if e.tr == nil {
		return nil
	}
	mark := e.tr.mark()
	urls := []string{ds[0].url, ds[1].url}
	before, err := scrapeSum(urls...)
	if err != nil {
		return err
	}
	rBefore, err := scrapeProm(t.url)
	if err != nil {
		return err
	}
	// The journal is empty between phases; read its gauge mid-phase.
	journal := make(chan float64, 1)
	go func() {
		time.Sleep(fixedD / 4)
		m, err := scrapeProm(t.url)
		if err != nil {
			journal <- math.NaN()
			return
		}
		journal <- m["aerodromed_router_journal_mem_bytes"]
	}()
	t.tr = e.tr
	traced, err := t.fixedRate(1, sc.streamChunksPerS, fixedD/2)
	t.tr = nil
	journalBytes := <-journal
	if err != nil {
		return err
	}
	if traced.load.wrong != nil {
		return traced.load.wrong
	}
	res.count(traced.load)
	after, err := scrapeSum(urls...)
	if err != nil {
		return err
	}
	rAfter, err := scrapeProm(t.url)
	if err != nil {
		return err
	}
	res.step("traced fixed rate", len(traced.load.samples), fixedD/2)
	engine, err := selectedEngine(ds[0].url)
	if err != nil {
		return err
	}
	all := make([][]byte, len(pool))
	for i, in := range pool {
		all[i] = in.data
	}
	l, err := runLedger(all, all, engine, sc.ledgerReps, e.tr)
	if err != nil {
		return err
	}
	putLedger(res, l)

	delta := func(m0, m1 map[string]float64, k string) float64 { return m1[k] - m0[k] }
	feedSum := delta(before, after, stage("aerodromed", "feed", "sum"))
	feedN := delta(before, after, stage("aerodromed", "feed", "count"))
	res.layer("server.feed_s", feedSum, "s")
	res.layer("server.finalize_s", delta(before, after, stage("aerodromed", "finalize", "sum")), "s")
	res.layer("server.rejected", delta(before, after, "aerodromed_sessions_rejected_total"), "count")
	proxySum := delta(rBefore, rAfter, stage("aerodromed_router", "proxy", "sum"))
	proxyN := delta(rBefore, rAfter, stage("aerodromed_router", "proxy", "count"))
	res.layer("router.proxy_s", proxySum, "s")
	res.layer("router.proxy_ms_per_req", proxySum/proxyN*1000, "ms")
	res.layer("router.journal_mem_bytes", journalBytes, "B")
	var proxyErrs float64
	for _, u := range urls {
		k := fmt.Sprintf(`aerodromed_router_backend_proxy_errors_total{backend="%s"}`, u)
		proxyErrs += delta(rBefore, rAfter, k)
	}
	res.layer("router.proxy_errors", proxyErrs, "count")
	tracedMs := traced.load.latencies()
	wait := mean(tracedMs) - feedSum/feedN*1000
	res.layer("server.wait_ms", wait, "ms")
	res.layer("surface.other_ms", wait, "ms")
	res.layer("gen.max_lag_ms", maxLagMs(ph.load, traced.load), "ms")
	res.layer("gen.debt", float64(ph.load.debt+traced.load.debt), "count")
	res.layer("trace_overhead_pct", overheadPct(median(tracedMs), median(feedMs)), "%")
	res.SelfTimes = selfTimes(e.tr.since(mark))
	return nil
}
