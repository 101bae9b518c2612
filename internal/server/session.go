package server

// The incremental session layer: one session is one network-attached
// IncrementalChecker — created by POST /v1/sessions, fed STD chunks by
// POST /v1/sessions/{id}/events, inspected by GET, finalized by DELETE,
// and evicted by the janitor when idle past the TTL. The session manager
// is the admission-control point: at most MaxSessions live at once
// (over-admission is rejected with 429, never queued), each chunk body is
// bounded, and concurrent feeds to one session are rejected busy rather
// than queued, because chunk order defines the trace.

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aerodrome"
)

// ChunkSeqHeader optionally numbers a feed chunk. When present, the
// session remembers the last sequence number it applied and the response
// it sent: re-POSTing the same sequence replays the cached response
// instead of feeding the chunk twice. This is what makes feed retries —
// a client that lost the response mid-read, or a router re-sending after
// failover — idempotent, which the fault-tolerant session plane depends
// on. Sequence numbers must be non-negative and strictly increasing per
// session; unnumbered chunks keep the old at-most-once semantics.
const ChunkSeqHeader = "X-Aerodrome-Chunk-Seq"

// parseChunkSeq extracts the chunk sequence number: (-1, true) when the
// header is absent, (seq, true) for a valid non-negative integer, and
// (0, false) for garbage.
func parseChunkSeq(h http.Header) (int64, bool) {
	v := h.Get(ChunkSeqHeader)
	if v == "" {
		return -1, true
	}
	seq, err := strconv.ParseInt(v, 10, 64)
	if err != nil || seq < 0 {
		return 0, false
	}
	return seq, true
}

// sessionState is the lifecycle of one session.
type sessionState string

const (
	// stateActive: accepting events, no violation yet.
	stateActive sessionState = "active"
	// stateViolated: a violation latched; further chunks are accepted and
	// discarded (the sequential checker would have stopped reading).
	stateViolated sessionState = "violated"
	// stateFailed: a chunk was malformed; the session is terminal.
	stateFailed sessionState = "failed"
)

type session struct {
	id      string
	algo    string
	created time.Time
	// analyses is the session's effective analysis set; multi is true when
	// it is anything other than the default ["atomicity"], switching the
	// wire format to include per-analysis verdicts and the feed loop to
	// stream until every analysis has latched.
	analyses []aerodrome.AnalysisKind
	multi    bool
	// tenant owns this session's quota slot, released on finalization.
	tenant *tenant

	// feedMu serializes the event stream: at most one feed — or the
	// finalizing Close — drives the checker at a time. Feed handlers use
	// TryLock: a concurrent chunk to the same session is a client
	// protocol error (chunk order defines the trace), answered 429
	// rather than queued.
	feedMu  sync.Mutex
	checker *aerodrome.IncrementalChecker // guarded by feedMu
	// engineSettled is the portion of the checker's engine introspection
	// counters already folded into the server aggregate; the delta since
	// it is settled at every feed and finalize boundary. Guarded by
	// feedMu (reading the counters touches the engine).
	engineSettled aerodrome.EngineStats

	// mu guards only the snapshot fields below, which the feed loop
	// refreshes per block — so GET, the janitor scan and metrics never
	// wait behind a slow upload holding feedMu. Lock order: feedMu may
	// be held while taking mu, never the reverse.
	mu         sync.Mutex
	lastActive time.Time
	state      sessionState
	parseErr   error
	events     int64
	viol       *aerodrome.Violation
	// analysesSnap is the latest per-analysis snapshot (multi sessions
	// only), refreshed per feed block so GET never waits behind feedMu.
	analysesSnap []aerodrome.AnalysisReport
	// violCounted marks analyses whose first violation was already settled
	// into the per-analysis metrics, so block-by-block snapshot refreshes
	// count each at most once.
	violCounted map[string]bool
	// removed is set (under mu) when the session leaves the table — by
	// DELETE, eviction or server close. A feed that raced the removal
	// must see it and stop rather than stream into a finalized checker.
	removed bool

	// Feed idempotency cache (under mu): the last applied chunk sequence
	// number and the exact response bytes it was answered with. One entry
	// suffices — retries target the most recent chunk, and sequence
	// numbers are strictly increasing.
	lastSeq       int64
	lastSeqStatus int
	lastSeqResp   []byte
}

// SessionView is the JSON shape of GET /v1/sessions/{id} and the feed
// response.
type SessionView struct {
	ID        string               `json:"id"`
	Algorithm string               `json:"algorithm"`
	State     sessionState         `json:"state"`
	Events    int64                `json:"events"`
	Violation *aerodrome.Violation `json:"violation,omitempty"`
	// Analyses carries the per-analysis verdicts of a multi-analysis
	// session; omitted for the default atomicity-only set, whose view
	// stays byte-identical to the single-analysis service.
	Analyses   []aerodrome.AnalysisReport `json:"analyses,omitempty"`
	Error      string                     `json:"error,omitempty"`
	Created    time.Time                  `json:"created"`
	LastActive time.Time                  `json:"last_active"`
}

// view snapshots the session from the cached fields only — no checker
// access, so it is safe (and fast) while a feed is in flight. Callers
// hold s.mu.
func (s *session) view() SessionView {
	v := SessionView{
		ID:         s.id,
		Algorithm:  s.algo,
		State:      s.state,
		Events:     s.events,
		Violation:  s.viol,
		Created:    s.created,
		LastActive: s.lastActive,
	}
	if s.multi {
		v.Analyses = s.analysesSnap
	}
	if s.parseErr != nil {
		v.Error = s.parseErr.Error()
	}
	return v
}

func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("server: session id entropy: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// handleSessionCreate is POST /v1/sessions.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var body io.Reader
	if r.ContentLength != 0 {
		body = http.MaxBytesReader(w, r.Body, 1<<16)
	}
	opts, err := decodeOptions(r.URL.Query(), body, s.cfg.Algorithm)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	checker, err := aerodrome.NewIncrementalChecker(opts)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	// The tenant slot is taken before the global table insert and released
	// on any rejection path below; once the session is registered, the
	// slot is owned by finalizeSession.
	ten := s.tenant(r)
	if !ten.admitSession() {
		writeQuotaRejection(w, 0, "tenant session limit reached")
		return
	}

	analyses := checker.AnalysisSet()
	multi := !(len(analyses) == 1 && analyses[0] == aerodrome.AnalysisAtomicity)
	sess := &session{
		id:       newSessionID(),
		algo:     checker.Algorithm(),
		created:  time.Now(),
		analyses: analyses,
		multi:    multi,
		tenant:   ten,
		checker:  checker,
		state:    stateActive,
	}
	sess.lastActive = sess.created
	if multi {
		sess.analysesSnap = checker.Analyses()
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ten.releaseSession()
		writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		ten.releaseSession()
		s.metrics.sessionsRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "session limit reached")
		return
	}
	s.sessions[sess.id] = sess
	s.mu.Unlock()

	s.metrics.sessionsOpened.Add(1)
	ten.sessionsOpened.Add(1)
	s.metrics.sessionsActive.Add(1)
	s.metrics.selectEngine(sess.algo)
	for _, k := range sess.analyses {
		if ac := s.metrics.analyses[string(k)]; ac != nil {
			ac.sessions.Add(1)
		}
	}

	sess.mu.Lock()
	view := sess.view()
	sess.mu.Unlock()
	writeJSON(w, http.StatusCreated, view)
}

// lookupSession resolves {id} or answers 404.
func (s *Server) lookupSession(w http.ResponseWriter, r *http.Request) *session {
	id := r.PathValue("id")
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		writeError(w, http.StatusNotFound, "no such session")
	}
	return sess
}

// handleSessionEvents is POST /v1/sessions/{id}/events: one STD chunk in,
// the post-chunk snapshot out. The body is bounded by MaxBodyBytes; chunk
// boundaries need not align with line boundaries.
func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	seq, seqOK := parseChunkSeq(r.Header)
	if !seqOK {
		writeError(w, http.StatusBadRequest, "bad "+ChunkSeqHeader+" header: want a non-negative integer")
		return
	}
	if !sess.feedMu.TryLock() {
		// A feed is already in flight: reject before buffering anything —
		// chunks must be ordered, so queueing a concurrent one (or its
		// body bytes) would only hide a client protocol error.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "session busy: serialize event chunks")
		return
	}
	defer sess.feedMu.Unlock()

	// Retry of the last applied chunk: replay the cached response without
	// feeding (or billing) the body again. The check runs before byte
	// admission — a retried chunk was already debited when it was applied.
	if seq >= 0 {
		sess.mu.Lock()
		dup := sess.lastSeqResp != nil && seq == sess.lastSeq
		gap := sess.lastSeqResp != nil && !dup && seq != sess.lastSeq+1
		status, cached := sess.lastSeqStatus, sess.lastSeqResp
		if dup {
			sess.lastActive = time.Now()
		}
		sess.mu.Unlock()
		if dup {
			io.Copy(io.Discard, s.bodyReader(w, http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)))
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			w.Write(cached)
			return
		}
		if gap {
			// A sequence jump means chunks between lastSeq and seq were
			// applied somewhere this engine never saw them — e.g. a router
			// failed the session over elsewhere, then a restarted router
			// re-derived the original placement. Feeding past the hole
			// would silently produce a wrong verdict; refuse so the client
			// replays the trace from the start.
			io.Copy(io.Discard, s.bodyReader(w, http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)))
			writeError(w, http.StatusConflict, "chunk sequence gap: session state diverged, replay from the start")
			return
		}
	}

	// One chunk is one admission unit of the tenant's byte budget:
	// declared lengths are debited upfront, chunked bodies as they stream.
	// A chunk larger than the bucket capacity can never be admitted → 413.
	if ok, retry, never := sess.tenant.admitBytes(r.ContentLength); !ok {
		if never {
			writeError(w, http.StatusRequestEntityTooLarge, "chunk exceeds tenant byte budget capacity")
			return
		}
		writeQuotaRejection(w, retry, "tenant byte budget exhausted")
		return
	}
	var raw io.Reader = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if r.ContentLength < 0 {
		raw = &tenantBytesReader{r: raw, t: sess.tenant}
	}
	body := s.bodyReader(w, raw)
	sess.mu.Lock()
	if sess.removed {
		sess.mu.Unlock()
		// Lost a race with DELETE / eviction between lookup and lock.
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	sess.lastActive = time.Now()
	state, view := sess.state, sess.view()
	sess.mu.Unlock()
	// A failed session is terminal outright; a violated one is terminal
	// only once every requested analysis has latched — a multi-analysis
	// session whose race analysis is still live keeps consuming chunks
	// after the atomicity violation. (Reading checker.Done here is safe:
	// we hold feedMu.)
	if state == stateFailed || (state != stateActive && sess.checker.Done()) {
		// Terminal states accept and discard the chunk; drain it so the
		// client receives the snapshot instead of a connection reset
		// mid-upload (the per-read deadline still bounds a stalled drain).
		io.Copy(io.Discard, body)
		if state == stateFailed {
			s.writeFeedResult(w, sess, seq, http.StatusConflict, view)
			return
		}
		s.writeFeedResult(w, sess, seq, http.StatusOK, view)
		return
	}

	// Stream the body into the checker in fixed-size blocks: O(block)
	// extra memory per feed instead of a whole buffered chunk; the
	// snapshot fields refresh per block so GET and the janitor see live
	// state without waiting on feedMu; and every block read carries a
	// fresh deadline, so a stalled upload fails within BodyReadTimeout.
	// Chunks are stream fragments, not transactions: events already fed
	// when an upload dies stay fed.
	before := sess.checker.Processed()
	feedStart := time.Now()
	block := make([]byte, 64*1024)
	var v *aerodrome.Violation
	var ferr error
	removedMidFeed := false
	for {
		n, rerr := body.Read(block)
		if n > 0 {
			v, ferr = sess.checker.Feed(block[:n])
			var snap []aerodrome.AnalysisReport
			if sess.multi {
				// Snapshot per-analysis state while holding feedMu (it reads
				// the checker), then publish it under mu like the other
				// cached fields.
				snap = sess.checker.Analyses()
			}
			sess.mu.Lock()
			sess.lastActive = time.Now()
			sess.events = sess.checker.Processed()
			if sess.multi {
				sess.analysesSnap = snap
				s.countAnalysisViolationsLocked(sess, snap)
			}
			removedMidFeed = sess.removed
			sess.mu.Unlock()
			if ferr != nil || removedMidFeed || sess.checker.Done() {
				break
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			s.settleFeed(sess, before, feedStart)
			var budget *errTenantBudget
			if errors.As(rerr, &budget) {
				// Mid-stream exhaustion of a chunked feed: a prefix of the
				// chunk is already applied (chunks are stream fragments, not
				// transactions), so answer with the snapshot — its event
				// count tells the client exactly where to resume instead of
				// blindly retrying the whole chunk.
				secs := int64(budget.retryAfter/time.Second) + 1
				w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
				sess.mu.Lock()
				view := sess.view()
				sess.mu.Unlock()
				writeJSON(w, http.StatusTooManyRequests, view)
				return
			}
			if errors.Is(rerr, os.ErrDeadlineExceeded) {
				writeError(w, http.StatusRequestTimeout, "chunk upload stalled")
				return
			}
			writeBodyError(w, rerr)
			return
		}
	}
	s.settleFeed(sess, before, feedStart)
	if removedMidFeed {
		// DELETE or eviction signalled mid-stream; stop so the remover's
		// pending feedMu acquisition (and finalization) can proceed.
		writeError(w, http.StatusNotFound, "session closed during feed")
		return
	}
	if ferr != nil || v != nil {
		// Terminal mid-body: discard the tail for connection hygiene.
		io.Copy(io.Discard, body)
	}
	sess.mu.Lock()
	status := http.StatusOK
	switch {
	case ferr != nil:
		sess.state = stateFailed
		sess.parseErr = ferr
		status = http.StatusBadRequest
	case v != nil && sess.viol == nil:
		// Guarded on first sighting: a multi-analysis session keeps feeding
		// after the atomicity latch, and every later Feed returns the same
		// latched violation.
		sess.state = stateViolated
		sess.viol = v
		s.metrics.violationsTotal.Add(1)
		sess.tenant.violationsTotal.Add(1)
		s.countAnalysisViolationLocked(sess, string(aerodrome.AnalysisAtomicity))
	}
	view = sess.view()
	sess.mu.Unlock()
	s.writeFeedResult(w, sess, seq, status, view)
}

// countAnalysisViolationLocked settles one analysis' first violation into
// the per-analysis metrics, at most once per session. Callers hold sess.mu.
func (s *Server) countAnalysisViolationLocked(sess *session, name string) {
	if sess.violCounted == nil {
		sess.violCounted = map[string]bool{}
	}
	if sess.violCounted[name] {
		return
	}
	sess.violCounted[name] = true
	if ac := s.metrics.analyses[name]; ac != nil {
		ac.violations.Add(1)
	}
}

// countAnalysisViolationsLocked settles every non-clean entry of a
// per-analysis snapshot. Callers hold sess.mu.
func (s *Server) countAnalysisViolationsLocked(sess *session, snap []aerodrome.AnalysisReport) {
	for _, ar := range snap {
		if !ar.Clean {
			s.countAnalysisViolationLocked(sess, ar.Analysis)
		}
	}
}

// writeFeedResult writes one feed response and, when the chunk carried a
// sequence number, caches the exact response bytes under it for
// idempotent retries. Callers only reach here with statuses that mean
// the chunk was consumed (200 applied or discarded-terminal, 400/409
// terminal); rejections (429/503/408/413) bypass this path — the chunk
// was not applied, so its retry must run for real.
func (s *Server) writeFeedResult(w http.ResponseWriter, sess *session, seq int64, status int, view SessionView) {
	data, err := json.Marshal(view)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	// Trailing newline matches writeJSON's json.Encoder framing, so cached
	// replays are byte-identical to first-time responses.
	data = append(data, '\n')
	if seq >= 0 {
		sess.mu.Lock()
		sess.lastSeq, sess.lastSeqStatus, sess.lastSeqResp = seq, status, data
		sess.mu.Unlock()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
}

// countFeedEvents settles the events consumed by one feed into the global
// and per-tenant counters.
func (s *Server) countFeedEvents(sess *session, before int64) {
	delta := sess.checker.Processed() - before
	s.metrics.eventsTotal.Add(delta)
	sess.tenant.eventsTotal.Add(delta)
}

// settleFeed settles the outcome of one feed: events consumed,
// feed-stage latency, and the engine introspection delta since the last
// settlement. Callers hold sess.feedMu.
func (s *Server) settleFeed(sess *session, before int64, start time.Time) {
	s.countFeedEvents(sess, before)
	s.metrics.stageFeed.Record(time.Since(start))
	s.settleEngineStats(sess)
}

// settleEngineStats folds the checker's engine introspection activity
// since the previous settlement into the server-wide aggregate, so
// /metrics reflects long-running sessions while they stream rather than
// only after they finalize. Callers hold sess.feedMu.
func (s *Server) settleEngineStats(sess *session) {
	cur, ok := sess.checker.Stats()
	if !ok {
		return
	}
	s.metrics.addEngineStats(cur.Sub(sess.engineSettled))
	sess.engineSettled = cur
}

// handleSessionGet is GET /v1/sessions/{id}.
func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(w, r)
	if sess == nil {
		return
	}
	sess.mu.Lock()
	view := sess.view()
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

// finalizedTTL bounds the DELETE idempotency cache: a finalize response
// stays replayable this long after it was first sent. Comfortably longer
// than any client or router retry window, short enough that the cache
// stays a footnote next to live sessions.
const finalizedTTL = time.Minute

// finalizedReport is one cached DELETE response: the exact status and
// body bytes, replayed verbatim for retries of the same finalize.
type finalizedReport struct {
	status int
	body   []byte
	at     time.Time
}

// handleSessionDelete is DELETE /v1/sessions/{id}: finalize the stream (a
// trailing line without a newline is parsed) and return the final Report.
// Finalize is idempotent within finalizedTTL: DELETE is the one request
// whose lost response is unrecoverable any other way (the session is gone
// after the first application), so a re-sent DELETE replays the cached
// report instead of answering 404 as if the session never existed.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		s.replayFinalized(w, id)
		return
	}
	if !s.removeSession(sess.id) {
		// A concurrent DELETE or eviction got there first; exactly one
		// caller finalizes (and counts) the session.
		s.replayFinalized(w, id)
		return
	}
	rep, err := s.finalizeSession(sess, &s.metrics.sessionsClosed)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if err != nil {
		sess.state = stateFailed
		sess.parseErr = err
		s.writeDeleteResult(w, id, http.StatusBadRequest, sess.view())
		return
	}
	if !rep.Serializable && sess.state == stateActive {
		// The trailing flushed line completed a violation.
		sess.state = stateViolated
		sess.viol = rep.Violation
		s.metrics.violationsTotal.Add(1)
		sess.tenant.violationsTotal.Add(1)
		s.countAnalysisViolationLocked(sess, string(aerodrome.AnalysisAtomicity))
	}
	if len(rep.Analyses) > 0 {
		// The final flushed line may have latched a non-atomicity analysis;
		// refresh the cached snapshot and settle any last violations.
		sess.analysesSnap = rep.Analyses
		s.countAnalysisViolationsLocked(sess, rep.Analyses)
	}
	s.writeDeleteResult(w, id, http.StatusOK, rep)
}

// replayFinalized answers a DELETE for an id not in the session table:
// the cached finalize response when one exists (an idempotent retry),
// 404 otherwise.
func (s *Server) replayFinalized(w http.ResponseWriter, id string) {
	s.finalMu.Lock()
	fr, ok := s.finalized[id]
	s.finalMu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(fr.status)
	w.Write(fr.body)
}

// writeDeleteResult writes one finalize response and caches the exact
// bytes under the session id, so a retried DELETE replays byte-identical
// to the first.
func (s *Server) writeDeleteResult(w http.ResponseWriter, id string, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	// Trailing newline matches writeJSON's json.Encoder framing, so cached
	// replays are byte-identical to first-time responses.
	data = append(data, '\n')
	s.finalMu.Lock()
	s.finalized[id] = finalizedReport{status: status, body: data, at: time.Now()}
	s.finalMu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
}

// finalizeSession closes a session's checker after it has been removed
// from the table, settling the shared counters; counter is the terminal
// metric this path owns (closed vs evicted). The caller must have won
// removeSession. Sequence: signal any in-flight feed via the removed flag
// (it aborts at its next block), then take the stream lock — never while
// holding sess.mu, the feed loop acquires them in the opposite order.
func (s *Server) finalizeSession(sess *session, counter *atomic.Int64) (*aerodrome.Report, error) {
	sess.mu.Lock()
	sess.removed = true
	sess.mu.Unlock()
	sess.feedMu.Lock()
	defer sess.feedMu.Unlock()
	before := sess.checker.Processed()
	start := time.Now()
	rep, err := sess.checker.Close()
	s.metrics.stageFinalize.Record(time.Since(start))
	// Close may parse a final unterminated line; count those events too,
	// and settle the engine's remaining introspection delta.
	s.countFeedEvents(sess, before)
	s.settleEngineStats(sess)
	counter.Add(1)
	sess.tenant.releaseSession()
	sess.mu.Lock()
	sess.events = sess.checker.Processed()
	sess.mu.Unlock()
	return rep, err
}

// removeSession unregisters id and reports whether this call was the one
// that removed it — exactly one racing remover wins and owns finalizing
// the session (and its closed/evicted counter). The caller settles
// metrics besides the active gauge.
func (s *Server) removeSession(id string) bool {
	s.mu.Lock()
	_, ok := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if ok {
		s.metrics.sessionsActive.Add(-1)
	}
	return ok
}

// janitor evicts sessions idle past the TTL. It runs every ttl/4 (clamped
// to [10ms, 30s]) until the server closes.
func (s *Server) janitor(ttl time.Duration) {
	interval := ttl / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			s.pruneFinalized()
			cutoff := time.Now().Add(-ttl)
			s.mu.Lock()
			var idle []*session
			for _, sess := range s.sessions {
				if sess.mu.TryLock() {
					if sess.lastActive.Before(cutoff) {
						idle = append(idle, sess)
					}
					sess.mu.Unlock()
				}
			}
			s.mu.Unlock()
			for _, sess := range idle {
				// Re-check under the session lock: a feed acknowledged
				// between the scan and this point refreshed lastActive,
				// and evicting it anyway would lose an active session.
				// (Holding sess.mu while removeSession takes s.mu cannot
				// deadlock against the scan above: the scan only TryLocks.)
				sess.mu.Lock()
				if sess.removed || !sess.lastActive.Before(cutoff) {
					sess.mu.Unlock()
					continue
				}
				if !s.removeSession(sess.id) {
					sess.mu.Unlock()
					continue // a DELETE won the race and owns finalization
				}
				sess.mu.Unlock()
				s.finalizeSession(sess, &s.metrics.sessionsEvicted)
			}
		}
	}
}

// pruneFinalized drops finalize-cache entries past finalizedTTL; the
// janitor calls it each sweep so the cache tracks recent churn only.
func (s *Server) pruneFinalized() {
	cutoff := time.Now().Add(-finalizedTTL)
	s.finalMu.Lock()
	for id, fr := range s.finalized {
		if fr.at.Before(cutoff) {
			delete(s.finalized, id)
		}
	}
	s.finalMu.Unlock()
}

// isBodyTooLarge reports whether err is the MaxBytesReader limit.
func isBodyTooLarge(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}
