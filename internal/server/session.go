package server

// The incremental session layer: one session is one network-attached
// IncrementalChecker — created by POST /v1/sessions, fed STD chunks by
// POST /v1/sessions/{id}/events, inspected by GET, finalized by DELETE,
// and evicted by the janitor when idle past the TTL. The session manager
// is the admission-control point: at most MaxSessions live at once
// (over-admission is rejected with 429, never queued), each chunk is
// admitted like a /v1/check body, and concurrent feeds to one session are
// rejected busy rather than queued, because chunk order defines the trace.
//
// What a session knows is what its checker knows. publish derives the
// session's one SessionView from the checker after every block of a feed
// and at finalize, and settles what changed into /metrics; GET and the
// janitor read that view and never touch the checker. A session is done
// (SessionView.done) once it failed or every analysis has latched: its
// later chunks are discarded, and the router stops journaling them.

import (
	"crypto/rand"
	"encoding/hex"
	"io"
	"net/http"
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
	// stateActive: accepting events, no atomicity violation yet.
	stateActive sessionState = "active"
	// stateViolated: the atomicity violation latched. The session is done
	// unless another requested analysis is still live.
	stateViolated sessionState = "violated"
	// stateFailed: a chunk was malformed; the session is done.
	stateFailed sessionState = "failed"
)

type session struct {
	id      string
	created time.Time
	// multi is true for any analysis set but the default ["atomicity"]: the
	// view then carries per-analysis verdicts.
	multi bool
	// tenant owns this session's quota slot, released on finalization.
	tenant *tenant

	// feedMu serializes the event stream: at most one feed — or the
	// finalizing Close — drives the checker at a time. Feed handlers use
	// TryLock: a concurrent chunk to the same session is a client
	// protocol error (chunk order defines the trace), answered 429
	// rather than queued.
	feedMu  sync.Mutex
	checker *aerodrome.IncrementalChecker // guarded by feedMu
	// engineSettled is the part of the checker's engine introspection
	// counters publish has folded into the server aggregate. Guarded by
	// feedMu (reading the counters touches the engine).
	engineSettled aerodrome.EngineStats

	// mu guards the fields below, so GET, the janitor scan and metrics
	// never wait behind a slow upload holding feedMu. Lock order: feedMu
	// may be held while taking mu, never the reverse.
	mu sync.Mutex
	// view is the session as of its last publish, the only writer (which
	// also holds feedMu, so publish reads it without mu).
	view SessionView
	// removed is set when the session leaves the table — by DELETE,
	// eviction or server close. A feed that raced the removal must see it
	// and stop rather than stream into a finalized checker.
	removed bool
	// Feed idempotency cache: the last applied chunk sequence number and
	// the reply it was answered with. One entry suffices — retries target
	// the most recent chunk, and sequence numbers are strictly increasing.
	lastSeq   int64
	lastReply reply
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

// done reports whether no later chunk can change the session's verdicts:
// it failed, or the atomicity engine, which every session runs, and every
// per-analysis row have latched. A default-set view has no rows, so there
// a violation is done. The backend's feed path and the router's journal
// both decide by this, from the state and the rows alone.
func (v SessionView) done() bool {
	if v.State != stateViolated {
		return v.State == stateFailed
	}
	for _, a := range v.Analyses {
		if a.Clean {
			return false
		}
	}
	return true
}

// current returns the session's last published view.
func (s *session) current() SessionView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.view
}

// publish derives the session's view from its checker — err is the
// terminal parse error the checker's last Feed or Close returned — and
// stores it, settling what changed since the previous view into
// /metrics: events, engine counters and first violations. It is the one
// writer of sess.view. removed reports whether the session has left the
// table. Callers hold sess.feedMu.
func (s *Server) publish(sess *session, err error) (v SessionView, removed bool) {
	c := sess.checker
	v = SessionView{
		ID:         sess.id,
		Algorithm:  c.Algorithm(),
		State:      stateActive,
		Events:     c.Processed(),
		Violation:  c.Violation(),
		Created:    sess.created,
		LastActive: time.Now(),
	}
	if sess.multi {
		v.Analyses = c.Analyses()
	}
	switch {
	case err != nil:
		v.State, v.Error = stateFailed, err.Error()
	case v.Violation != nil:
		v.State = stateViolated
	}

	prev := sess.view
	s.metrics.eventsTotal.Add(v.Events - prev.Events)
	sess.tenant.eventsTotal.Add(v.Events - prev.Events)
	if cur, ok := c.Stats(); ok {
		s.metrics.addEngineStats(cur.Sub(sess.engineSettled))
		sess.engineSettled = cur
	}
	if v.Violation != nil && prev.Violation == nil {
		s.metrics.violationsTotal.Add(1)
		sess.tenant.violationsTotal.Add(1)
		s.metrics.countViolation(string(aerodrome.AnalysisAtomicity))
	}
	for i, a := range v.Analyses {
		// Every row is clean at the create's publish, so prev has row i
		// whenever it is read. The atomicity row is the top-level
		// verdict, counted above.
		if !a.Clean && prev.Analyses[i].Clean && a.Analysis != string(aerodrome.AnalysisAtomicity) {
			s.metrics.countViolation(a.Analysis)
		}
	}

	sess.mu.Lock()
	sess.view, removed = v, sess.removed
	sess.mu.Unlock()
	return v, removed
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
	sess := &session{
		id:      newSessionID(),
		created: time.Now(),
		multi:   !(len(analyses) == 1 && analyses[0] == aerodrome.AnalysisAtomicity),
		tenant:  ten,
		checker: checker,
	}
	view, _ := s.publish(sess, nil)

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
	s.metrics.selectEngine(view.Algorithm)
	for _, k := range analyses {
		if ac := s.metrics.analyses[string(k)]; ac != nil {
			ac.sessions.Add(1)
		}
	}
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
// the post-chunk view out. The chunk is admitted like a /v1/check body;
// chunk boundaries need not align with line boundaries.
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

	// A retry of the last applied chunk replays its cached reply, and any
	// other number but the next is a gap; neither feeds (or bills) the
	// body — a retried chunk was already debited when it was applied.
	if seq >= 0 {
		sess.mu.Lock()
		last, cached := sess.lastSeq, sess.lastReply
		sess.mu.Unlock()
		if cached.body != nil && seq != last+1 {
			io.Copy(io.Discard, s.bodyReader(w, http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)))
			if seq == last {
				// A retry is activity: refresh the idle timer.
				_, err := sess.checker.Feed(nil)
				s.publish(sess, err)
				cached.write(w)
				return
			}
			// A sequence jump means chunks between lastSeq and seq were
			// applied somewhere this engine never saw them — e.g. a router
			// failed the session over elsewhere, then a restarted router
			// re-derived the original placement. Feeding past the hole
			// would silently produce a wrong verdict; refuse so the client
			// replays the trace from the start.
			writeError(w, http.StatusConflict, "chunk sequence gap: session state diverged, replay from the start")
			return
		}
	}

	in := s.admitBody(w, r, sess.tenant)
	if in == nil {
		return
	}
	sess.mu.Lock()
	before, removed := sess.view, sess.removed
	sess.mu.Unlock()
	if removed {
		// Lost a race with DELETE / eviction between lookup and lock.
		writeError(w, http.StatusNotFound, "no such session")
		return
	}

	// Stream the body into the checker in fixed-size blocks: O(block)
	// extra memory per feed instead of a whole buffered chunk, a view
	// published per block so GET and the janitor see live state without
	// waiting on feedMu, and a fresh read deadline per block. Chunks are
	// stream fragments, not transactions: events already fed when an
	// upload dies stay fed. A done session's checker discards what it is
	// fed, so its chunk costs one block read before the drain below.
	start := time.Now()
	block := make([]byte, 64*1024)
	var view SessionView
	var rerr error
	for {
		var n int
		n, rerr = in.Read(block)
		_, ferr := sess.checker.Feed(block[:n])
		if view, removed = s.publish(sess, ferr); removed || view.done() || rerr != nil {
			break
		}
	}
	if !before.done() {
		s.metrics.stageFeed.Record(time.Since(start))
	}
	switch {
	case removed:
		// DELETE or eviction signalled mid-stream; stop so the remover's
		// pending feedMu acquisition (and finalization) can proceed.
		writeError(w, http.StatusNotFound, "session closed during feed")
		return
	case !view.done() && rerr != io.EOF:
		in.refuse(w, rerr, view)
		return
	}
	if rerr == nil {
		// Done mid-chunk: drain the tail, so the client gets the view
		// rather than a connection reset mid-upload.
		io.Copy(io.Discard, in)
	}
	status := http.StatusOK
	if view.State == stateFailed {
		status = http.StatusBadRequest // this chunk failed the session
		if before.State == stateFailed {
			status = http.StatusConflict
		}
	}
	// Every status here means the chunk was consumed, so a numbered one
	// caches its reply; rejections (429/503/408/413) bypass the cache —
	// the chunk was not applied, so its retry must run for real.
	out := jsonReply(status, view)
	if seq >= 0 {
		sess.mu.Lock()
		sess.lastSeq, sess.lastReply = seq, out
		sess.mu.Unlock()
	}
	out.write(w)
}

// handleSessionGet is GET /v1/sessions/{id}.
func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	if sess := s.lookupSession(w, r); sess != nil {
		writeJSON(w, http.StatusOK, sess.current())
	}
}

// finalizedTTL bounds the DELETE idempotency cache: a finalize response
// stays replayable this long after it was first sent. Comfortably longer
// than any client or router retry window, short enough that the cache
// stays a footnote next to live sessions.
const finalizedTTL = time.Minute

// finalizedReport is one cached DELETE reply, replayed verbatim for
// retries of the same finalize.
type finalizedReport struct {
	reply
	at time.Time
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
	if sess == nil || !s.removeSession(id) {
		// Gone, or a concurrent DELETE or eviction got there first:
		// exactly one caller finalizes (and counts) the session, and a
		// retry replays its cached reply.
		s.finalMu.Lock()
		fr, ok := s.finalized[id]
		s.finalMu.Unlock()
		if !ok {
			writeError(w, http.StatusNotFound, "no such session")
			return
		}
		fr.write(w)
		return
	}
	var out reply
	if rep, err := s.finalizeSession(sess, &s.metrics.sessionsClosed); err != nil {
		out = jsonReply(http.StatusBadRequest, sess.current())
	} else {
		out = jsonReply(http.StatusOK, rep)
	}
	// Cached before it is sent, so a retry that follows a lost reply finds
	// it.
	s.finalMu.Lock()
	s.finalized[id] = finalizedReport{reply: out, at: time.Now()}
	s.finalMu.Unlock()
	out.write(w)
}

// finalizeSession closes a session's checker, parsing a final
// unterminated line, once the session has left the table, and publishes
// its last view; counter is the terminal metric this path owns (closed vs
// evicted). The caller must have won removeSession. Sequence:
// signal any in-flight feed via the removed flag (it aborts at its next
// block), then take the stream lock — never while holding sess.mu, the
// feed loop acquires them in the opposite order.
func (s *Server) finalizeSession(sess *session, counter *atomic.Int64) (*aerodrome.Report, error) {
	sess.mu.Lock()
	sess.removed = true
	sess.mu.Unlock()
	sess.feedMu.Lock()
	defer sess.feedMu.Unlock()
	start := time.Now()
	rep, err := sess.checker.Close()
	s.metrics.stageFinalize.Record(time.Since(start))
	s.publish(sess, err)
	counter.Add(1)
	sess.tenant.releaseSession()
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
					if sess.view.LastActive.Before(cutoff) {
						idle = append(idle, sess)
					}
					sess.mu.Unlock()
				}
			}
			s.mu.Unlock()
			for _, sess := range idle {
				// Re-check under the session lock: a feed published between
				// the scan and this point refreshed the view, and evicting
				// it anyway would lose an active session. (Holding sess.mu
				// while removeSession takes s.mu cannot deadlock against
				// the scan above: the scan only TryLocks.)
				sess.mu.Lock()
				if sess.removed || !sess.view.LastActive.Before(cutoff) {
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
