package loadgen

// Targets: how one arrival becomes HTTP traffic. The check target posts
// a whole pre-rendered trace to /v1/check through the shared
// bench.RetryPolicy (so its retry/Retry-After semantics are the
// saturation bench's by construction, with Retry-After honored like a
// well-behaved production client); the session target drives long-lived
// keyed incremental sessions through server.Client, the reference
// implementation of the session-plane retry contract. Both pin the
// remote verdict against a locally computed report — a load run that
// returns wrong answers fast is a failure, not a throughput record.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"aerodrome"
	"aerodrome/internal/bench"
	"aerodrome/internal/server"
)

const (
	// loadBackoff is the flat retry delay; Retry-After stretches it when
	// the server asks, capped so one pathological header cannot wedge an
	// open-loop worker.
	loadBackoff   = 25 * time.Millisecond
	loadRetryCap  = 250 * time.Millisecond
	loadAttempts  = 6
	loadAlgorithm = "optimized"
)

// loadPolicy is the load harness's retry policy, shared with the
// saturation bench via internal/bench so the two cannot drift.
var loadPolicy = bench.RetryPolicy{
	Backoff:         loadBackoff,
	HonorRetryAfter: true,
	RetryAfterCap:   loadRetryCap,
}

// Expect is the locally computed verdict every remote answer is checked
// against.
type Expect struct {
	Serializable bool
	EventIndex   int64
	Check        string
	Events       int64
}

// ExpectFromReport derives the pin from a local reference report.
func ExpectFromReport(rep *aerodrome.Report) Expect {
	e := Expect{Serializable: rep.Serializable, Events: rep.Events}
	if rep.Violation != nil {
		e.EventIndex, e.Check = rep.Violation.EventIndex, rep.Violation.Check
	}
	return e
}

// matches reports whether a remote report agrees with the pin.
func (e Expect) matches(rep *aerodrome.Report) bool {
	if rep.Serializable != e.Serializable || rep.Events != e.Events {
		return false
	}
	if e.Serializable {
		return true
	}
	return rep.Violation != nil &&
		rep.Violation.EventIndex == e.EventIndex && rep.Violation.Check == e.Check
}

// CheckTarget posts one whole trace per arrival.
type CheckTarget struct {
	BaseURL string
	Data    []byte
	Expect  Expect
	// KeyPrefix salts the per-arrival trace routing key, so distinct
	// scenarios cannot collide on a router's session-affinity table.
	KeyPrefix string
	Client    *http.Client
}

func (t *CheckTarget) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return http.DefaultClient
}

// Do posts the trace, retrying retryable refusals under loadPolicy for
// at most loadAttempts tries. Exhausting retries is GaveUp (expected
// under deliberate overload); a verdict mismatch or non-retryable
// status is Hard.
func (t *CheckTarget) Do(_ int, a Arrival) Result {
	var res Result
	for attempt := 0; attempt < loadAttempts; attempt++ {
		req, err := http.NewRequest(http.MethodPost,
			t.BaseURL+"/v1/check?algo="+loadAlgorithm, bytes.NewReader(t.Data))
		if err != nil {
			res.Hard = true
			return res
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		req.Header.Set(server.DefaultTenantHeader, a.Tenant)
		// A per-arrival key spreads checks across a router's ring; a
		// rejected attempt re-posts under the same key (same trace, same
		// budget bucket) rather than budget-shopping.
		req.Header.Set(server.RouterTraceHeader,
			fmt.Sprintf("%s-%s-%d", t.KeyPrefix, a.Tenant, a.Seq))
		// No Expect: 100-continue here: against a server or transport
		// that never sends the interim response it stalls every admitted
		// check for the transport's ExpectContinueTimeout, silently
		// inflating each load-* latency row.
		resp, out := bench.Attempt(t.client(), req)
		switch out {
		case bench.OutcomeOK:
			var rep aerodrome.Report
			err := json.NewDecoder(resp.Body).Decode(&rep)
			resp.Body.Close()
			if err != nil || !t.Expect.matches(&rep) {
				res.Hard = true
				return res
			}
			res.OK, res.Events = true, rep.Events
			return res
		case bench.OutcomeRetryable:
			res.Rejections++
			delay := loadPolicy.Delay(resp)
			if resp != nil {
				io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
				resp.Body.Close()
			}
			// Backoff buys the *next* attempt room; after the last one
			// there is nothing to buy, and sleeping would hold the worker
			// slot (and stretch the gave-up latency) for nothing.
			if attempt < loadAttempts-1 {
				time.Sleep(delay)
			}
		default:
			resp.Body.Close()
			res.Hard = true
			return res
		}
	}
	return res // retries exhausted: GaveUp
}

// sessionState is one worker's live incremental session.
type sessionState struct {
	sess *server.Session
	next int // next chunk index to feed
	gen  int // session generation, salts the routing key
}

// SessionTarget drives long-lived incremental sessions: each worker
// owns one session and feeds it the next chunk per arrival; when the
// trace is exhausted the session is finalized, its report pinned
// against the local reference, and a fresh session (new routing key)
// opened. Worker affinity is what makes this safe: chunks carry
// strictly increasing sequence numbers per session, which a shared
// session across workers could not guarantee.
type SessionTarget struct {
	BaseURL string
	Chunks  [][]byte
	Expect  Expect
	// KeyPrefix salts per-session routing keys.
	KeyPrefix string
	Client    *http.Client

	states []*sessionState
}

// NewSessionTarget prepares per-worker slots for cfg.Workers workers.
func NewSessionTarget(cfg RunnerConfig, baseURL string, chunks [][]byte, exp Expect, keyPrefix string) *SessionTarget {
	return &SessionTarget{
		BaseURL: baseURL, Chunks: chunks, Expect: exp, KeyPrefix: keyPrefix,
		states: make([]*sessionState, cfg.workers()),
	}
}

func (t *SessionTarget) newClient(worker, gen int) *server.Client {
	return &server.Client{
		BaseURL:    t.BaseURL,
		TraceKey:   fmt.Sprintf("%s-w%d-g%d", t.KeyPrefix, worker, gen),
		HTTPClient: t.Client,
		Timeout:    5 * time.Second,
		RetryBase:  loadBackoff,
		RetryMax:   loadRetryCap,
	}
}

// Do feeds one chunk on the worker's session, opening or finalizing
// sessions at the trace boundaries. Session-plane errors after the
// client's own retries are Hard — unlike one-shot checks, the
// journaled failover plane promises these operations succeed.
func (t *SessionTarget) Do(worker int, a Arrival) Result {
	var res Result
	st := t.states[worker]
	if st == nil {
		c := t.newClient(worker, 0)
		c.Tenant = a.Tenant
		sess, err := c.NewSession(aerodrome.Options{Algorithm: loadAlgorithm})
		if err != nil {
			res.Rejections++
			return res // session slots exhausted: retry on a later arrival
		}
		st = &sessionState{sess: sess}
		t.states[worker] = st
	}
	if _, err := st.sess.Feed(t.Chunks[st.next]); err != nil {
		res.Hard = true
		return res
	}
	st.next++
	if st.next < len(t.Chunks) {
		res.OK = true
		return res
	}
	// Trace complete: finalize, pin the verdict, roll to a new session.
	rep, err := st.sess.Close()
	if err != nil || !t.Expect.matches(rep) {
		res.Hard = true
		return res
	}
	res.OK, res.Events = true, rep.Events
	gen := st.gen + 1
	c := t.newClient(worker, gen)
	c.Tenant = a.Tenant
	sess, err := c.NewSession(aerodrome.Options{Algorithm: loadAlgorithm})
	if err != nil {
		t.states[worker] = nil
		res.Rejections++
		return res
	}
	t.states[worker] = &sessionState{sess: sess, gen: gen}
	return res
}

// Close finalizes any sessions still open at end of run; their partial
// traces are discarded (no verdict pin — the trace is incomplete).
func (t *SessionTarget) Close() {
	for i, st := range t.states {
		if st != nil {
			st.sess.Close()
			t.states[i] = nil
		}
	}
}

// Prime verifies connectivity by running one admitted check within
// budget, retrying retryable refusals — fault injection can hit the
// very first request. It returns an error only once the budget is
// spent or a hard status arrives.
func Prime(client *http.Client, baseURL string, data []byte, budget time.Duration) error {
	if client == nil {
		client = http.DefaultClient
	}
	deadline := time.Now().Add(budget)
	var lastErr error
	for time.Now().Before(deadline) {
		req, err := http.NewRequest(http.MethodPost,
			baseURL+"/v1/check?algo="+loadAlgorithm, bytes.NewReader(data))
		if err != nil {
			return err
		}
		resp, out := bench.Attempt(client, req)
		switch out {
		case bench.OutcomeOK:
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return nil
		case bench.OutcomeRetryable:
			if resp != nil {
				lastErr = fmt.Errorf("HTTP %d", resp.StatusCode)
				resp.Body.Close()
			} else {
				lastErr = fmt.Errorf("transport error")
			}
			// A backoff that would cross the deadline buys no further
			// attempt — fail now instead of sleeping past the budget.
			delay := loadPolicy.Delay(resp)
			if !time.Now().Add(delay).Before(deadline) {
				return fmt.Errorf("prime: no admitted check within %v (last: %v)", budget, lastErr)
			}
			time.Sleep(delay)
		default:
			resp.Body.Close()
			return fmt.Errorf("prime: HTTP %d", resp.StatusCode)
		}
	}
	return fmt.Errorf("prime: no admitted check within %v (last: %v)", budget, lastErr)
}

// Failovers scrapes failovers_total from baseURL's /metrics — present
// on routers, zero elsewhere. Errors read as zero: the counter is
// reporting, not control flow.
func Failovers(client *http.Client, baseURL string) int64 {
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var m server.RouterMetricsSnapshot
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&m) != nil {
		return 0
	}
	return m.FailoversTotal
}
