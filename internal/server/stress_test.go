package server

// Concurrency and resource management: the acceptance bar is ≥64
// concurrent streaming sessions with verdicts byte-identical to
// sequential CheckSTD, over-admission rejected with 429/503 instead of
// queued, and a graceful drain that finishes in-flight checks. Run under
// -race in CI.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"aerodrome"
)

// TestConcurrentSessionStress runs 96 streaming sessions at once (each
// its own engine), interleaved with one-shot checks, and requires every
// verdict to be byte-identical to the sequential checker.
func TestConcurrentSessionStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	// Raise both admission caps well past the worker count: this test
	// measures correctness under concurrency, not rejection (that is
	// TestSessionAdmissionControl / TestCheckAdmissionControl).
	_, ts := newTestServer(t, Config{MaxSessions: 256, MaxConcurrentChecks: 128})

	type tc struct {
		name string
		std  []byte
		want *aerodrome.Report
	}
	var cases []tc
	for name, std := range goldenSTD(t) {
		cases = append(cases, tc{name, std, wantReport(t, std, aerodrome.Optimized)})
	}
	for name, std := range paperSTD(t) {
		cases = append(cases, tc{name, std, wantReport(t, std, aerodrome.Optimized)})
	}

	const workers = 96
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		c := cases[w%len(cases)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Vary chunk sizes per worker so line splits differ.
			chunk := 64 + 97*(w%13)
			client := &Client{BaseURL: ts.URL}
			sess, err := client.NewSession("")
			if err != nil {
				errs <- fmt.Errorf("worker %d: %v", w, err)
				return
			}
			for i := 0; i < len(c.std); i += chunk {
				end := i + chunk
				if end > len(c.std) {
					end = len(c.std)
				}
				if _, err := sess.Feed(c.std[i:end]); err != nil {
					errs <- fmt.Errorf("worker %d feed: %v", w, err)
					return
				}
			}
			rep, err := sess.Close()
			if err != nil {
				errs <- fmt.Errorf("worker %d close: %v", w, err)
				return
			}
			if rep.Serializable != c.want.Serializable || rep.Events != c.want.Events {
				errs <- fmt.Errorf("worker %d (%s): report %+v, want %+v", w, c.name, rep, c.want)
				return
			}
			if !rep.Serializable && rep.Violation.EventIndex != c.want.Violation.EventIndex {
				errs <- fmt.Errorf("worker %d (%s): violation at %d, want %d",
					w, c.name, rep.Violation.EventIndex, c.want.Violation.EventIndex)
				return
			}
			// One-shot checks ride along on every fourth worker (no
			// postCheck here: t.Fatal must not run off the test goroutine).
			if w%4 == 0 {
				resp, err := http.Post(ts.URL+"/v1/check", "application/octet-stream", bytes.NewReader(c.std))
				if err != nil {
					errs <- fmt.Errorf("worker %d check: %v", w, err)
					return
				}
				var got aerodrome.Report
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil {
					errs <- fmt.Errorf("worker %d check decode: %v", w, err)
					return
				}
				if resp.StatusCode != http.StatusOK || got.Serializable != c.want.Serializable {
					errs <- fmt.Errorf("worker %d (%s): check HTTP %d verdict %v, want %v",
						w, c.name, resp.StatusCode, got.Serializable, c.want.Serializable)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSessionAdmissionControl pins the 429 on over-admission and that
// closing a session frees its slot.
func TestSessionAdmissionControl(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: 2})
	client := &Client{BaseURL: ts.URL}
	s1, err := client.NewSession("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.NewSession(""); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-admission: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if _, err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.NewSession(""); err != nil {
		t.Fatalf("slot not freed after close: %v", err)
	}
}

// TestCheckAdmissionControl pins the 503 when MaxConcurrentChecks is
// saturated: one check is held in flight by a body that never finishes
// until we let it.
func TestCheckAdmissionControl(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrentChecks: 1})

	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/check", "text/plain", pr)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	// Hold the slot: write a first line, keep the body open.
	if _, err := pw.Write([]byte("t0|begin|0\n")); err != nil {
		t.Fatal(err)
	}

	// The slot is taken; a second check must be rejected 503 (poll briefly:
	// the first request races to the handler).
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Post(ts.URL+"/v1/check", "text/plain", strings.NewReader("t0|begin|0\nt0|end|0\n"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("saturated check never rejected: last HTTP %d", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Release the in-flight check; the slot frees and checks succeed again.
	pw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/check", "text/plain", strings.NewReader("t0|begin|0\nt0|end|0\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: HTTP %d, want 200", resp.StatusCode)
	}
}

// TestSessionBusyRejected pins the per-session no-queueing rule: while a
// feed is in flight, a concurrent feed answers 429 instead of piling up.
func TestSessionBusyRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	client := &Client{BaseURL: ts.URL}
	sess, err := client.NewSession("")
	if err != nil {
		t.Fatal(err)
	}
	// White box: hold the stream lock as an in-flight feed would. The
	// snapshot lock stays free, so GET must still answer immediately.
	s.mu.Lock()
	inner := s.sessions[sess.ID]
	s.mu.Unlock()
	inner.feedMu.Lock()
	gresp, err := http.Get(ts.URL + "/v1/sessions/" + sess.ID)
	if err != nil {
		inner.feedMu.Unlock()
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK {
		inner.feedMu.Unlock()
		t.Fatalf("GET during in-flight feed: HTTP %d, want 200", gresp.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/v1/sessions/"+sess.ID+"/events", "text/plain",
		strings.NewReader("t0|begin|0\n"))
	inner.feedMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("busy session: HTTP %d, want 429", resp.StatusCode)
	}
}

// TestSessionRemovalRaces pins the lookup/removal races: a feed that
// lost the race with DELETE answers 404 instead of silently dropping the
// chunk, and of two sequential DELETEs exactly one finalizes — the
// second replays the cached report (finalize is idempotent) and the
// closed counter moves once.
func TestSessionRemovalRaces(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	client := &Client{BaseURL: ts.URL}
	sess, err := client.NewSession("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	// Second DELETE: the session is gone, but the finalize cache replays
	// the report instead of 404ing (a retried Close must not surface a
	// successful finalize as a lost session).
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+sess.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second DELETE: HTTP %d, want 200 (cached finalize replay)", resp.StatusCode)
	}
	if got := s.metrics.sessionsClosed.Load(); got != 1 {
		t.Fatalf("sessions_closed = %d, want 1 (replay must not re-finalize)", got)
	}

	// Feed racing a removal: the handler's window is lookup-succeeded but
	// removal-finished-first. Reproduce that state exactly — session still
	// reachable for lookup, removed flag already set — and require the
	// feed to see it rather than dropping the chunk into the finalized
	// checker.
	sess2, err := client.NewSession("")
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	inner := s.sessions[sess2.ID]
	s.mu.Unlock()
	inner.mu.Lock()
	inner.removed = true
	inner.mu.Unlock()
	resp, err = http.Post(ts.URL+"/v1/sessions/"+sess2.ID+"/events", "text/plain",
		strings.NewReader("t0|begin|0\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("feed after removal: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestStalledUploadTimesOut pins the availability property behind the
// per-read body deadline: a client that stops sending mid-chunk gets 408
// within BodyReadTimeout, the session lock is released (snapshots answer
// again), and the session remains usable.
func TestStalledUploadTimesOut(t *testing.T) {
	_, ts := newTestServer(t, Config{BodyReadTimeout: 150 * time.Millisecond})
	client := &Client{BaseURL: ts.URL}
	sess, err := client.NewSession("")
	if err != nil {
		t.Fatal(err)
	}

	pr, pw := io.Pipe()
	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sessions/"+sess.ID+"/events", "text/plain", pr)
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	if _, err := pw.Write([]byte("t0|begin|0\nt0|w(")); err != nil {
		t.Fatal(err)
	}
	// ...and stall. The handler must give up on its own.
	select {
	case code := <-done:
		if code != http.StatusRequestTimeout {
			t.Fatalf("stalled upload: HTTP %d, want 408", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stalled upload never timed out")
	}
	pw.Close()

	// The session survived, kept the complete-line events, and accepts
	// the rest of the stream (the stalled partial line was buffered, and
	// stream semantics let the client resume mid-line).
	view, err := sess.Feed([]byte("x)|1\nt0|end|0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if view.State != stateActive || view.Events != 3 {
		t.Fatalf("post-stall view %+v, want active with 3 events", view)
	}
	rep, err := sess.Close()
	if err != nil || !rep.Serializable || rep.Events != 3 {
		t.Fatalf("post-stall close: %+v, %v", rep, err)
	}
}

// TestDaemonGracefulDrain boots the real daemon loop, holds a check in
// flight, cancels the daemon context (the SIGTERM path), and requires (a)
// new work to be rejected while draining, (b) the in-flight check to
// finish with a correct verdict, and (c) RunDaemon to return nil within
// the deadline.
func TestDaemonGracefulDrain(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	daemonErr := make(chan error, 1)
	go func() {
		daemonErr <- RunDaemon(ctx, DaemonConfig{
			Addr:            "127.0.0.1:0",
			ShutdownTimeout: 5 * time.Second,
			Ready:           ready,
		})
	}()
	addr := <-ready
	base := "http://" + addr

	// Hold one check in flight with a half-written body.
	pr, pw := io.Pipe()
	type result struct {
		rep *aerodrome.Report
		err error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v1/check", "text/plain", pr)
		if err != nil {
			inflight <- result{nil, err}
			return
		}
		defer resp.Body.Close()
		var rep aerodrome.Report
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			inflight <- result{nil, err}
			return
		}
		inflight <- result{&rep, nil}
	}()
	if _, err := pw.Write([]byte("t0|begin|0\nt0|w(x)|1\n")); err != nil {
		t.Fatal(err)
	}

	// Wait until the check is actually admitted — cancelling before the
	// handler passes the draining gate would get it rejected instead of
	// drained.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var m struct {
			Checks struct{ Active int64 } `json:"checks"`
		}
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if m.Checks.Active == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("in-flight check never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Begin the drain.
	cancel()

	// New work is rejected while draining (the listener may also already
	// be closed — both count as "not admitted").
	deadline = time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Post(base+"/v1/check", "text/plain", strings.NewReader("t0|begin|0\n"))
		if err != nil {
			break // listener closed
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain never started: last HTTP %d", code)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Finish the in-flight body: the drain must wait for it.
	if _, err := pw.Write([]byte("t0|end|0\n")); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	res := <-inflight
	if res.err != nil {
		t.Fatalf("in-flight check failed during drain: %v", res.err)
	}
	if !res.rep.Serializable || res.rep.Events != 3 {
		t.Fatalf("in-flight report %+v, want serializable with 3 events", res.rep)
	}

	select {
	case err := <-daemonErr:
		if err != nil {
			t.Fatalf("RunDaemon: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after drain")
	}
}
