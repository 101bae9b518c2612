// Quickstart for the aerodromed service: boot the server in-process on an
// ephemeral port, check a whole trace through POST /v1/check, then stream
// the same trace through an incremental session — the two deployment modes
// of the daemon. See the README in this directory for running the real
// daemon and driving it with the CLI and curl.
//
//	go run ./examples/server
package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"aerodrome"
	"aerodrome/internal/server"
)

// rho2 is the paper's Figure 2 trace: two transactions whose write/read
// pairs cross on x and y — not conflict serializable.
const rho2 = `t1|begin|0
t2|begin|0
t1|w(x)|1
t2|r(x)|1
t2|w(y)|2
t1|r(y)|2
t1|end|0
t2|end|0
`

func main() {
	// Boot the daemon exactly as `aerodromed -addr 127.0.0.1:0` would.
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- server.RunDaemon(ctx, server.DaemonConfig{
			Addr:            "127.0.0.1:0",
			ShutdownTimeout: 5 * time.Second,
			Ready:           ready,
			Log:             os.Stderr,
		})
	}()
	addr := <-ready
	client := &server.Client{BaseURL: "http://" + addr}

	// Mode 1: one-shot — stream the whole trace, get the report.
	report, err := client.Check(strings.NewReader(rho2), aerodrome.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "check:", err)
		os.Exit(1)
	}
	fmt.Printf("one-shot: algorithm=%s events=%d serializable=%v\n",
		report.Algorithm, report.Events, report.Serializable)
	if report.Violation != nil {
		fmt.Printf("one-shot: violation at event %d (%s check)\n",
			report.Violation.EventIndex, report.Violation.Check)
	}

	// Mode 2: incremental — open a session and feed the trace line by
	// line, as a live system under monitoring would.
	sess, err := client.NewSession(aerodrome.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "session:", err)
		os.Exit(1)
	}
	for _, line := range strings.SplitAfter(rho2, "\n") {
		view, err := sess.Feed([]byte(line))
		if err != nil {
			fmt.Fprintln(os.Stderr, "feed:", err)
			os.Exit(1)
		}
		if view.Violation != nil {
			fmt.Printf("session: violation latched at event %d after %d events\n",
				view.Violation.EventIndex, view.Events)
			break
		}
	}
	if _, err := sess.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "close:", err)
		os.Exit(1)
	}

	// Health and metrics round out the operational surface.
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		fmt.Fprintln(os.Stderr, "metrics:", err)
		os.Exit(1)
	}
	resp.Body.Close()
	fmt.Printf("metrics: HTTP %d\n", resp.StatusCode)

	// SIGTERM-equivalent: cancel and wait for the graceful drain.
	stop()
	if err := <-done; err != nil {
		fmt.Fprintln(os.Stderr, "drain:", err)
		os.Exit(1)
	}
	fmt.Println("drained cleanly")
}
