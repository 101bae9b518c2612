package main

// Daemon wiring tests: flag validation, boot on an ephemeral port, a real
// check over HTTP, and the SIGTERM drain path (the process sends itself
// the signal the deployment environment would).

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"aerodrome"
)

func TestUsageErrors(t *testing.T) {
	var logs bytes.Buffer
	if code := run([]string{"-algo", "bogus"}, &logs, nil); code != 2 {
		t.Fatalf("unknown algo: exit %d\n%s", code, logs.String())
	}
	if code := run([]string{"stray-arg"}, &logs, nil); code != 2 {
		t.Fatalf("stray argument: exit %d", code)
	}
	if code := run([]string{"-not-a-flag"}, &logs, nil); code != 2 {
		t.Fatalf("bad flag: exit %d", code)
	}
	if code := run([]string{"-shard"}, &logs, nil); code != 2 {
		t.Fatalf("-shard without -backends: exit %d", code)
	}
	if code := run([]string{"-backends", "http://x"}, &logs, nil); code != 2 {
		t.Fatalf("-backends without -shard: exit %d", code)
	}
}

// TestShardRouterDaemon boots two backend daemons and a router daemon over
// them, checks a trace through the router (asserting backend attribution),
// then SIGTERMs the process: every daemon must drain cleanly.
func TestShardRouterDaemon(t *testing.T) {
	var backendLogs [2]bytes.Buffer
	var routerLogs bytes.Buffer
	exits := make(chan int, 3)
	var urls []string
	for i := 0; i < 2; i++ {
		ready := make(chan string, 1)
		logs := &backendLogs[i]
		go func() { exits <- run([]string{"-addr", "127.0.0.1:0"}, logs, ready) }()
		select {
		case addr := <-ready:
			urls = append(urls, "http://"+addr)
		case <-time.After(10 * time.Second):
			t.Fatalf("backend %d never ready\n%s", i, logs.String())
		}
	}
	ready := make(chan string, 1)
	go func() {
		exits <- run([]string{"-shard", "-backends", strings.Join(urls, ","),
			"-addr", "127.0.0.1:0", "-probe-interval", "50ms"}, &routerLogs, ready)
	}()
	var routerAddr string
	select {
	case routerAddr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("router never ready\n%s", routerLogs.String())
	}

	req, err := http.NewRequest(http.MethodPost, "http://"+routerAddr+"/v1/check?trace=t-1",
		strings.NewReader("t0|begin|0\nt0|w(x)|1\nt0|end|0\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var rep aerodrome.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !rep.Serializable || rep.Events != 3 {
		t.Fatalf("routed report %+v, want serializable with 3 events", rep)
	}
	if got := resp.Header.Get("X-Aerodrome-Backend"); got != urls[0] && got != urls[1] {
		t.Fatalf("X-Aerodrome-Backend = %q, want one of %v", got, urls)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		select {
		case code := <-exits:
			if code != 0 {
				t.Fatalf("daemon exit = %d after SIGTERM, want 0\nrouter: %s\nb0: %s\nb1: %s",
					code, routerLogs.String(), backendLogs[0].String(), backendLogs[1].String())
			}
		case <-time.After(15 * time.Second):
			t.Fatal("a daemon did not drain after SIGTERM")
		}
	}
	if !strings.Contains(routerLogs.String(), "drained cleanly") {
		t.Fatalf("router drain log missing:\n%s", routerLogs.String())
	}
}

func TestServeCheckAndSigtermDrain(t *testing.T) {
	var logs bytes.Buffer
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-session-ttl", "1m"}, &logs, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon never became ready\n%s", logs.String())
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}

	resp, err = http.Post(base+"/v1/check", "text/plain",
		strings.NewReader("t0|begin|0\nt0|w(x)|1\nt0|end|0\n"))
	if err != nil {
		t.Fatal(err)
	}
	var rep aerodrome.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !rep.Serializable || rep.Events != 3 {
		t.Fatalf("report %+v, want serializable with 3 events", rep)
	}
	// The daemon default is the Algorithm 3 engine.
	if rep.Algorithm != "aerodrome-optimized" {
		t.Fatalf("algorithm %q, want the aerodrome-optimized default", rep.Algorithm)
	}

	// SIGTERM → graceful drain → exit 0.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit = %d after SIGTERM, want 0\n%s", code, logs.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not drain after SIGTERM\n%s", logs.String())
	}
	if !strings.Contains(logs.String(), "drained cleanly") {
		t.Fatalf("drain log missing:\n%s", logs.String())
	}
}
