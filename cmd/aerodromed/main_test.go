package main

// Daemon wiring tests: flag validation, boot on an ephemeral port, a real
// check over HTTP, and the SIGTERM drain path (the process sends itself
// the signal the deployment environment would).

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"aerodrome"
	"aerodrome/internal/server"
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

// getJSON decodes the JSON document at url into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// TestShardRouterDaemon boots two backend daemons with a per-tenant byte
// budget and a router daemon over them, and checks a trace through the
// router (asserting backend attribution). Then concurrent retrying clients
// of one tenant overrun the budget: every report must equal the local
// sequential one, the backends must have rejected bytes, and their 429s
// must neither bump the ring epoch nor mark a backend down. Last it
// SIGTERMs the process: every daemon must drain cleanly.
func TestShardRouterDaemon(t *testing.T) {
	// 12 KiB/s holds two checks of the ~5.9 KB golden trace in its
	// one-second bucket, so eight concurrent checks need about four
	// seconds of budget and most of them are refused 429 at least once.
	const bytesPerSec, tenant, checks = 12 << 10, "budget", 8
	data, err := os.ReadFile("../../testdata/golden/chain-cross.std")
	if err != nil {
		t.Fatal(err)
	}
	want, err := aerodrome.CheckSTD(bytes.NewReader(data), aerodrome.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Serializable {
		t.Fatal("chain-cross.std must carry a violation")
	}

	var backendLogs [2]bytes.Buffer
	var routerLogs bytes.Buffer
	exits := make(chan int, 3)
	var urls []string
	for i := 0; i < 2; i++ {
		ready := make(chan string, 1)
		logs := &backendLogs[i]
		go func() {
			exits <- run([]string{"-addr", "127.0.0.1:0",
				"-tenant-bytes-per-sec", strconv.Itoa(bytesPerSec)}, logs, ready)
		}()
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

	var before server.RouterMetricsSnapshot
	getJSON(t, "http://"+routerAddr+"/metrics", &before)
	reports := make([]*aerodrome.Report, checks)
	errs := make([]error, checks)
	var wg sync.WaitGroup
	for i := range checks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &server.Client{BaseURL: "http://" + routerAddr, Tenant: tenant, MaxRetries: 8}
			reports[i], errs[i] = c.Check(bytes.NewReader(data), aerodrome.Options{})
		}()
	}
	wg.Wait()
	for i := range checks {
		if errs[i] != nil {
			t.Fatalf("check %d under the byte budget: %v", i, errs[i])
		}
		if !reflect.DeepEqual(reports[i], want) {
			t.Fatalf("check %d report %+v, want CheckSTD's %+v", i, reports[i], want)
		}
	}
	var rejected int64
	for _, u := range urls {
		var m server.MetricsSnapshot
		getJSON(t, u+"/metrics", &m)
		rejected += m.Tenants[tenant]["bytes_rejected"]
	}
	if rejected == 0 {
		t.Fatalf("%d checks of %d bytes at %d B/s: no byte-budget rejection", checks, len(data), bytesPerSec)
	}
	t.Logf("%d checks of %d bytes at %d B/s: %d byte-budget rejections", checks, len(data), bytesPerSec, rejected)
	var after server.RouterMetricsSnapshot
	getJSON(t, "http://"+routerAddr+"/metrics", &after)
	if after.RingEpoch != before.RingEpoch {
		t.Fatalf("ring epoch %d -> %d: a 429 moved the ring", before.RingEpoch, after.RingEpoch)
	}
	for _, u := range urls {
		if !after.Backends[u].Healthy {
			t.Fatalf("backend %s marked down after 429s: %+v", u, after.Backends)
		}
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
