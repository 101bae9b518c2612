package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"aerodrome/internal/server"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const rho2STD = `t1|begin|0
t2|begin|0
t1|w(x)|0
t2|r(x)|0
t2|w(y)|0
t1|r(y)|0
t1|end|0
t2|end|0
`

const rho1STD = `t1|begin|0
t1|w(x)|0
t2|begin|0
t2|r(x)|0
t2|end|0
t3|begin|0
t3|w(z)|0
t3|end|0
t1|r(z)|0
t1|end|0
`

func TestViolatingTrace(t *testing.T) {
	path := writeTemp(t, "rho2.std", rho2STD)
	for _, algo := range []string{"basic", "readopt", "optimized", "velodrome", "velodrome-pk", "doublechecker"} {
		var out, errOut bytes.Buffer
		code := run([]string{"-algo", algo, path}, &out, &errOut)
		if code != 1 {
			t.Fatalf("%s: exit = %d, want 1\n%s%s", algo, code, out.String(), errOut.String())
		}
		if !strings.Contains(out.String(), "NOT conflict serializable") {
			t.Fatalf("%s: output %q", algo, out.String())
		}
	}
}

func TestSerializableTrace(t *testing.T) {
	path := writeTemp(t, "rho1.std", rho1STD)
	var out, errOut bytes.Buffer
	code := run([]string{path}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "conflict serializable") {
		t.Fatalf("output %q", out.String())
	}
	if !strings.Contains(out.String(), "events:    10") {
		t.Fatalf("event count missing: %q", out.String())
	}
}

func TestQuietFlag(t *testing.T) {
	path := writeTemp(t, "rho1.std", rho1STD)
	var out, errOut bytes.Buffer
	if code := run([]string{"-q", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if strings.Contains(out.String(), "algorithm:") {
		t.Fatalf("-q must suppress the header: %q", out.String())
	}
}

func TestPipelineFlag(t *testing.T) {
	viol := writeTemp(t, "rho2.std", rho2STD)
	ok := writeTemp(t, "rho1.std", rho1STD)
	for _, algo := range []string{"optimized", "basic"} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-pipeline", "-algo", algo, ok}, &out, &errOut); code != 0 {
			t.Fatalf("%s: exit = %d\n%s%s", algo, code, out.String(), errOut.String())
		}
		if !strings.Contains(out.String(), "events:    10") {
			t.Fatalf("%s: event count missing: %q", algo, out.String())
		}
		out.Reset()
		if code := run([]string{"-pipeline", "-algo", algo, viol}, &out, &errOut); code != 1 {
			t.Fatalf("%s: exit = %d, want 1\n%s", algo, code, out.String())
		}
		if !strings.Contains(out.String(), "NOT conflict serializable") {
			t.Fatalf("%s: output %q", algo, out.String())
		}
	}
	// Malformed input still exits 2 through the pipeline.
	bad := writeTemp(t, "bad.std", "garbage\n")
	var out, errOut bytes.Buffer
	if code := run([]string{"-pipeline", bad}, &out, &errOut); code != 2 {
		t.Fatalf("malformed trace: exit %d", code)
	}
}

func TestParallelMode(t *testing.T) {
	ok := writeTemp(t, "rho1.std", rho1STD)
	viol := writeTemp(t, "rho2.std", rho2STD)
	var out, errOut bytes.Buffer
	code := run([]string{"-parallel", "2", ok, viol}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s%s", code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want one line per file:\n%s", out.String())
	}
	if !strings.Contains(lines[0], "rho1.std: conflict serializable (10 events") {
		t.Fatalf("line 0: %q", lines[0])
	}
	if !strings.Contains(lines[1], "rho2.std: NOT conflict serializable") {
		t.Fatalf("line 1: %q", lines[1])
	}

	// Per-file errors surface without hiding the other verdicts, exit 2.
	out.Reset()
	code = run([]string{"-parallel", "-1", ok, "/nonexistent/trace.std"}, &out, &errOut)
	if code != 2 {
		t.Fatalf("exit = %d, want 2\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "rho1.std: conflict serializable") ||
		!strings.Contains(out.String(), "error:") {
		t.Fatalf("output:\n%s", out.String())
	}

	// No files at all is a usage error.
	if code := run([]string{"-parallel", "4"}, &out, &errOut); code != 2 {
		t.Fatalf("no files: exit %d", code)
	}
}

// TestAlgoAliases: every name of the Algorithm 3 engine runs it, reports
// it and prints the same verdict line; an unknown name is a usage error.
func TestAlgoAliases(t *testing.T) {
	viol := writeTemp(t, "rho2.std", rho2STD)
	var want string
	for _, algo := range []string{"optimized", "aerodrome", "auto", "hybrid", "treeclock"} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-algo", algo, viol}, &out, &errOut); code != 1 {
			t.Fatalf("%s: exit = %d, want 1\n%s%s", algo, code, out.String(), errOut.String())
		}
		if !strings.Contains(out.String(), "algorithm: aerodrome-optimized\n") {
			t.Fatalf("%s: output %q", algo, out.String())
		}
		verdict := out.String()[strings.Index(out.String(), "result:"):]
		if want == "" {
			want = verdict
		} else if verdict != want {
			t.Fatalf("%s: verdict %q, want %q", algo, verdict, want)
		}
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-algo", "quantum", viol}, &out, &errOut); code != 2 {
		t.Fatalf("unknown algo: exit = %d, want 2", code)
	}
}

// TestServeDefaultAlgorithm boots -serve without -algo and requires the
// in-process daemon to run the Algorithm 3 engine by default.
func TestServeDefaultAlgorithm(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	var logs bytes.Buffer
	exit := make(chan int, 1)
	go func() { exit <- run([]string{"-serve", addr}, io.Discard, &logs) }()
	var resp *http.Response
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if resp, err = http.Post("http://"+addr+"/v1/check", "text/plain", strings.NewReader(rho1STD)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("-serve never answered: %v\n%s", err, logs.String())
		}
	}
	var rep struct {
		Algorithm string `json:"algorithm"`
	}
	err = json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Algorithm != "aerodrome-optimized" {
		t.Fatalf("-serve default algorithm %q, want aerodrome-optimized", rep.Algorithm)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit = %d after SIGTERM\n%s", code, logs.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("-serve did not drain after SIGTERM\n%s", logs.String())
	}
}

// TestRemoteMode fronts an in-process aerodromed and requires the client
// mode to render remote verdicts exactly like local checks, with the same
// exit codes.
func TestRemoteMode(t *testing.T) {
	s, err := server.New(server.Config{Algorithm: "readopt"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	ok := writeTemp(t, "rho1.std", rho1STD)
	viol := writeTemp(t, "rho2.std", rho2STD)

	var out, errOut bytes.Buffer
	if code := run([]string{"-remote", ts.URL, ok}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "events:    10") ||
		!strings.Contains(out.String(), "result: conflict serializable") {
		t.Fatalf("output %q", out.String())
	}
	// With -algo unset, the server's configured default (readopt here)
	// must apply rather than the CLI's local "optimized" flag default.
	if !strings.Contains(out.String(), "aerodrome-readopt") {
		t.Fatalf("server default algorithm not applied: %q", out.String())
	}

	out.Reset()
	if code := run([]string{"-remote", ts.URL, "-algo", "basic", viol}, &out, &errOut); code != 1 {
		t.Fatalf("exit = %d, want 1\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "NOT conflict serializable") ||
		!strings.Contains(out.String(), "aerodrome-basic") {
		t.Fatalf("output %q", out.String())
	}

	// Remote failures are input errors: unknown algo, malformed trace,
	// unreachable server.
	out.Reset()
	if code := run([]string{"-remote", ts.URL, "-algo", "bogus", ok}, &out, &errOut); code != 2 {
		t.Fatalf("unknown algo via remote: exit %d", code)
	}
	bad := writeTemp(t, "bad.std", "garbage\n")
	if code := run([]string{"-remote", ts.URL, bad}, &out, &errOut); code != 2 {
		t.Fatalf("malformed trace via remote: exit %d", code)
	}
	if code := run([]string{"-remote", "http://127.0.0.1:1", ok}, &out, &errOut); code != 2 {
		t.Fatalf("unreachable server: exit %d", code)
	}
	if code := run([]string{"-remote", ts.URL, "a", "b"}, &out, &errOut); code != 2 {
		t.Fatalf("extra args: exit %d", code)
	}
}

func TestErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-algo", "bogus", "x"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown algo: exit %d", code)
	}
	if code := run([]string{"-format", "bogus", "x"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown format: exit %d", code)
	}
	if code := run([]string{"a", "b"}, &out, &errOut); code != 2 {
		t.Fatalf("extra args: exit %d", code)
	}
	if code := run([]string{"/nonexistent/file"}, &out, &errOut); code != 2 {
		t.Fatalf("missing file: exit %d", code)
	}
	bad := writeTemp(t, "bad.std", "not a trace line\n")
	if code := run([]string{bad}, &out, &errOut); code != 2 {
		t.Fatalf("malformed trace: exit %d", code)
	}
}

// TestBinarySignTargetRejected: a 24-byte ADB1 input whose one record has
// target 0x80000001 is a parse error (exit 2) on the sequential and the
// pipelined path, not a negative-index panic inside the engine.
func TestBinarySignTargetRejected(t *testing.T) {
	rec := []byte("ADB1\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00" +
		"\x00\x00\x02\x00\x01\x00\x00\x80")
	path := writeTemp(t, "sign.bin", string(rec))
	for _, pipeArgs := range [][]string{nil, {"-pipeline"}} {
		var out, errOut bytes.Buffer
		args := append(append([]string{"-format", "bin"}, pipeArgs...), path)
		if code := run(args, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "record 0") {
			t.Fatalf("%v: exit %d, stderr %q", args, code, errOut.String())
		}
	}
}

// dualSTD carries an atomicity violation with no race on x (lock-protected
// accesses split by another transaction) and a later write-write race on z
// — the two analyses latch at different trace points.
const dualSTD = `t1|begin|0
t1|acq(l)|0
t1|r(x)|0
t1|rel(l)|0
t2|acq(l)|0
t2|w(x)|0
t2|rel(l)|0
t1|acq(l)|0
t1|w(x)|0
t1|rel(l)|0
t1|end|0
t2|w(z)|0
t3|w(z)|0
`

func TestAnalysesFlagLocal(t *testing.T) {
	path := writeTemp(t, "dual.std", dualSTD)
	for _, pipeArgs := range [][]string{nil, {"-pipeline"}} {
		var out, errOut bytes.Buffer
		args := append(append([]string{}, pipeArgs...), "-analyses", "atomicity,hbrace", path)
		if code := run(args, &out, &errOut); code != 1 {
			t.Fatalf("%v: exit = %d, want 1\n%s%s", pipeArgs, code, out.String(), errOut.String())
		}
		if !strings.Contains(out.String(), "NOT conflict serializable") {
			t.Fatalf("%v: atomicity verdict missing: %q", pipeArgs, out.String())
		}
		if !strings.Contains(out.String(), "hbrace: data race") || !strings.Contains(out.String(), "write-write") {
			t.Fatalf("%v: hbrace verdict missing: %q", pipeArgs, out.String())
		}
	}
	// A fully lock-protected trace is clean under both analyses. (rho1 is
	// serializable yet racy — its accesses are unsynchronized — so it can't
	// serve as the race-free case.)
	clean := writeTemp(t, "locked.std", `t1|begin|0
t1|acq(l)|0
t1|w(x)|0
t1|rel(l)|0
t1|end|0
t2|begin|0
t2|acq(l)|0
t2|r(x)|0
t2|rel(l)|0
t2|end|0
`)
	var out, errOut bytes.Buffer
	if code := run([]string{"-analyses", "hbrace", clean}, &out, &errOut); code != 0 {
		t.Fatalf("clean dual: exit = %d\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "hbrace: race free") {
		t.Fatalf("clean dual: %q", out.String())
	}
}

// TestAnalysesFlagRejectsUnknown pins the satellite fix: an unknown
// analysis name is a usage error (exit 2, valid set listed) in every mode
// — local and remote alike, before any request is sent.
func TestAnalysesFlagRejectsUnknown(t *testing.T) {
	path := writeTemp(t, "rho1.std", rho1STD)
	for _, args := range [][]string{
		{"-analyses", "bogus", path},
		{"-remote", "http://127.0.0.1:1", "-analyses", "bogus", path},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Fatalf("%v: exit = %d, want 2\n%s%s", args, code, out.String(), errOut.String())
		}
		if !strings.Contains(errOut.String(), "bogus") || !strings.Contains(errOut.String(), "atomicity, hbrace") {
			t.Fatalf("%v: rejection must name the bad analysis and the valid set: %q", args, errOut.String())
		}
	}
}

func TestAnalysesFlagRemote(t *testing.T) {
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	path := writeTemp(t, "dual.std", dualSTD)
	for _, extra := range [][]string{nil, {"-incremental", "-chunk-bytes", "7"}} {
		var out, errOut bytes.Buffer
		args := append([]string{"-remote", ts.URL, "-analyses", "atomicity,hbrace"}, extra...)
		if code := run(append(args, path), &out, &errOut); code != 1 {
			t.Fatalf("%v: exit = %d, want 1\n%s%s", extra, code, out.String(), errOut.String())
		}
		if !strings.Contains(out.String(), "NOT conflict serializable") ||
			!strings.Contains(out.String(), "hbrace: violation") {
			t.Fatalf("%v: output %q", extra, out.String())
		}
	}
}
