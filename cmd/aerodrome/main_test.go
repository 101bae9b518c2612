package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"aerodrome"
	"aerodrome/internal/rapidio"
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

// TestPipelineFlag: -pipeline is still accepted, for the scripts that
// pass it, and changes nothing but the timings.
func TestPipelineFlag(t *testing.T) {
	viol := writeTemp(t, "rho2.std", rho2STD)
	dual := writeTemp(t, "dual.std", dualSTD)
	bad := writeTemp(t, "bad.std", "garbage\n")
	for _, args := range [][]string{
		{viol},
		{"-algo", "basic", "-stats", viol},
		{"-analyses", "atomicity,hbrace", dual},
		{bad},
	} {
		var outs, errs [2]string
		var codes [2]int
		for i, pipeArgs := range [][]string{nil, {"-pipeline"}} {
			var out, errOut bytes.Buffer
			codes[i] = run(append(pipeArgs, args...), &out, &errOut)
			outs[i] = timings.ReplaceAllString(out.String(), "")
			errs[i] = errOut.String()
		}
		if codes[0] != codes[1] || outs[0] != outs[1] || errs[0] != errs[1] {
			t.Fatalf("%v: -pipeline changed the outcome: exit %d vs %d\n%s%s\nvs\n%s%s",
				args, codes[0], codes[1], outs[0], errs[0], outs[1], errs[1])
		}
	}
}

// timings matches the text of the output lines that differ between two
// runs of the same check: the wall time and, under -stats, the stage
// times.
var timings = regexp.MustCompile(`(?m)^(time|stages):.*$`)

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
// target 0x80000001 is a parse error (exit 2), not a negative-index panic
// inside the engine.
func TestBinarySignTargetRejected(t *testing.T) {
	rec := []byte("ADB1\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00" +
		"\x00\x00\x02\x00\x01\x00\x00\x80")
	path := writeTemp(t, "sign.bin", string(rec))
	var out, errOut bytes.Buffer
	if code := run([]string{"-format", "bin", path}, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "record 0") {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
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
	var out, errOut bytes.Buffer
	if code := run([]string{"-analyses", "atomicity,hbrace", path}, &out, &errOut); code != 1 {
		t.Fatalf("exit = %d, want 1\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "NOT conflict serializable") {
		t.Fatalf("atomicity verdict missing: %q", out.String())
	}
	if !strings.Contains(out.String(), "hbrace: data race") || !strings.Contains(out.String(), "write-write") {
		t.Fatalf("hbrace verdict missing: %q", out.String())
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
	out.Reset()
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

// wantLines renders what the CLI must print for a library report of the
// same trace: the events line and one verdict line per analysis, as
// patterns (the CLI's violation text also quotes the event, which the
// report does not carry).
func wantLines(rep *aerodrome.Report) []*regexp.Regexp {
	line := func(parts ...string) *regexp.Regexp {
		for i := range parts {
			parts[i] = regexp.QuoteMeta(parts[i])
		}
		return regexp.MustCompile(`(?m)^` + strings.Join(parts, `.*`) + `$`)
	}
	want := []*regexp.Regexp{line(fmt.Sprintf("events:    %d", rep.Events))}
	if v := rep.Violation; v != nil {
		want = append(want, line(
			fmt.Sprintf("result: NOT conflict serializable — %s: conflict serializability violation at event %d (", v.Algorithm, v.EventIndex),
			fmt.Sprintf("): %s check against thread t%d's active transaction", v.Check, v.Thread)))
	} else {
		want = append(want, line("result: conflict serializable (no atomicity violation)"))
	}
	for _, ar := range rep.Analyses {
		if ar.Analysis != string(aerodrome.AnalysisHBRace) {
			continue
		}
		if v := ar.Violation; v != nil {
			want = append(want, line(
				fmt.Sprintf("hbrace: data race — %s: data race at event %d (", v.Algorithm, v.EventIndex),
				fmt.Sprintf("): %s on x%d races thread t%d (%d events)", v.Check, *v.Target, *v.OtherThread, ar.Events)))
		} else {
			want = append(want, line(fmt.Sprintf("hbrace: race free (%d events)", ar.Events)))
		}
	}
	return want
}

// wantCode is the exit code of a check that produced rep.
func wantCode(rep *aerodrome.Report) int {
	for _, ar := range rep.Analyses {
		if !ar.Clean {
			return 1
		}
	}
	if !rep.Serializable {
		return 1
	}
	return 0
}

// requireMatches runs the CLI on args and requires its events line,
// verdict lines and exit code to be those of the library's sequential
// report rep.
func requireMatches(t *testing.T, args []string, rep *aerodrome.Report) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	if want := wantCode(rep); code != want {
		t.Errorf("%v: exit %d, want %d\n%s%s", args, code, want, out.String(), errOut.String())
	}
	for _, re := range wantLines(rep) {
		if !re.MatchString(out.String()) {
			t.Errorf("%v: no line matches %s:\n%s", args, re, out.String())
		}
	}
}

// TestLocalCheckMatchesLibrary pins the CLI's one local path, which
// parses and checks on separate goroutines, to the library's sequential
// checker, CheckSTD, over the golden corpus: with the default analysis
// and with atomicity plus hbrace.
func TestLocalCheckMatchesLibrary(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/golden/*.std")
	if err != nil || len(paths) == 0 {
		t.Fatalf("golden corpus: %v (%d files)", err, len(paths))
	}
	dual := []aerodrome.AnalysisKind{aerodrome.AnalysisAtomicity, aerodrome.AnalysisHBRace}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := aerodrome.CheckSTD(bytes.NewReader(data), aerodrome.Options{Algorithm: aerodrome.Optimized})
		if err != nil {
			t.Fatal(err)
		}
		requireMatches(t, []string{path}, rep)
		rep, err = aerodrome.CheckSTD(bytes.NewReader(data), aerodrome.Options{Algorithm: aerodrome.Optimized, Analyses: dual})
		if err != nil {
			t.Fatal(err)
		}
		requireMatches(t, []string{"-analyses", "atomicity,hbrace", path}, rep)
	}
}

// TestLocalCheckStdin: with no file argument the trace is read from
// standard input.
func TestLocalCheckStdin(t *testing.T) {
	f, err := os.Open(writeTemp(t, "rho2.std", rho2STD))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdin
	os.Stdin = f
	defer func() { os.Stdin = saved }()
	rep, err := aerodrome.CheckSTD(strings.NewReader(rho2STD), aerodrome.Options{Algorithm: aerodrome.Optimized})
	if err != nil {
		t.Fatal(err)
	}
	requireMatches(t, nil, rep)
}

// TestLocalCheckBinary: a golden trace re-encoded in the ADB1 binary
// format checks under -format bin exactly like its STD original.
func TestLocalCheckBinary(t *testing.T) {
	data, err := os.ReadFile("../../testdata/golden/chain-cross.std")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := aerodrome.CheckSTD(bytes.NewReader(data), aerodrome.Options{Algorithm: aerodrome.Optimized})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Serializable {
		t.Fatal("chain-cross.std must carry a violation")
	}
	var bin bytes.Buffer
	rd, bw := rapidio.NewReader(bytes.NewReader(data)), rapidio.NewBinaryWriter(&bin)
	for e, ok := rd.Next(); ok; e, ok = rd.Next() {
		if err := bw.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := rd.Err(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	requireMatches(t, []string{"-format", "bin", writeTemp(t, "chain-cross.bin", bin.String())}, rep)
}

// TestLocalCheckParseErrors: a sequential check stops reading at the
// first violation, so a malformed line after it leaves the verdict
// standing (exit 1); a malformed line before any violation is an input
// error (exit 2) and no verdict is printed.
func TestLocalCheckParseErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	after := writeTemp(t, "after.std", rho2STD+"garbage\n")
	if code := run([]string{after}, &out, &errOut); code != 1 || errOut.Len() != 0 ||
		!strings.Contains(out.String(), "NOT conflict serializable") {
		t.Fatalf("malformed line after the violation: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	before := writeTemp(t, "before.std", "garbage\n"+rho2STD)
	if code := run([]string{before}, &out, &errOut); code != 2 || out.Len() != 0 ||
		!strings.Contains(errOut.String(), "aerodrome: rapidio: line 1") {
		t.Fatalf("malformed line before the violation: exit %d\n%s%s", code, out.String(), errOut.String())
	}
}

// TestStatsPrintsStages: -stats prints the engine counters and the parse
// and check stage times.
func TestStatsPrintsStages(t *testing.T) {
	path := writeTemp(t, "rho1.std", rho1STD)
	var out, errOut bytes.Buffer
	if code := run([]string{"-stats", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "\nengine:    epoch ") || !strings.Contains(out.String(), "\nstages:    parse ") {
		t.Fatalf("-stats output %q", out.String())
	}
}
