package aerodrome_test

// Tests for the serving hooks: typed per-file errors and deterministic
// ordering from CheckFilesParallel, the Monitor's explicit-event feed and
// snapshot introspection, and the incremental (chunk-fed) checker — the
// pieces aerodromed builds its endpoints on.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"aerodrome"
	"aerodrome/internal/rapidio"
	"aerodrome/internal/trace"
)

func encodeJSON(w io.Writer, v any) error { return json.NewEncoder(w).Encode(v) }

// rho2STD is the paper's ρ2 (a violating trace) in STD syntax.
const rho2STD = `t0|begin|0
t1|begin|0
t0|w(x)|1
t1|r(x)|1
t1|w(y)|2
t0|r(y)|2
t0|end|0
t1|end|0
`

const serializableSTD = `t0|begin|0
t0|w(x)|1
t0|end|0
t1|begin|0
t1|w(x)|1
t1|end|0
`

// TestCheckFilesParallelOrderAndTypedErrors pins the batch contract the
// server and the CLI -parallel mode rely on: results come back in input
// order regardless of completion order, and failures are typed per-file
// errors rather than a fail-fast abort.
func TestCheckFilesParallelOrderAndTypedErrors(t *testing.T) {
	dir := t.TempDir()
	// Vary file sizes wildly so completion order differs from input order.
	big := strings.Repeat("t0|begin|0\nt0|w(x)|1\nt0|end|0\n", 20_000)
	paths := []string{
		filepath.Join(dir, "big.std"),
		filepath.Join(dir, "missing.std"), // never created
		filepath.Join(dir, "viol.std"),
		filepath.Join(dir, "bad.std"),
		filepath.Join(dir, "small.std"),
	}
	writeFile := func(p, s string) {
		t.Helper()
		if err := os.WriteFile(p, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile(paths[0], big)
	writeFile(paths[2], rho2STD)
	writeFile(paths[3], "t9|broken\n")
	writeFile(paths[4], serializableSTD)

	for trial := 0; trial < 4; trial++ {
		reports, err := aerodrome.CheckFilesParallel(paths, aerodrome.Optimized, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(reports) != len(paths) {
			t.Fatalf("%d reports, want %d", len(reports), len(paths))
		}
		for i, fr := range reports {
			if fr.Path != paths[i] {
				t.Fatalf("result %d is %s, want %s (input order)", i, fr.Path, paths[i])
			}
		}
		if reports[0].Err != nil || !reports[0].Report.Serializable {
			t.Fatalf("big.std: %+v", reports[0])
		}
		var fe *aerodrome.FileError
		if !errors.As(reports[1].Err, &fe) || fe.Path != paths[1] {
			t.Fatalf("missing.std: error %v, want *FileError for %s", reports[1].Err, paths[1])
		}
		if !errors.Is(reports[1].Err, fs.ErrNotExist) {
			t.Fatalf("missing.std: %v does not unwrap to fs.ErrNotExist", reports[1].Err)
		}
		if reports[2].Err != nil || reports[2].Report.Serializable {
			t.Fatalf("viol.std: %+v", reports[2])
		}
		if !errors.As(reports[3].Err, &fe) || !errors.Is(fe, rapidio.ErrFormat) {
			t.Fatalf("bad.std: error %v, want *FileError wrapping a parse error", reports[3].Err)
		}
		if reports[4].Err != nil || !reports[4].Report.Serializable {
			t.Fatalf("small.std: %+v", reports[4])
		}
	}
}

// TestMonitorEventFeed pins Monitor.Event against the Checker on the same
// stream: same verdict, same index, same event accounting — the property
// that lets a decoded network stream drive a Monitor.
func TestMonitorEventFeed(t *testing.T) {
	events := []aerodrome.Event{
		{Thread: 0, Kind: aerodrome.TxBegin},
		{Thread: 0, Kind: aerodrome.OpFork, Target: 1},
		{Thread: 1, Kind: aerodrome.TxBegin},
		{Thread: 0, Kind: aerodrome.OpWrite, Target: 0},
		{Thread: 1, Kind: aerodrome.OpRead, Target: 0},
		{Thread: 1, Kind: aerodrome.OpWrite, Target: 1},
		{Thread: 0, Kind: aerodrome.OpRead, Target: 1},
		{Thread: 0, Kind: aerodrome.TxEnd},
		{Thread: 1, Kind: aerodrome.TxEnd},
	}
	checker := aerodrome.NewChecker(aerodrome.ReadOpt)
	m := aerodrome.NewMonitor(aerodrome.Options{Algorithm: aerodrome.ReadOpt}, nil)
	if got, want := m.Algorithm(), checker.Algorithm(); got != want {
		t.Fatalf("Algorithm = %q, want %q", got, want)
	}
	for _, e := range events {
		cv := checker.Event(e)
		mv := m.Event(e)
		if (cv != nil) != (mv != nil) {
			t.Fatalf("checker %v vs monitor %v after %+v", cv, mv, e)
		}
	}
	cv, mv := checker.Violation(), m.Violation()
	if cv == nil || mv == nil {
		t.Fatal("ρ2 must violate")
	}
	if mv.EventIndex != cv.EventIndex || mv.Check != cv.Check || mv.Thread != cv.Thread {
		t.Fatalf("monitor violation %+v, want %+v", mv, cv)
	}
	n, v := m.Snapshot()
	if n != checker.Processed() || v != mv {
		t.Fatalf("Snapshot = (%d, %v), want (%d, %v)", n, v, checker.Processed(), mv)
	}
}

// TestMonitorAnalysesMatchCheckSTD pins the Monitor's analysis set: each
// golden trace, fed event by event through Monitor.Event with atomicity
// and hbrace selected, must leave Monitor.Analyses equal to the
// per-analysis verdicts CheckSTD reports for the same trace and set.
func TestMonitorAnalysesMatchCheckSTD(t *testing.T) {
	publicKind := map[trace.OpKind]aerodrome.EventKind{
		trace.Begin: aerodrome.TxBegin, trace.End: aerodrome.TxEnd,
		trace.Read: aerodrome.OpRead, trace.Write: aerodrome.OpWrite,
		trace.Acquire: aerodrome.OpAcquire, trace.Release: aerodrome.OpRelease,
		trace.Fork: aerodrome.OpFork, trace.Join: aerodrome.OpJoin,
	}
	o := aerodrome.Options{Analyses: []aerodrome.AnalysisKind{aerodrome.AnalysisAtomicity, aerodrome.AnalysisHBRace}}
	for _, path := range goldenPaths(t) {
		std, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := aerodrome.CheckSTD(bytes.NewReader(std), o)
		if err != nil {
			t.Fatal(err)
		}
		m := aerodrome.NewMonitor(o, nil)
		rd := rapidio.NewReader(bytes.NewReader(std))
		for e, ok := rd.Next(); ok; e, ok = rd.Next() {
			m.Event(aerodrome.Event{Thread: int(e.Thread), Kind: publicKind[e.Kind], Target: int(e.Target)})
		}
		if err := rd.Err(); err != nil {
			t.Fatal(err)
		}
		if got := m.Analyses(); !reflect.DeepEqual(got, want.Analyses) {
			t.Fatalf("%s: Monitor.Analyses\n%+v\nwant CheckSTD's\n%+v", filepath.Base(path), got, want.Analyses)
		}
	}
}

// TestIncrementalChecker pins the chunk-fed checker against CheckSTD on
// the same bytes, across chunk sizes that split lines arbitrarily.
func TestIncrementalChecker(t *testing.T) {
	for _, tc := range []struct {
		name string
		data string
	}{{"violating", rho2STD}, {"serializable", serializableSTD}} {
		want, err := aerodrome.CheckSTD(strings.NewReader(tc.data), aerodrome.Options{Algorithm: aerodrome.Optimized})
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 4, 1 << 16} {
			ic, err := aerodrome.NewIncrementalChecker(aerodrome.Options{Algorithm: aerodrome.Optimized})
			if err != nil {
				t.Fatal(err)
			}
			if ic.Algorithm() != want.Algorithm {
				t.Fatalf("Algorithm = %q, want %q", ic.Algorithm(), want.Algorithm)
			}
			data := []byte(tc.data)
			for i := 0; i < len(data); i += chunk {
				end := min(i+chunk, len(data))
				if _, err := ic.Feed(data[i:end]); err != nil {
					t.Fatalf("%s/%d: feed: %v", tc.name, chunk, err)
				}
			}
			rep, err := ic.Close()
			if err != nil {
				t.Fatalf("%s/%d: close: %v", tc.name, chunk, err)
			}
			if rep.Serializable != want.Serializable || rep.Events != want.Events {
				t.Fatalf("%s/%d: report %+v, want %+v", tc.name, chunk, rep, want)
			}
			if !rep.Serializable && (rep.Violation.EventIndex != want.Violation.EventIndex ||
				rep.Violation.Check != want.Violation.Check) {
				t.Fatalf("%s/%d: violation %+v, want %+v", tc.name, chunk, rep.Violation, want.Violation)
			}
		}
	}
}

// TestIncrementalCheckerBinary pins the chunk-fed checker against Check
// on the same ADB1 bytes: the feeder sniffs the magic like Check, so a
// binary session's verdict, violation index and event count match the
// pull path regardless of how the records were chunked (including splits
// inside the magic and inside records).
func TestIncrementalCheckerBinary(t *testing.T) {
	for _, tc := range []struct {
		name string
		data string
	}{{"violating", rho2STD}, {"serializable", serializableSTD}} {
		bin := stdToBinary(t, []byte(tc.data))
		want, _, err := aerodrome.Check(bytes.NewReader(bin), aerodrome.Options{Algorithm: aerodrome.Optimized})
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 3, 8, 1 << 16} {
			ic, err := aerodrome.NewIncrementalChecker(aerodrome.Options{Algorithm: aerodrome.Optimized})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(bin); i += chunk {
				end := min(i+chunk, len(bin))
				if _, err := ic.Feed(bin[i:end]); err != nil {
					t.Fatalf("%s/%d: feed: %v", tc.name, chunk, err)
				}
			}
			rep, err := ic.Close()
			if err != nil {
				t.Fatalf("%s/%d: close: %v", tc.name, chunk, err)
			}
			if rep.Serializable != want.Serializable || rep.Events != want.Events {
				t.Fatalf("%s/%d: report %+v, want %+v", tc.name, chunk, rep, want)
			}
			if !rep.Serializable && (rep.Violation.EventIndex != want.Violation.EventIndex ||
				rep.Violation.Check != want.Violation.Check) {
				t.Fatalf("%s/%d: violation %+v, want %+v", tc.name, chunk, rep.Violation, want.Violation)
			}
		}
	}
}

// TestIncrementalCheckerParseError pins the failure mode a session turns
// into an HTTP 400: malformed chunks latch a typed parse error.
func TestIncrementalCheckerParseError(t *testing.T) {
	ic, err := aerodrome.NewIncrementalChecker(aerodrome.Options{Algorithm: aerodrome.Optimized})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ic.Feed([]byte("t0|begin|0\ngarbage\n")); !errors.Is(err, rapidio.ErrFormat) {
		t.Fatalf("feed error %v, want rapidio.ErrFormat", err)
	}
	if _, err := ic.Close(); !errors.Is(err, rapidio.ErrFormat) {
		t.Fatalf("close error %v, want rapidio.ErrFormat", err)
	}
}

// TestReportJSONShape pins the wire format served by aerodromed.
func TestReportJSONShape(t *testing.T) {
	rep, err := aerodrome.CheckSTD(strings.NewReader(rho2STD), aerodrome.Options{Algorithm: aerodrome.Optimized})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := encodeJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"serializable":false`, `"event_index":`, `"check":`, `"algorithm":`, `"events":`} {
		if !strings.Contains(buf.String(), field) {
			t.Fatalf("report JSON %s missing %s", buf.String(), field)
		}
	}
}
