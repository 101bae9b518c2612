package aerodrome_test

// Push-path tests: IncrementalChecker fed in chunks must give what
// CheckSTD gives on the concatenated bytes, and must apply the latch rule
// the pipelined and sequential checks apply — each analysis latches at
// its own first violation, and the stream is read until every analysis
// has latched.

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"aerodrome"
)

// checkIncremental feeds data to a new IncrementalChecker running o in
// chunk-byte pieces and closes it. It returns the first error a Feed or
// the Close reports.
func checkIncremental(t *testing.T, data []byte, o aerodrome.Options, chunk int) (*aerodrome.Report, error) {
	t.Helper()
	ic, err := aerodrome.NewIncrementalChecker(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(data); i += chunk {
		if _, err := ic.Feed(data[i:min(i+chunk, len(data))]); err != nil {
			return nil, err
		}
	}
	return ic.Close()
}

// TestIncrementalDiscardsAfterViolation pins the observational-equivalence
// corner: a parse error positioned after the first violation is never
// reported, because the sequential checker would have stopped reading.
func TestIncrementalDiscardsAfterViolation(t *testing.T) {
	ic, err := aerodrome.NewIncrementalChecker(aerodrome.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := ic.Feed([]byte(rho2STD))
	if err != nil || v == nil {
		t.Fatalf("Feed = (%v, %v), want latched violation", v, err)
	}
	if v2, err := ic.Feed([]byte("this|is|not|an|std|line\n")); err != nil || v2 != v {
		t.Fatalf("post-violation Feed = (%v, %v), want (%v, nil)", v2, err, v)
	}
	rep, err := ic.Close()
	if err != nil || rep.Violation != v {
		t.Fatalf("Close = (%+v, %v), want the latched violation and nil error", rep, err)
	}
	if rep.Events != ic.Processed() || ic.Violation() != v {
		t.Fatal("snapshot accessors disagree with Close")
	}
}

// TestIncrementalParseErrorLatches pins a parse error as terminal: later
// feeds and Close return it, and the events before it stay counted.
func TestIncrementalParseErrorLatches(t *testing.T) {
	ic, err := aerodrome.NewIncrementalChecker(aerodrome.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ferr := ic.Feed([]byte("t0|begin|0\nt0|nope|0\n"))
	if ferr == nil {
		t.Fatal("want parse error")
	}
	if _, err := ic.Feed([]byte("t0|end|0\n")); err != ferr {
		t.Fatalf("Feed after the parse error = %v, want the latched %v", err, ferr)
	}
	if _, err := ic.Close(); err != ferr || ic.Processed() != 1 {
		t.Fatalf("Close = %v after %d events, want the latched error after 1", err, ic.Processed())
	}
}

// TestIncrementalTrailingLine pins Close's flush of a final unterminated
// line.
func TestIncrementalTrailingLine(t *testing.T) {
	ic, err := aerodrome.NewIncrementalChecker(aerodrome.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ic.Feed([]byte("t0|begin|0\nt0|w(x)|1\nt0|end|0")); err != nil {
		t.Fatal(err)
	}
	if ic.Processed() != 2 {
		t.Fatalf("Processed before Close = %d, want 2 (trailing line incomplete)", ic.Processed())
	}
	rep, err := ic.Close()
	if err != nil || rep.Violation != nil || rep.Events != 3 {
		t.Fatalf("Close = (%+v, %v), want a clean report of 3 events", rep, err)
	}
}

// latchTrace's atomicity violation is at event 10, where t1 re-acquires l
// after t2's transaction read t1's write of x and wrote y; its first race
// is at event 15, two unsynchronized writes of z. Every x and y access is
// under l, so nothing races before the violation.
var latchTrace = []string{
	"t1|begin|0", "t1|acq(l)|0", "t1|w(x)|0", "t1|rel(l)|0",
	"t2|begin|0", "t2|acq(l)|0", "t2|r(x)|0", "t2|w(y)|0", "t2|rel(l)|0", "t2|end|0",
	"t1|acq(l)|0", "t1|r(y)|0", "t1|rel(l)|0", "t1|end|0",
	"t2|w(z)|0", "t1|w(z)|0", "t1|w(q)|0",
}

// TestLatchRuleAcrossFrontEnds places a malformed line before the
// atomicity violation, between it and the race, and after the race. A
// parse error is reported exactly when some analysis is still live where
// it sits, and CheckSTD, Check and IncrementalChecker agree on every
// placement.
func TestLatchRuleAcrossFrontEnds(t *testing.T) {
	std := func(lines []string) []byte { return []byte(strings.Join(lines, "\n") + "\n") }
	dual := aerodrome.Options{Analyses: dualSet}
	clean, err := aerodrome.CheckSTD(bytes.NewReader(std(latchTrace)), dual)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Violation == nil || clean.Violation.EventIndex != 10 {
		t.Fatalf("atomicity violation %v, want one at event 10", clean.Violation)
	}
	if race := hbraceEntry(t, "latch", clean).Violation; race == nil || race.EventIndex != 15 {
		t.Fatalf("race %v, want one at event 15", race)
	}
	for _, tc := range []struct {
		name    string
		at      int // the malformed line goes before latchTrace[at]
		o       aerodrome.Options
		wantErr bool
	}{
		{"dual/before-violation", 5, dual, true},
		{"dual/between", 13, dual, true},
		{"dual/after-race", 16, dual, false},
		{"atomicity/between", 13, aerodrome.Options{}, false},
	} {
		lines := append(append(append([]string{}, latchTrace[:tc.at]...), "garbage"), latchTrace[tc.at:]...)
		data := std(lines)
		want, wantErr := aerodrome.CheckSTD(bytes.NewReader(data), tc.o)
		if (wantErr != nil) != tc.wantErr {
			t.Fatalf("%s: CheckSTD error %v, want an error: %v", tc.name, wantErr, tc.wantErr)
		}
		if wantErr == nil {
			ref, err := aerodrome.CheckSTD(bytes.NewReader(std(latchTrace)), tc.o)
			if err != nil || !reflect.DeepEqual(want, ref) {
				t.Fatalf("%s: report %+v, want the clean trace's %+v", tc.name, want, ref)
			}
		}
		same := func(path string, got *aerodrome.Report, err error) {
			t.Helper()
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: (%+v, %v), want CheckSTD's (%+v, %v)", tc.name, path, got, err, want, wantErr)
			}
		}
		got, _, err := aerodrome.Check(bytes.NewReader(data), tc.o)
		same("Check", got, err)
		for _, chunk := range []int{1, 7, 64 << 10} {
			got, err := checkIncremental(t, data, tc.o, chunk)
			same(fmt.Sprintf("IncrementalChecker/%d", chunk), got, err)
		}
	}
}
