package rapidio

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"aerodrome/internal/testutil"
	"aerodrome/internal/trace"
)

func TestParseBasicLog(t *testing.T) {
	log := `
# a comment and a blank line above
t0|fork(t1)|0
t0|begin|12
t0|w(x)|12
t1|acq(L)|7
t1|r(x)|8
t1|rel(L)|9
t0|end|13
t0|join(t1)|14
`
	tr, err := ReadTrace(strings.NewReader(log))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if tr.Len() != 8 {
		t.Fatalf("Len = %d, want 8", tr.Len())
	}
	want := []trace.OpKind{trace.Fork, trace.Begin, trace.Write, trace.Acquire,
		trace.Read, trace.Release, trace.End, trace.Join}
	for i, k := range want {
		if tr.Events[i].Kind != k {
			t.Fatalf("event %d kind = %v, want %v", i, tr.Events[i].Kind, k)
		}
	}
	if tr.ThreadName(0) != "t0" || tr.ThreadName(1) != "t1" {
		t.Fatalf("thread names: %v", tr.ThreadNames)
	}
	if tr.VarName(0) != "x" || tr.LockName(0) != "L" {
		t.Fatalf("symbol names: %v %v", tr.VarNames, tr.LockNames)
	}
	if err := trace.ValidateStrict(tr); err != nil {
		t.Fatalf("parsed trace malformed: %v", err)
	}
}

func TestTwoFieldLines(t *testing.T) {
	tr, err := ReadTrace(strings.NewReader("a|begin\na|w(v)\na|end\n"))
	if err != nil || tr.Len() != 3 {
		t.Fatalf("two-field lines: %v, %d", err, tr.Len())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		line string
		want string
	}{
		{"t0", "want thread|op"},
		{"t0|begin|1|2", "want thread|op"},
		{"|begin|0", "empty thread"},
		{"t0|frob(x)|0", "unknown operation"},
		{"t0|w(x|0", "unknown operation"},
		{"t0|w()|0", "empty operand"},
		{"t0|w(x)|abc", "non-numeric location"},
		{"t0|(x)|0", "unknown operation"},
	}
	for _, c := range cases {
		_, err := ReadTrace(strings.NewReader(c.line + "\n"))
		if err == nil {
			t.Errorf("%q: expected error", c.line)
			continue
		}
		if !errors.Is(err, ErrFormat) {
			t.Errorf("%q: error does not wrap ErrFormat: %v", c.line, err)
		}
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Line != 1 {
			t.Errorf("%q: bad ParseError: %v", c.line, err)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %q missing %q", c.line, err, c.want)
		}
	}
}

func TestReaderLatchesError(t *testing.T) {
	r := NewReader(strings.NewReader("bogus\nt0|begin|0\n"))
	_, err1 := r.Read()
	_, err2 := r.Read()
	if err1 == nil || err1 != err2 {
		t.Fatalf("reader must latch: %v vs %v", err1, err2)
	}
	if r.Err() == nil {
		t.Fatalf("Err must expose the latched error")
	}
}

func TestReaderErrNilAfterEOF(t *testing.T) {
	r := NewReader(strings.NewReader("t0|begin|0\nt0|end|0\n"))
	for {
		if _, ok := r.Next(); !ok {
			break
		}
	}
	if r.Err() != nil {
		t.Fatalf("clean EOF must give nil Err, got %v", r.Err())
	}
}

func TestRoundTripSTD(t *testing.T) {
	for _, tr := range []*trace.Trace{
		testutil.Rho1(), testutil.Rho2(), testutil.Rho3(), testutil.Rho4(),
	} {
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr); err != nil {
			t.Fatalf("WriteTrace: %v", err)
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("ReadTrace: %v", err)
		}
		if back.Len() != tr.Len() {
			t.Fatalf("round trip length %d != %d", back.Len(), tr.Len())
		}
		for i := range tr.Events {
			if tr.Events[i] != back.Events[i] {
				t.Fatalf("event %d: %v != %v", i, tr.Events[i], back.Events[i])
			}
		}
	}
}

func TestRoundTripRandom(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		tr := testutil.RandomTrace(r, testutil.GenOpts{
			Threads: 1 + r.Intn(5), Vars: 1 + r.Intn(4), Locks: 1 + r.Intn(3),
			Steps: 10 + r.Intn(100), TxnBias: 3,
		})
		// Reading interns IDs in first-appearance order, which may renumber
		// them relative to the builder; the round-trip invariant is that the
		// canonical serialization is a fixed point.
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr); err != nil {
			t.Fatalf("WriteTrace: %v", err)
		}
		back, err := ReadTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadTrace: %v", err)
		}
		if back.Len() != tr.Len() {
			t.Fatalf("length mismatch")
		}
		var buf2 bytes.Buffer
		if err := WriteTrace(&buf2, back); err != nil {
			t.Fatalf("WriteTrace(back): %v", err)
		}
		back2, err := ReadTrace(bytes.NewReader(buf2.Bytes()))
		if err != nil {
			t.Fatalf("ReadTrace(back2): %v", err)
		}
		for j := range back.Events {
			if back.Events[j] != back2.Events[j] {
				t.Fatalf("event %d not a fixed point: %v vs %v", j, back.Events[j], back2.Events[j])
			}
		}
		// Renumbering must preserve well-formedness and the event kinds.
		if err := trace.ValidateStrict(back); err != nil {
			t.Fatalf("round-tripped trace malformed: %v", err)
		}
		for j := range tr.Events {
			if tr.Events[j].Kind != back.Events[j].Kind {
				t.Fatalf("event %d kind changed", j)
			}
		}
	}
}

func TestWriteSource(t *testing.T) {
	tr := testutil.Rho1()
	var buf bytes.Buffer
	n, err := WriteSource(&buf, tr.Cursor())
	if err != nil || n != int64(tr.Len()) {
		t.Fatalf("WriteSource = (%d, %v)", n, err)
	}
	back, err := ReadTrace(&buf)
	if err != nil || back.Len() != tr.Len() {
		t.Fatalf("round trip via source failed: %v", err)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := testutil.Rho4()
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	for _, e := range tr.Events {
		if err := bw.Write(e); err != nil {
			t.Fatalf("binary write: %v", err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if buf.Len() != 16+8*tr.Len() {
		t.Fatalf("binary size = %d, want %d", buf.Len(), 16+8*tr.Len())
	}
	br := NewBinaryReader(&buf)
	for i := range tr.Events {
		e, err := br.Read()
		if err != nil {
			t.Fatalf("binary read %d: %v", i, err)
		}
		if e != tr.Events[i] {
			t.Fatalf("event %d: %v != %v", i, e, tr.Events[i])
		}
	}
	if _, err := br.Read(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	if br.Err() != nil {
		t.Fatalf("clean EOF must give nil Err")
	}
}

func TestBinaryEmptyLog(t *testing.T) {
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	if err := bw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if buf.Len() != 16 {
		t.Fatalf("empty log should still carry the header")
	}
	br := NewBinaryReader(&buf)
	if _, err := br.Read(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestBinaryErrors(t *testing.T) {
	// Bad magic.
	br := NewBinaryReader(strings.NewReader("XXXXYYYYZZZZWWWW"))
	if _, err := br.Read(); !errors.Is(err, ErrFormat) {
		t.Fatalf("bad magic: %v", err)
	}
	// Short header.
	br = NewBinaryReader(strings.NewReader("ADB1"))
	if _, err := br.Read(); !errors.Is(err, ErrFormat) {
		t.Fatalf("short header: %v", err)
	}
	// Truncated record.
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	bw.Write(trace.Event{Thread: 0, Kind: trace.Begin})
	bw.Flush()
	trunc := buf.Bytes()[:buf.Len()-3]
	br = NewBinaryReader(bytes.NewReader(trunc))
	if _, err := br.Read(); !errors.Is(err, ErrFormat) {
		t.Fatalf("truncated record: %v", err)
	}
	// Bad op kind.
	buf.Reset()
	bw = NewBinaryWriter(&buf)
	bw.Write(trace.Event{Thread: 0, Kind: trace.Begin})
	bw.Flush()
	raw := buf.Bytes()
	raw[16+2] = 99
	br = NewBinaryReader(bytes.NewReader(raw))
	if _, err := br.Read(); !errors.Is(err, ErrFormat) {
		t.Fatalf("bad kind: %v", err)
	}
	// A target of 2^31 or more would be a negative engine index: a format
	// error naming the record. 2^31-1 still decodes.
	buf.Reset()
	bw = NewBinaryWriter(&buf)
	bw.Write(trace.Event{Thread: 0, Kind: trace.Read, Target: math.MaxInt32})
	bw.Write(trace.Event{Thread: 0, Kind: trace.Read})
	bw.Flush()
	raw = buf.Bytes()
	raw[16+8+7] = 0x80
	br = NewBinaryReader(bytes.NewReader(raw))
	if ev, err := br.Read(); err != nil || ev.Target != math.MaxInt32 {
		t.Fatalf("target 2^31-1: %+v, %v", ev, err)
	}
	if _, err := br.Read(); !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "record 1") {
		t.Fatalf("target 2^31: %v", err)
	}
	// Next() returns false on errors.
	br = NewBinaryReader(strings.NewReader("XXXX"))
	if _, ok := br.Next(); ok {
		t.Fatalf("Next on bad stream must fail")
	}
}
