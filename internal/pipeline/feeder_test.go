package pipeline

// Feeder differential tests: feeding an STD log in chunks of any size must
// produce the same verdict, violation index and event count as running the
// same engine over the whole log sequentially.

import (
	"bytes"
	"testing"

	"aerodrome/internal/core"
	"aerodrome/internal/rapidio"
	"aerodrome/internal/testutil"
	"aerodrome/internal/trace"
	"aerodrome/internal/workload"
)

func renderSTD(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rapidio.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func feederTraces(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{
		"rho1": renderSTD(t, testutil.Rho1()),
		"rho2": renderSTD(t, testutil.Rho2()),
		"rho3": renderSTD(t, testutil.Rho3()),
		"rho4": renderSTD(t, testutil.Rho4()),
	}
	for _, inj := range []workload.Violation{workload.ViolationNone, workload.ViolationCross} {
		cfg := workload.Config{
			Name: "feeder-" + string(inj), Threads: 8, Vars: 32, Locks: 4,
			Events: 2000, OpsPerTxn: 3, Pattern: workload.PatternSharded,
			Inject: inj, InjectAt: 0.6, TxnFraction: 0.5, Seed: 99,
		}
		out[cfg.Name] = renderSTD(t, trace.Collect(workload.New(cfg)))
	}
	return out
}

func TestFeederMatchesSequential(t *testing.T) {
	for name, data := range feederTraces(t) {
		seqEng := core.NewOptimized()
		rd := rapidio.NewReader(bytes.NewReader(data))
		wantV, wantN := core.Run(seqEng, rd)
		if err := rd.Err(); err != nil {
			t.Fatalf("%s: sequential parse: %v", name, err)
		}
		for _, chunk := range []int{1, 3, 17, 256, 1 << 20} {
			f := NewFeeder(core.NewOptimized(), nil, Config{BatchSize: 32})
			for i := 0; i < len(data); i += chunk {
				end := i + chunk
				if end > len(data) {
					end = len(data)
				}
				if _, err := f.Feed(data[i:end]); err != nil {
					t.Fatalf("%s chunk %d: feed: %v", name, chunk, err)
				}
			}
			v, n, err := f.Close()
			if err != nil {
				t.Fatalf("%s chunk %d: close: %v", name, chunk, err)
			}
			if (v != nil) != (wantV != nil) {
				t.Fatalf("%s chunk %d: violation %v, want %v", name, chunk, v, wantV)
			}
			if v != nil && (v.Index != wantV.Index || v.Check != wantV.Check) {
				t.Fatalf("%s chunk %d: violation (%d, %s), want (%d, %s)",
					name, chunk, v.Index, v.Check, wantV.Index, wantV.Check)
			}
			if n != wantN {
				t.Fatalf("%s chunk %d: %d events, want %d", name, chunk, n, wantN)
			}
		}
	}
}

// TestFeederDiscardsAfterViolation pins the observational-equivalence
// corner: a parse error positioned after the first violation is never
// reported, because the sequential checker would have stopped reading.
func TestFeederDiscardsAfterViolation(t *testing.T) {
	data := renderSTD(t, testutil.Rho2()) // violating trace
	f := NewFeeder(core.NewOptimized(), nil, Config{})
	v, err := f.Feed(data)
	if err != nil || v == nil {
		t.Fatalf("Feed = (%v, %v), want latched violation", v, err)
	}
	if v2, err := f.Feed([]byte("this|is|not|an|std|line\n")); err != nil || v2 != v {
		t.Fatalf("post-violation Feed = (%v, %v), want (%v, nil)", v2, err, v)
	}
	vc, n, err := f.Close()
	if err != nil || vc != v {
		t.Fatalf("Close = (%v, %d, %v), want the latched violation and nil error", vc, n, err)
	}
	if n != f.Processed() || f.Violation() != v {
		t.Fatal("snapshot accessors disagree with Close")
	}
}

// TestFeederReleasesTailOnViolation pins the memory bound: when a
// violation latches mid-chunk, the unconsumed tail of the chunk is freed
// rather than pinned for the session's remaining lifetime.
func TestFeederReleasesTailOnViolation(t *testing.T) {
	head := renderSTD(t, testutil.Rho2())
	tail := bytes.Repeat([]byte("t0|r(x)|1\n"), 100_000)
	f := NewFeeder(core.NewOptimized(), nil, Config{})
	v, err := f.Feed(append(append([]byte{}, head...), tail...))
	if err != nil || v == nil {
		t.Fatalf("Feed = (%v, %v), want latched violation", v, err)
	}
	if got := f.src.Buffered(); got != 0 {
		t.Fatalf("source buffers %d bytes after the violation, want 0", got)
	}
}

func TestFeederParseErrorLatches(t *testing.T) {
	f := NewFeeder(core.NewOptimized(), nil, Config{})
	if _, err := f.Feed([]byte("t0|begin|0\nt0|nope|0\n")); err == nil {
		t.Fatal("want parse error")
	}
	if f.Err() == nil {
		t.Fatal("Err: want latched parse error")
	}
	if _, n, err := f.Close(); err == nil || n != 1 {
		t.Fatalf("Close = (%d, %v), want 1 event and the latched error", n, err)
	}
}

// TestFeederTrailingLine pins Close's flush of a final unterminated line.
func TestFeederTrailingLine(t *testing.T) {
	f := NewFeeder(core.NewOptimized(), nil, Config{})
	if _, err := f.Feed([]byte("t0|begin|0\nt0|w(x)|1\nt0|end|0")); err != nil {
		t.Fatal(err)
	}
	if f.Processed() != 2 {
		t.Fatalf("Processed before Close = %d, want 2 (trailing line incomplete)", f.Processed())
	}
	v, n, err := f.Close()
	if v != nil || n != 3 || err != nil {
		t.Fatalf("Close = (%v, %d, %v), want (nil, 3, nil)", v, n, err)
	}
}
