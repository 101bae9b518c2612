package aerodrome

// Push-path tests that reach inside IncrementalChecker: a batch smaller
// than the trace, so batch boundaries fall inside chunks, and the bytes
// its decoder holds.

import (
	"bytes"
	"reflect"
	"testing"

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

// TestIncrementalMatchesSequential feeds each trace in chunks of every
// size from one byte to past the whole trace, through 32-event batches,
// and requires CheckSTD's report for the atomicity and the dual analysis
// set.
func TestIncrementalMatchesSequential(t *testing.T) {
	traces := map[string][]byte{
		"rho1": renderSTD(t, testutil.Rho1()),
		"rho2": renderSTD(t, testutil.Rho2()),
		"rho3": renderSTD(t, testutil.Rho3()),
		"rho4": renderSTD(t, testutil.Rho4()),
	}
	for _, inj := range []workload.Violation{workload.ViolationNone, workload.ViolationCross} {
		cfg := workload.Config{
			Name: "sharded-" + string(inj), Threads: 8, Vars: 32, Locks: 4,
			Events: 2000, OpsPerTxn: 3, Pattern: workload.PatternSharded,
			Inject: inj, InjectAt: 0.6, TxnFraction: 0.5, Seed: 99,
		}
		traces[cfg.Name] = renderSTD(t, trace.Collect(workload.New(cfg)))
	}
	for name, data := range traces {
		for _, o := range []Options{{}, {Analyses: []AnalysisKind{AnalysisAtomicity, AnalysisHBRace}}} {
			want, err := CheckSTD(bytes.NewReader(data), o)
			if err != nil {
				t.Fatalf("%s: sequential: %v", name, err)
			}
			for _, chunk := range []int{1, 3, 17, 256, 1 << 20} {
				c, err := NewIncrementalChecker(o)
				if err != nil {
					t.Fatal(err)
				}
				c.batch = c.batch[:32]
				for i := 0; i < len(data); i += chunk {
					if _, err := c.Feed(data[i:min(i+chunk, len(data))]); err != nil {
						t.Fatalf("%s %v chunk %d: feed: %v", name, o.Analyses, chunk, err)
					}
				}
				got, err := c.Close()
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %v chunk %d: Close = (%+v, %v), want %+v", name, o.Analyses, chunk, got, err, want)
				}
			}
		}
	}
}

// TestIncrementalReleasesTailOnViolation pins the memory bound: when a
// violation latches mid-chunk, the unconsumed tail of the chunk is freed
// rather than pinned for the session's remaining lifetime.
func TestIncrementalReleasesTailOnViolation(t *testing.T) {
	head := renderSTD(t, testutil.Rho2())
	tail := bytes.Repeat([]byte("t0|r(x)|1\n"), 100_000)
	c, err := NewIncrementalChecker(Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Feed(append(append([]byte{}, head...), tail...))
	if err != nil || v == nil {
		t.Fatalf("Feed = (%v, %v), want latched violation", v, err)
	}
	if got := c.dec.Buffered(); got != 0 {
		t.Fatalf("the decoder buffers %d bytes after the violation, want 0", got)
	}
}
