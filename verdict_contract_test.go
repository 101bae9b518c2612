package aerodrome_test

// The benchmark (benchmark/, its own module) voids every batch run in which
// the CLI's default engine disagrees with Velodrome. This pins that contract
// in tier-1, on scaled-down batch-wide inputs: chain traces with a cross
// violation injected at 95%, rendered exactly as the benchmark renders them.

import (
	"bytes"
	"fmt"
	"testing"

	"aerodrome"
	"aerodrome/internal/rapidio"
	"aerodrome/internal/workload"
)

func TestBatchVerdictContract(t *testing.T) {
	for _, threads := range []int{64, 256} {
		var buf bytes.Buffer
		if _, err := rapidio.WriteSource(&buf, workload.New(workload.Config{
			Threads: threads, Vars: 8192, Locks: 32, Events: 50_000,
			Pattern: workload.PatternChain, Inject: workload.ViolationCross, InjectAt: 0.95, Seed: 1,
		})); err != nil {
			t.Fatal(err)
		}
		check := func(a aerodrome.Algorithm) *aerodrome.Report {
			rep, err := aerodrome.CheckSTD(bytes.NewReader(buf.Bytes()), aerodrome.Options{Algorithm: a})
			if err != nil {
				t.Fatalf("%d threads, %s: %v", threads, a, err)
			}
			return rep
		}
		ref := check(aerodrome.Velodrome)
		if ref.Violation == nil {
			t.Fatalf("%d threads: Velodrome finds no violation", threads)
		}
		want := fmt.Sprintf("index %d, %s, thread %d, %d events",
			ref.Violation.EventIndex, ref.Violation.Check, ref.Violation.Thread, ref.Events)
		rep := check(aerodrome.Optimized)
		got := "clean"
		if v := rep.Violation; v != nil {
			got = fmt.Sprintf("index %d, %s, thread %d, %d events", v.EventIndex, v.Check, v.Thread, rep.Events)
		}
		if got != want {
			t.Errorf("%d threads: optimized reports %s, Velodrome %s", threads, got, want)
		}
	}
}
