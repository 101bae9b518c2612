package aerodrome_test

// Hostile input: ADB1 records carry raw IDs, and the engines index their
// tables by them, so a 24-byte request can name a huge variable. What it
// costs must follow what the check touches, not the ID it names.

import (
	"bytes"
	"runtime"
	"testing"

	"aerodrome"
	"aerodrome/internal/rapidio"
	"aerodrome/internal/trace"
)

func TestHostileVarIDCheckIsCheap(t *testing.T) {
	var buf bytes.Buffer
	bw := rapidio.NewBinaryWriter(&buf)
	if err := bw.Write(trace.Event{Thread: 0, Kind: trace.Write, Target: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 24 {
		t.Fatalf("stream is %d bytes, want the 16-byte header and one 8-byte record", buf.Len())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, _, err := aerodrome.Check(bytes.NewReader(buf.Bytes()), aerodrome.Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Serializable || rep.Events != 1 {
		t.Fatalf("report %+v, want one serializable event", rep)
	}
	const bound = 16 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got >= bound {
		t.Fatalf("checking one write to var 2^20 allocated %d MiB, bound %d MiB", got>>20, bound>>20)
	} else {
		t.Logf("allocated %d KiB", got>>10)
	}
}
