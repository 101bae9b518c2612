package rapidio

// Push-path tests: the decoder must be chunking-invariant — any way of
// slicing a log into Feed calls yields exactly the event sequence the pull
// path produces on the same bytes, including the error.

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"

	"aerodrome/internal/trace"
)

// drainFeeder pushes data into a new push decoder in the given chunk
// sizes (cycling) and collects everything ReadBatch yields, closing at the
// end.
func drainFeeder(t *testing.T, data []byte, chunkSizes []int) ([]trace.Event, error) {
	t.Helper()
	var got []trace.Event
	err := feed(NewFeeder(), data, chunkSizes, make([]trace.Event, 7), func(evs []trace.Event) {
		got = append(got, evs...)
	})
	return got, err
}

// feed pushes data into f in the given chunk sizes (cycling), drains
// ReadBatch into batch after each chunk and hands each batch's events to
// use, then closes f, drains it and returns its terminal error.
func feed(f *Decoder, data []byte, chunkSizes []int, batch []trace.Event, use func([]trace.Event)) error {
	drain := func() error {
		for {
			n, err := f.ReadBatch(batch)
			use(batch[:n])
			if err != nil || n < len(batch) {
				return err
			}
		}
	}
	for i, ci := 0, 0; i < len(data); ci++ {
		sz := min(chunkSizes[ci%len(chunkSizes)], len(data)-i)
		f.Feed(data[i : i+sz])
		i += sz
		if err := drain(); err != nil {
			return err
		}
	}
	f.Close()
	return drain()
}

func readAll(t *testing.T, data []byte) ([]trace.Event, error) {
	t.Helper()
	rd := NewReader(bytes.NewReader(data))
	var got []trace.Event
	for {
		ev, err := rd.Read()
		if err != nil {
			return got, err
		}
		got = append(got, ev)
	}
}

func sameEvents(a, b []trace.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFeederMatchesReaderAllChunkings(t *testing.T) {
	logs := map[string]string{
		"clean": "t0|begin|1\nt0|w(x)|2\nt1|r(x)|3\nt0|end|4\n",
		"messy": "# header\n\n t0 | begin | 1 \nt0|fork(t1)|0\nt1|acq(l0)|9\nt1|rel(l0)|9\nt0|join(t1)|0",
		"error": "t0|begin|1\nt0|oops|2\nt0|end|3\n",
	}
	chunkings := [][]int{{1}, {2}, {3}, {5}, {1, 7, 2}, {1 << 10}}
	for name, log := range logs {
		data := []byte(log)
		want, wantErr := readAll(t, data)
		for _, sizes := range chunkings {
			got, gotErr := drainFeeder(t, data, sizes)
			if !sameEvents(got, want) {
				t.Fatalf("%s chunks %v: events %v, want %v", name, sizes, got, want)
			}
			if (wantErr == io.EOF) != (gotErr == io.EOF) {
				t.Fatalf("%s chunks %v: terminal %v, want %v", name, sizes, gotErr, wantErr)
			}
			if pe, ok := wantErr.(*ParseError); ok {
				ge, ok := gotErr.(*ParseError)
				if !ok || ge.Line != pe.Line || ge.Reason != pe.Reason {
					t.Fatalf("%s chunks %v: error %v, want %v", name, sizes, gotErr, wantErr)
				}
			}
		}
	}
}

func TestFeederMatchesReaderRandomChunking(t *testing.T) {
	var sb strings.Builder
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		switch rng.Intn(5) {
		case 0:
			sb.WriteString("t0|begin|0\n")
		case 1:
			sb.WriteString("t0|end|0\n")
		case 2:
			sb.WriteString("t1|w(x12)|44\n")
		case 3:
			sb.WriteString("t2|r(x12)|44\n")
		case 4:
			sb.WriteString("t0|acq(lk)|1\nt0|rel(lk)|1\n")
		}
	}
	data := []byte(sb.String())
	want, _ := readAll(t, data)
	for trial := 0; trial < 20; trial++ {
		sizes := make([]int, 1+rng.Intn(6))
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(97)
		}
		got, err := drainFeeder(t, data, sizes)
		if err != io.EOF {
			t.Fatalf("chunks %v: terminal %v, want io.EOF", sizes, err)
		}
		if !sameEvents(got, want) {
			t.Fatalf("chunks %v: %d events, want %d", sizes, len(got), len(want))
		}
	}
}

func TestFeederLatchesAndBounds(t *testing.T) {
	f := NewFeeder()
	f.Feed([]byte("t0|bogus|\n"))
	batch := make([]trace.Event, 4)
	if _, err := f.ReadBatch(batch); err == nil {
		t.Fatal("want parse error")
	}
	if f.Err() == nil {
		t.Fatal("Err: want latched parse error")
	}
	// Terminal feeder discards further input rather than buffering it.
	f.Feed([]byte("t0|begin|0\n"))
	if f.Buffered() != 0 {
		t.Fatalf("Buffered = %d after terminal feed, want 0", f.Buffered())
	}
	if n, err := f.ReadBatch(batch); n != 0 || err == nil {
		t.Fatalf("ReadBatch after latch = (%d, %v), want (0, latched error)", n, err)
	}

	// A drained healthy feeder retains only the partial line.
	f2 := NewFeeder()
	f2.Feed([]byte("t0|begin|0\nt0|w(x"))
	if n, err := f2.ReadBatch(batch); n != 1 || err != nil {
		t.Fatalf("ReadBatch = (%d, %v), want (1, nil)", n, err)
	}
	f2.Feed([]byte(")|5\n"))
	if got := f2.Buffered(); got != len("t0|w(x)|5\n") {
		t.Fatalf("Buffered = %d, want %d", got, len("t0|w(x)|5\n"))
	}
	if n, err := f2.ReadBatch(batch); n != 1 || err != nil {
		t.Fatalf("ReadBatch = (%d, %v), want (1, nil)", n, err)
	}
	f2.Close()
	if n, err := f2.ReadBatch(batch); n != 0 || err != io.EOF {
		t.Fatalf("ReadBatch after Close = (%d, %v), want (0, io.EOF)", n, err)
	}
	if f2.Err() != nil {
		t.Fatalf("Err after clean EOF = %v, want nil", f2.Err())
	}

	// Read on a push decoder that waits for input reports io.EOF without
	// ending the stream; Discard then drops the partial line and ends it
	// cleanly.
	f3 := NewFeeder()
	f3.Feed([]byte("t0|begin|0\nt0|w(x"))
	if ev, err := f3.Read(); err != nil || ev.Kind != trace.Begin {
		t.Fatalf("Read = (%v, %v), want the begin", ev, err)
	}
	if _, err := f3.Read(); err != io.EOF || f3.Err() != nil {
		t.Fatalf("Read while waiting = %v (Err %v), want io.EOF, not latched", err, f3.Err())
	}
	f3.Feed([]byte(")|5\nt0|r(x"))
	if ev, err := f3.Read(); err != nil || ev.Kind != trace.Write {
		t.Fatalf("Read after Feed = (%v, %v), want the write", ev, err)
	}
	f3.Discard()
	f3.Feed([]byte(")|6\n"))
	if f3.Buffered() != 0 {
		t.Fatalf("Buffered = %d after Discard, want 0", f3.Buffered())
	}
	if n, err := f3.ReadBatch(batch); n != 0 || err != io.EOF || f3.Err() != nil {
		t.Fatalf("ReadBatch after Discard = (%d, %v), want (0, io.EOF) and nil Err", n, err)
	}
}

// TestFeederLineTooLongMatchesReader pins the shared 1 MiB line bound: a
// newline-free stream must latch bufio.ErrTooLong on both the push and
// pull paths (so a server session cannot buffer unboundedly, and the two
// paths stay chunking-equivalent even on pathological input).
func TestFeederLineTooLongMatchesReader(t *testing.T) {
	half := bytes.Repeat([]byte{'x'}, 1<<19)
	batch := make([]trace.Event, 4)

	f := NewFeeder()
	f.Feed(half)
	if n, err := f.ReadBatch(batch); n != 0 || err != nil {
		t.Fatalf("half-line ReadBatch = (%d, %v), want (0, nil)", n, err)
	}
	f.Feed(half)
	if _, err := f.ReadBatch(batch); err != bufio.ErrTooLong {
		t.Fatalf("1 MiB partial line: err %v, want bufio.ErrTooLong", err)
	}
	// The latch is terminal and further feeds are discarded.
	f.Feed([]byte("t0|begin|0\n"))
	if f.Buffered() != 0 {
		t.Fatalf("Buffered = %d after terminal feed, want 0", f.Buffered())
	}

	rd := NewReader(io.MultiReader(bytes.NewReader(half), bytes.NewReader(half)))
	if _, err := rd.Read(); err != bufio.ErrTooLong {
		t.Fatalf("Reader on the same bytes: err %v, want bufio.ErrTooLong", err)
	}

	// The bound applies even when the terminating newline is already
	// buffered: the Reader can never see such a line complete, so the
	// Feeder must reject it too or the verdict would depend on chunking.
	line := append(append([]byte("t0|w("), bytes.Repeat([]byte{'a'}, 1<<20)...), []byte(")|1\n")...)
	f2 := NewFeeder()
	f2.Feed(append([]byte("t0|begin|0\n"), line...))
	if n, err := f2.ReadBatch(batch); n != 1 || err != bufio.ErrTooLong {
		t.Fatalf("huge complete line: (%d, %v), want (1, bufio.ErrTooLong)", n, err)
	}
	rd2 := NewReader(bytes.NewReader(append([]byte("t0|begin|0\n"), line...)))
	if _, err := rd2.Read(); err != nil {
		t.Fatal(err)
	}
	if _, err := rd2.Read(); err != bufio.ErrTooLong {
		t.Fatalf("Reader on huge complete line: err %v, want bufio.ErrTooLong", err)
	}
}

// TestFeederShrinksAfterDrain pins the capacity bound: a drained feeder
// must not keep the backing array of its largest chunk alive for the
// session's remaining lifetime.
func TestFeederShrinksAfterDrain(t *testing.T) {
	f := NewFeeder()
	f.Feed(bytes.Repeat([]byte("t0|begin|0\nt0|end|0\n"), 100_000)) // ~2 MB
	batch := make([]trace.Event, 1024)
	for {
		n, err := f.ReadBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if n < len(batch) {
			break
		}
	}
	if f.Buffered() != 0 {
		t.Fatalf("Buffered = %d after drain, want 0", f.Buffered())
	}
	if cap(f.buf) > windowSize {
		t.Fatalf("backing array still %d bytes after drain, want ≤ %d", cap(f.buf), windowSize)
	}
}

// noProgressReader returns (0, nil) forever — legal under io.Reader.
type noProgressReader struct{}

func (noProgressReader) Read(p []byte) (int, error) { return 0, nil }

// TestReaderNoProgress pins the bufio-style guard: a source that never
// makes progress errors out instead of spinning the goroutine (on the
// server this would pin a check slot forever and stall the drain).
func TestReaderNoProgress(t *testing.T) {
	rd := NewReader(noProgressReader{})
	if _, err := rd.Read(); err != io.ErrNoProgress {
		t.Fatalf("err %v, want io.ErrNoProgress", err)
	}
}

// dataThenErrReader delivers all its data and a non-EOF error in the same
// Read call — legal under io.Reader, and what a broken network body does.
type dataThenErrReader struct {
	data []byte
	done bool
}

func (r *dataThenErrReader) Read(p []byte) (int, error) {
	if r.done {
		return 0, io.ErrUnexpectedEOF
	}
	r.done = true
	return copy(p, r.data), io.ErrUnexpectedEOF
}

// TestReaderDataWithError pins the read-error rule on sources that return
// data and error together: every complete buffered line is tokenized
// before the error surfaces, and the final partial line is not, because
// only a clean end makes it final.
func TestReaderDataWithError(t *testing.T) {
	rd := NewReader(&dataThenErrReader{data: []byte("t0|begin|0\nt0|w(x)|1\nt0|end")})
	var events int
	for {
		_, err := rd.Read()
		if err != nil {
			if err != io.ErrUnexpectedEOF {
				t.Fatalf("terminal err %v, want io.ErrUnexpectedEOF", err)
			}
			break
		}
		events++
	}
	if events != 2 {
		t.Fatalf("parsed %d events before the error, want 2 (not the partial final line)", events)
	}
	if rd.Err() != io.ErrUnexpectedEOF {
		t.Fatalf("Err() = %v, want io.ErrUnexpectedEOF", rd.Err())
	}
}

// binaryLog renders n pseudo-random events (plus begin/end framing) in the
// compact binary format and returns both encodings, so the push path can be
// pinned against the pull path on identical event sequences.
func binaryLog(t *testing.T, n int, seed int64) (bin []byte, events []trace.Event) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		th := trace.ThreadID(rng.Intn(4))
		switch rng.Intn(4) {
		case 0:
			events = append(events,
				trace.Event{Thread: th, Kind: trace.Begin},
				trace.Event{Thread: th, Kind: trace.Write, Target: int32(rng.Intn(8))},
				trace.Event{Thread: th, Kind: trace.End})
		case 1:
			events = append(events, trace.Event{Thread: th, Kind: trace.Read, Target: int32(rng.Intn(8))})
		case 2:
			events = append(events,
				trace.Event{Thread: th, Kind: trace.Acquire, Target: int32(rng.Intn(2))},
				trace.Event{Thread: th, Kind: trace.Release, Target: int32(rng.Intn(2))})
		case 3:
			events = append(events, trace.Event{Thread: th, Kind: trace.Write, Target: int32(rng.Intn(8))})
		}
	}
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	for _, e := range events {
		if err := bw.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), events
}

// readAllBinary drains a pull decoder from NewBinaryReader.
func readAllBinary(t *testing.T, data []byte) ([]trace.Event, error) {
	t.Helper()
	br := NewBinaryReader(bytes.NewReader(data))
	var got []trace.Event
	for {
		ev, err := br.Read()
		if err != nil {
			return got, err
		}
		got = append(got, ev)
	}
}

// TestFeederBinaryMatchesBinaryReaderAllChunkings pins the push path's
// ADB1 decoding to the pull path's (NewBinaryReader): any chunking of an
// ADB1 stream — including splits inside the magic, the header and
// individual records — yields the identical event sequence and terminal
// error.
func TestFeederBinaryMatchesBinaryReaderAllChunkings(t *testing.T) {
	bin, _ := binaryLog(t, 40, 11)
	// Malformed variants: a bad op kind mid-stream, a target with the sign
	// bit set, a truncated record, a truncated header.
	badKind := append([]byte(nil), bin...)
	badKind[16+8*5+2] = 0xEE
	signTarget := append([]byte(nil), bin...)
	signTarget[16+8*7+7] |= 0x80 // target ≥ 2^31
	truncRecord := bin[:len(bin)-3]
	truncHeader := bin[:9]
	inputs := map[string][]byte{
		"clean":        bin,
		"bad-kind":     badKind,
		"sign-target":  signTarget,
		"trunc-record": truncRecord,
		"trunc-header": truncHeader,
		"header-only":  bin[:16],
	}
	chunkings := [][]int{{1}, {2}, {3}, {5}, {7}, {8}, {16}, {1, 7, 2}, {1 << 10}}
	for name, data := range inputs {
		want, wantErr := readAllBinary(t, data)
		for _, sizes := range chunkings {
			got, gotErr := drainFeeder(t, data, sizes)
			if !sameEvents(got, want) {
				t.Fatalf("%s chunks %v: %d events, want %d", name, sizes, len(got), len(want))
			}
			if (wantErr == io.EOF) != (gotErr == io.EOF) {
				t.Fatalf("%s chunks %v: terminal %v, want %v", name, sizes, gotErr, wantErr)
			}
			if wantErr != io.EOF {
				if gotErr == nil || gotErr.Error() != wantErr.Error() {
					t.Fatalf("%s chunks %v: error %q, want %q", name, sizes, gotErr, wantErr)
				}
			}
		}
	}
}

// TestFeederBinaryTruncationEveryBoundary sweeps every possible
// truncation point of an ADB1 stream — mid-header, mid-record, between
// records — and requires the push path (under several chunkings of the
// truncated bytes, including byte-at-a-time) to reproduce the pull
// decoder from NewBinaryReader exactly: same event prefix, same terminal
// error.
// The older tests only pinned a handful of truncation points; a feed
// arriving over a faulty network can end anywhere.
func TestFeederBinaryTruncationEveryBoundary(t *testing.T) {
	bin, _ := binaryLog(t, 12, 7)
	chunkings := [][]int{{1}, {3}, {8}, {1 << 10}}
	// Cuts shorter than the 4-byte magic are excluded by design: the
	// sniffer cannot yet classify the stream, so the push path falls back
	// to STD text (pinned by TestFeederSniffEdgeCases) while
	// NewBinaryReader assumes binary.
	for cut := 4; cut <= len(bin); cut++ {
		data := bin[:cut]
		want, wantErr := readAllBinary(t, data)
		for _, sizes := range chunkings {
			got, gotErr := drainFeeder(t, data, sizes)
			if !sameEvents(got, want) {
				t.Fatalf("cut %d chunks %v: %d events, want %d", cut, sizes, len(got), len(want))
			}
			if (wantErr == io.EOF) != (gotErr == io.EOF) {
				t.Fatalf("cut %d chunks %v: terminal %v, want %v", cut, sizes, gotErr, wantErr)
			}
			if wantErr != io.EOF {
				if gotErr == nil || gotErr.Error() != wantErr.Error() {
					t.Fatalf("cut %d chunks %v: error %q, want %q", cut, sizes, gotErr, wantErr)
				}
			}
		}
	}
}

func TestFeederBinaryRandomChunking(t *testing.T) {
	bin, want := binaryLog(t, 500, 23)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		sizes := make([]int, 1+rng.Intn(6))
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(97)
		}
		got, err := drainFeeder(t, bin, sizes)
		if err != io.EOF {
			t.Fatalf("chunks %v: terminal %v, want io.EOF", sizes, err)
		}
		if !sameEvents(got, want) {
			t.Fatalf("chunks %v: %d events, want %d", sizes, len(got), len(want))
		}
	}
}

// TestFeederSniffEdgeCases pins the sniffing contract: an inconclusive
// head (shorter than the magic) is STD text, and the decision never
// depends on how the first bytes were chunked.
func TestFeederSniffEdgeCases(t *testing.T) {
	batch := make([]trace.Event, 4)

	// A 3-byte stream that is a strict prefix of the magic: the pull
	// sniffers would select the STD parser, which fails on the line "ADB".
	f := NewFeeder()
	f.Feed([]byte("ADB"))
	if n, err := f.ReadBatch(batch); n != 0 || err != nil {
		t.Fatalf("pre-sniff ReadBatch = (%d, %v), want (0, nil)", n, err)
	}
	f.Close()
	if _, err := f.ReadBatch(batch); err == nil || err == io.EOF {
		t.Fatalf("magic-prefix stream: err %v, want STD parse error", err)
	} else if _, ok := err.(*ParseError); !ok {
		t.Fatalf("magic-prefix stream: err %T (%v), want *ParseError", err, err)
	}

	// The magic split 1+3 across feeds still selects binary.
	bin, want := binaryLog(t, 3, 5)
	f2 := NewFeeder()
	f2.Feed(bin[:1])
	if n, err := f2.ReadBatch(batch); n != 0 || err != nil {
		t.Fatalf("split-magic ReadBatch = (%d, %v), want (0, nil)", n, err)
	}
	f2.Feed(bin[1:])
	f2.Close()
	var got []trace.Event
	for {
		n, err := f2.ReadBatch(batch)
		got = append(got, batch[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !sameEvents(got, want) {
		t.Fatalf("split-magic: %d events, want %d", len(got), len(want))
	}

	// An empty stream is STD (clean EOF), matching the sniffed pull path.
	f3 := NewFeeder()
	f3.Close()
	if n, err := f3.ReadBatch(batch); n != 0 || err != io.EOF {
		t.Fatalf("empty stream: (%d, %v), want (0, io.EOF)", n, err)
	}
	if f3.Err() != nil {
		t.Fatalf("empty stream Err = %v, want nil", f3.Err())
	}
}

func TestIsBinary(t *testing.T) {
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !IsBinary(buf.Bytes()) {
		t.Fatal("IsBinary(binary header) = false")
	}
	for _, head := range [][]byte{nil, []byte("ADB"), []byte("t0|begin|0\n")} {
		if IsBinary(head) {
			t.Fatalf("IsBinary(%q) = true", head)
		}
	}
}
