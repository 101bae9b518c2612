package rapidio

// Parser benchmarks: trace ingest speed is tracked alongside engine speed
// (a checker that outruns its parser is bounded by the parser). The STD
// benchmark exercises the in-place tokenizer; with all names interned
// after the first pass over the stream, steady-state parsing performs no
// per-line allocations.

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"aerodrome/internal/trace"
	"aerodrome/internal/workload"
)

// benchSTD renders a representative workload trace once, as STD text.
func benchSTD(b *testing.B) []byte {
	b.Helper()
	var buf bytes.Buffer
	src := workload.New(workload.Config{
		Name: "parse-bench", Threads: 8, Vars: 512, Locks: 8,
		Events: 50_000, OpsPerTxn: 4, Pattern: workload.PatternChain,
		Inject: workload.ViolationNone, Seed: 42,
	})
	if _, err := WriteSource(&buf, src); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkParseSTD(b *testing.B) {
	data := benchSTD(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		rd := NewReader(bytes.NewReader(data))
		for {
			_, err := rd.Read()
			if err != nil {
				break
			}
			events++
		}
		if err := rd.Err(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkParseSTDBatch is the batch-path twin of BenchmarkParseSTD: the
// producer side of the pipelined checker and the server's /v1/check path
// pull events through ReadBatch, so this row gates the whole-buffer
// tokenization fast path (scan the fill buffer with bytes.IndexByte
// instead of a scanner round trip per line).
func BenchmarkParseSTDBatch(b *testing.B) {
	data := benchSTD(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	batch := make([]trace.Event, 4096)
	for i := 0; i < b.N; i++ {
		rd := NewReader(bytes.NewReader(data))
		for {
			n, err := rd.ReadBatch(batch)
			events += int64(n)
			if err != nil {
				if err != io.EOF {
					b.Fatal(err)
				}
				break
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkParseSTDFeed is BenchmarkParseSTDBatch through the push path:
// the same trace fed in 64 KiB chunks, as a session client streams it,
// with ReadBatch drained after each chunk.
func BenchmarkParseSTDFeed(b *testing.B) {
	data := benchSTD(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	batch := make([]trace.Event, 4096)
	for i := 0; i < b.N; i++ {
		n, err := feedCount(data, 64*1024, batch)
		if err != nil {
			b.Fatal(err)
		}
		events += n
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// feedCount feeds data to a new push decoder in chunk-byte pieces, drains
// ReadBatch into batch after each, and returns how many events it decoded.
func feedCount(data []byte, chunk int, batch []trace.Event) (int64, error) {
	var events int64
	err := feed(NewFeeder(), data, []int{chunk}, batch, func(evs []trace.Event) {
		events += int64(len(evs))
	})
	if err == io.EOF {
		err = nil
	}
	return events, err
}

func BenchmarkParseBinary(b *testing.B) {
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	src := workload.New(workload.Config{
		Name: "parse-bench", Threads: 8, Vars: 512, Locks: 8,
		Events: 50_000, OpsPerTxn: 4, Pattern: workload.PatternChain,
		Inject: workload.ViolationNone, Seed: 42,
	})
	for {
		ev, ok := src.Next()
		if !ok {
			break
		}
		if err := bw.Write(ev); err != nil {
			b.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br := NewBinaryReader(bytes.NewReader(data))
		for {
			if _, err := br.Read(); err != nil {
				break
			}
		}
		if err := br.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseSteadyStateAllocs pins the zero-allocation property of the
// tokenizer on every way of supplying bytes: once every name has been
// interned, reading the stream must not allocate per line (nor, on the
// push path, per chunk).
func TestParseSteadyStateAllocs(t *testing.T) {
	data := strings.Repeat("t0|begin|0\nt0|w(x1)|3\nt0|r(x1)|4\nt0|end|0\n", 500)
	raw, batch := []byte(data), make([]trace.Event, 64)
	for name, parse := range map[string]func(){
		"Read": func() {
			rd := NewReader(strings.NewReader(data))
			for {
				if _, err := rd.Read(); err != nil {
					break
				}
			}
		},
		"ReadBatch": func() {
			rd := NewReader(strings.NewReader(data))
			for {
				if _, err := rd.ReadBatch(batch); err != nil {
					break
				}
			}
		},
		"Feed": func() {
			if _, err := feedCount(raw, 100, batch); err != nil {
				t.Fatal(err)
			}
		},
	} {
		// Budget: the decoder itself, its maps, its window and the first
		// interning of each name — but nothing proportional to the 2000
		// lines or the 220 chunks.
		if allocs := testing.AllocsPerRun(10, parse); allocs > 40 {
			t.Fatalf("%s allocated %v times for a 2000-line stream; want O(1)", name, allocs)
		}
	}
}
