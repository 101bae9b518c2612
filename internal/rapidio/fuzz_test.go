package rapidio

// FuzzDecode: arbitrary bytes, cut into fuzz-chosen chunks, must decode to
// the same events, names and terminal error through every pull constructor
// and through the push path. STD input must also match a reference built
// from bufio.Scanner, so the line sweep is checked against something other
// than itself.

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"aerodrome/internal/trace"
)

// decoded is everything a decoder yields for one stream.
type decoded struct {
	events []trace.Event
	names  [3][]string
	err    string // the terminal error's text
}

func (d *Decoder) result(events []trace.Event, err error) decoded {
	threads, vars, locks := d.Names()
	return decoded{events: events, names: [3][]string{threads, vars, locks}, err: err.Error()}
}

// chunkReader hands out data in the given chunk sizes (cycling), with
// io.EOF on the last chunk.
type chunkReader struct {
	data  []byte
	sizes []int
	i     int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	n := min(r.sizes[r.i%len(r.sizes)], len(p), len(r.data))
	r.i++
	n = copy(p, r.data[:n])
	r.data = r.data[n:]
	if len(r.data) == 0 {
		return n, io.EOF
	}
	return n, nil
}

// pull drains d with ReadBatch.
func pull(d *Decoder) decoded {
	var events []trace.Event
	batch := make([]trace.Event, 5)
	for {
		n, err := d.ReadBatch(batch)
		events = append(events, batch[:n]...)
		if err != nil {
			return d.result(events, err)
		}
	}
}

// scanSTD is the reference STD decoder: bufio.Scanner lines under the same
// cap, trimmed, then parseLine.
func scanSTD(data []byte) decoded {
	ref := NewFeeder() // only its intern tables and line count are used
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, windowSize), maxLineSize)
	var events []trace.Event
	for sc.Scan() {
		ref.line++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		ev, err := ref.parseLine(line)
		if err != nil {
			return ref.result(events, err)
		}
		events = append(events, ev)
	}
	err := sc.Err()
	if err == nil {
		err = io.EOF
	}
	return ref.result(events, err)
}

func FuzzDecode(f *testing.F) {
	paths, err := filepath.Glob("../../testdata/golden/*.std")
	if err != nil || len(paths) == 0 {
		f.Fatalf("golden corpus missing (%v)", err)
	}
	for i, p := range paths {
		std, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		tr, err := ReadTrace(bytes.NewReader(std))
		if err != nil {
			f.Fatal(err)
		}
		var bin bytes.Buffer
		bw := NewBinaryWriter(&bin)
		for _, e := range tr.Events {
			bw.Write(e)
		}
		if err := bw.Flush(); err != nil {
			f.Fatal(err)
		}
		f.Add(std, []byte{byte(i)})
		f.Add(bin.Bytes(), []byte{byte(i), 2})
	}
	for _, probe := range []string{
		"t0|begin|0\r\nt0|w(x)|1\r\nt0|end|0\r\n",
		"# comment\n\n#t0|oops\nt0|begin|0\n",
		"  t0 | w( x ) | 7  \n\tt0|end\t\n",
		"t0|begin|0|1\n",
		"t0|begin|x9\n",
		"t0|frob(x)|0\n",
		"t0|begin|0\nt0|end",
		"ADB",
		"ADB1|begin|0\n",
		"ADB1\x00\x00",
		"",
	} {
		f.Add([]byte(probe), []byte{0, 3, 1})
	}
	// Lines at the cap: one whole, one arriving two bytes at a time (which
	// took quadratic time while every sweep searched the partial line from
	// its start).
	long := bytes.Repeat([]byte{'a'}, maxLineSize)
	f.Add(append(append([]byte("t0|begin|0\nt0|w("), long...), ")|0\n"...), []byte{255})
	f.Add(long, []byte{1})

	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		// A cut byte b makes a chunk of 1+b² bytes: fine-grained where
		// splits matter, coarse enough for megabyte inputs.
		sizes := []int{len(data) + 1}
		if len(cuts) > 0 {
			sizes = sizes[:0]
			for _, b := range cuts {
				sizes = append(sizes, 1+int(b)*int(b))
			}
		}
		want := pull(NewDecoder(&chunkReader{data: data, sizes: sizes}))
		byFormat := NewReader
		if IsBinary(data) {
			byFormat = NewBinaryReader
		}
		push := NewFeeder()
		var events []trace.Event
		err := feed(push, data, sizes, make([]trace.Event, 7), func(evs []trace.Event) {
			events = append(events, evs...)
		})
		for name, got := range map[string]decoded{
			"format reader": pull(byFormat(&chunkReader{data: data, sizes: sizes})),
			"push":          push.result(events, err),
		} {
			if !sameEvents(got.events, want.events) || !reflect.DeepEqual(got.names, want.names) || got.err != want.err {
				t.Fatalf("%s: %d events, names %v, error %q; sniffing reader: %d events, names %v, error %q",
					name, len(got.events), got.names, got.err, len(want.events), want.names, want.err)
			}
		}
		if IsBinary(data) {
			return
		}
		ref := scanSTD(data)
		if !sameEvents(ref.events, want.events) || !reflect.DeepEqual(ref.names, want.names) || ref.err != want.err {
			t.Fatalf("decoder: %d events, names %v, error %q; bufio.Scanner reference: %d events, names %v, error %q",
				len(want.events), want.names, want.err, len(ref.events), ref.names, ref.err)
		}
	})
}
