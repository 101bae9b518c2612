// Package rapidio reads and writes trace logs in the STD text format used
// by the RAPID tool (the paper's implementation vehicle), plus a compact
// binary format for large logs.
//
// The STD format is one event per line:
//
//	<thread>|<op>|<location>
//
// where <thread> is a thread name (conventionally t0, t1, …), <op> is one
// of r(x), w(x), acq(ℓ), rel(ℓ), fork(t), join(t), begin, end, and
// <location> is an optional integer source-location tag, ignored by the
// checkers but preserved on round trips. Example:
//
//	t0|fork(t1)|0
//	t0|begin|12
//	t0|w(x3)|12
//	t1|acq(l0)|7
//
// Thread, variable and lock names are interned in first-appearance order,
// matching the dense IDs the checkers use.
//
// The binary format ("ADB1") is a 16-byte header followed by fixed 8-byte
// little-endian records (thread uint16, kind uint8, pad uint8, target
// int32), suitable for multi-gigabyte logs.
//
// One Decoder reads both formats, whether it pulls bytes from an io.Reader
// or the caller pushes them in chunks, so a stream decodes to the same
// events and the same terminal error however it arrives. A sniffing
// Decoder reads the first four bytes: the ADB1 magic selects binary,
// anything else STD, and a stream that ends before four bytes is STD. Only
// a clean end (io.EOF from the source, or Close) makes a final line
// without a newline parseable, or a partial record a format error; any
// other read error is returned as itself, after the events of the complete
// lines or records before it.
package rapidio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"aerodrome/internal/trace"
)

// ErrFormat wraps all parse errors.
var ErrFormat = errors.New("rapidio: bad trace format")

// ParseError reports a malformed input line.
type ParseError struct {
	Line   int
	Text   string
	Reason string
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("rapidio: line %d %q: %s", e.Line, e.Text, e.Reason)
}

// Unwrap lets errors.Is(err, ErrFormat) succeed.
func (e *ParseError) Unwrap() error { return ErrFormat }

const (
	// windowSize is the pull window, and what a push window shrinks back
	// to once drained.
	windowSize = 64 * 1024
	// maxLineSize bounds a single STD line; longer lines fail with
	// bufio.ErrTooLong, as bufio.Scanner does. The bound holds in push
	// mode too, so a newline-free stream cannot buffer without limit in a
	// server session.
	maxLineSize = 1 << 20
	// maxConsecutiveEmptyReads mirrors bufio's tolerance for sources
	// that return (0, nil) before failing with io.ErrNoProgress.
	maxConsecutiveEmptyReads = 100

	headerSize = 16 // ADB1 header: the magic and 12 reserved bytes
	recordSize = 8  // one ADB1 record
)

// state is what a Decoder expects next in its stream.
type state uint8

const (
	sniffing   state = iota // the format is not known yet
	stdLines                // STD text, one event per line
	binHeader               // ADB1, before its header
	binRecords              // ADB1 records
)

// Decoder streams events from one trace stream, STD or ADB1. Its bytes
// arrive one of two ways:
//
//   - pull: NewReader (STD), NewBinaryReader (ADB1) and NewDecoder
//     (sniffed) read from an io.Reader into a 64 KiB window, which grows
//     only to hold a longer line;
//   - push: NewFeeder (sniffed) takes chunks from Feed as they come off
//     the wire, with boundaries anywhere, and Close marks the end.
//
// Both decode the window with the same sweep, so the events, names and
// terminal error do not depend on how the stream was chunked. A Decoder
// implements trace.Source by stopping the stream at the first error
// (recorded for Err).
type Decoder struct {
	src io.Reader // nil for a push decoder
	buf []byte
	pos int // buf[pos:end] is the unconsumed window
	end int
	// final is why no more bytes will come: io.EOF for a clean end (the
	// source's EOF, or Close), else the source's read error. The window is
	// still decoded before it surfaces.
	final      error
	emptyReads int
	err        error // the latched terminal error
	state      state
	seen       int   // bytes of a partial STD line already searched for '\n'
	records    int64 // ADB1 records decoded so far

	// The STD tokenizer: the running line number for error reporting and
	// the intern tables.
	line        int
	threads     map[string]trace.ThreadID
	vars        map[string]trace.VarID
	locks       map[string]trace.LockID
	threadNames []string
	varNames    []string
	lockNames   []string
}

// NewReader returns a Decoder that reads STD text from r.
func NewReader(r io.Reader) *Decoder { return newDecoder(r, stdLines) }

// NewBinaryReader returns a Decoder that reads the ADB1 format from r.
func NewBinaryReader(r io.Reader) *Decoder { return newDecoder(r, binHeader) }

// NewDecoder returns a Decoder that reads from r in the format its first
// four bytes select.
func NewDecoder(r io.Reader) *Decoder { return newDecoder(r, sniffing) }

// NewFeeder returns an empty push Decoder, for streams that arrive in
// pieces (the aerodromed session API), in the format its first four bytes
// select.
func NewFeeder() *Decoder { return newDecoder(nil, sniffing) }

func newDecoder(src io.Reader, s state) *Decoder {
	d := &Decoder{
		src:     src,
		state:   s,
		threads: map[string]trace.ThreadID{},
		vars:    map[string]trace.VarID{},
		locks:   map[string]trace.LockID{},
	}
	if src != nil {
		d.buf = make([]byte, windowSize)
	}
	return d
}

// Names returns the interned symbol tables accumulated so far (empty for
// ADB1, whose records carry raw IDs).
func (d *Decoder) Names() (threads, vars, locks []string) {
	return d.threadNames, d.varNames, d.lockNames
}

// Feed appends chunk to a push decoder's window (copying it; the caller
// may reuse chunk). Events become available to ReadBatch once their line
// or record is complete. Feeding after Close, Discard or a terminal error
// is a no-op.
func (d *Decoder) Feed(chunk []byte) {
	if d.final != nil || d.err != nil {
		return
	}
	d.compact()
	d.buf = append(d.buf[:d.end], chunk...)
	d.end = len(d.buf)
	d.buf = d.buf[:cap(d.buf)]
}

// Close marks a clean end of the stream: a final line without a newline
// becomes parseable, and once the window is drained ReadBatch returns
// io.EOF.
func (d *Decoder) Close() {
	if d.final == nil {
		d.final = io.EOF
	}
}

// Discard drops any buffered input and ends the stream cleanly: the
// caller has decided the rest is irrelevant (a violation latched
// mid-chunk) and the tail must not stay pinned in memory.
func (d *Decoder) Discard() {
	if d.err == nil {
		d.latch(io.EOF)
	}
}

// Buffered returns the number of bytes taken in but not yet decoded (at
// most one partial line or record once a push decoder has been drained;
// zero once the stream is terminal).
func (d *Decoder) Buffered() int { return d.end - d.pos }

// latch records the terminal error and releases the window: a terminal
// decoder (a failed or finished server session) must not pin its last
// chunk in memory.
func (d *Decoder) latch(err error) {
	d.err = err
	d.buf, d.pos, d.end = nil, 0, 0
}

// ReadBatch fills dst with up to len(dst) events and returns how many it
// filled, plus the terminal error if the stream ended inside this batch:
// io.EOF for a clean end, otherwise a *ParseError, an ADB1 format error,
// bufio.ErrTooLong or the source's read error. The error is latched, and
// n may be positive alongside it. A pull decoder returns n < len(dst) only
// with an error. A push decoder also returns n < len(dst) with a nil error
// once it has decoded every complete line or record fed so far: Feed more,
// or Close.
func (d *Decoder) ReadBatch(dst []trace.Event) (int, error) {
	n := 0
	for d.err == nil && n < len(dst) {
		switch d.state {
		case sniffing:
			if d.end-d.pos >= len(binMagic) || d.final != nil {
				d.state = stdLines
				if IsBinary(d.buf[d.pos:d.end]) {
					d.state = binHeader
				}
				continue
			}
		case binHeader:
			if d.end-d.pos >= headerSize || d.final == io.EOF {
				d.readHeader()
				continue
			}
		case stdLines:
			n += d.readLines(dst[n:])
		case binRecords:
			n += d.readRecords(dst[n:])
		}
		if d.err == nil && n < len(dst) && !d.refill() {
			if d.final == nil {
				return n, nil // a push decoder waits for Feed
			}
			d.latch(d.final)
		}
	}
	return n, d.err
}

// readLines is the STD line sweep: it tokenizes the complete lines in the
// window into dst with a local cursor and commits the cursor once. At a
// clean end the final line needs no newline.
func (d *Decoder) readLines(dst []trace.Event) int {
	win := d.buf[d.pos:d.end]
	// The first seen bytes of the window were searched for a newline by
	// the sweep that ran dry; searching them again would make a long line
	// that arrives in small pieces cost quadratic time.
	base, n, seen := 0, 0, d.seen
	for n < len(dst) {
		raw := win[base:]
		if i := bytes.IndexByte(raw[seen:], '\n'); i >= 0 {
			raw = raw[:seen+i]
			base += seen + i + 1
		} else if d.final == io.EOF && len(raw) > 0 {
			base = len(win)
		} else if len(raw) < maxLineSize {
			// The window has run dry.
			d.pos += base
			d.seen = len(raw)
			return n
		}
		seen = 0
		// A line this long fails even when its newline has arrived: a pull
		// window never holds it whole, so a push window must not either.
		if len(raw) >= maxLineSize {
			d.latch(bufio.ErrTooLong)
			return n
		}
		d.line++
		line := bytes.TrimSpace(raw)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		ev, err := d.parseLine(line)
		if err != nil {
			d.latch(err)
			return n
		}
		dst[n] = ev
		n++
	}
	d.pos += base
	d.seen = 0
	return n
}

// readHeader consumes the 16-byte ADB1 header, of which only the magic is
// checked; the window holds less only at a clean end.
func (d *Decoder) readHeader() {
	hdr := d.buf[d.pos:d.end]
	switch {
	case len(hdr) < headerSize:
		d.latch(fmt.Errorf("rapidio: short binary header: %w", ErrFormat))
	case !IsBinary(hdr):
		d.latch(fmt.Errorf("rapidio: bad magic %q: %w", hdr[:len(binMagic)], ErrFormat))
	default:
		d.pos += headerSize
		d.state = binRecords
	}
}

// readRecords is the ADB1 record loop: it decodes the complete records in
// the window into dst. At a clean end a partial record is a format error.
func (d *Decoder) readRecords(dst []trace.Event) int {
	n := 0
	for ; n < len(dst) && d.end-d.pos >= recordSize; n++ {
		ev, err := decodeRecord(d.buf[d.pos:d.pos+recordSize], d.records)
		if err != nil {
			d.latch(err)
			return n
		}
		dst[n] = ev
		d.pos += recordSize
		d.records++
	}
	if n < len(dst) && d.final == io.EOF && d.pos < d.end {
		d.latch(fmt.Errorf("rapidio: truncated record: %w", ErrFormat))
	}
	return n
}

// refill is the one step taken when the window has run dry. It slides the
// unconsumed tail to the front of the buffer: a pull decoder doubles the
// buffer when the tail fills it (readLines stops a line at maxLineSize
// first), and a buffer grown past windowSize shrinks back once the tail is
// small, so an idle session does not pin its largest chunk. A pull decoder
// then reads from its source and reports true; refill reports false when
// the stream has ended (d.final is set) or a push decoder waits for Feed.
func (d *Decoder) refill() bool {
	if d.final != nil {
		return false
	}
	switch tail := d.end - d.pos; {
	case d.src != nil && tail == len(d.buf):
		d.resize(2 * len(d.buf))
	case len(d.buf) > windowSize && tail <= windowSize/4:
		d.resize(windowSize)
	default:
		d.compact()
	}
	if d.src == nil {
		return false
	}
	n, err := d.src.Read(d.buf[d.end:])
	d.end += n
	switch {
	case err != nil:
		// A source may deliver data and its error in one call: the data
		// is decoded before the error surfaces.
		d.final = err
	case n > 0:
		d.emptyReads = 0
	default:
		// A source that keeps returning (0, nil), legal under io.Reader,
		// must fail rather than spin, as in bufio.
		d.emptyReads++
		if d.emptyReads >= maxConsecutiveEmptyReads {
			d.final = io.ErrNoProgress
		}
	}
	return true
}

// compact slides the unconsumed window to the front of the buffer.
func (d *Decoder) compact() {
	if d.pos > 0 {
		d.end = copy(d.buf, d.buf[d.pos:d.end])
		d.pos = 0
	}
}

// resize moves the unconsumed window to the front of a new buffer of size
// bytes.
func (d *Decoder) resize(size int) {
	buf := make([]byte, size)
	d.end = copy(buf, d.buf[d.pos:d.end])
	d.buf, d.pos = buf, 0
}

// Read returns the next event, or the terminal error as ReadBatch does:
// io.EOF at a clean end, a *ParseError for a malformed line, and so on.
// Parsing tokenizes in place over the window: the only per-line
// allocations are the first interning of each thread, variable and lock
// name (and error paths). A push decoder waiting for Feed returns io.EOF
// without latching it.
func (d *Decoder) Read() (trace.Event, error) {
	var one [1]trace.Event
	if n, err := d.ReadBatch(one[:]); n == 0 {
		if err == nil {
			err = io.EOF
		}
		return trace.Event{}, err
	}
	return one[0], nil
}

// Next implements trace.Source: it stops the stream at the first error
// and records it for Err.
func (d *Decoder) Next() (trace.Event, bool) {
	ev, err := d.Read()
	return ev, err == nil
}

// Err returns the terminal error of the stream, if any (nil after a clean
// end).
func (d *Decoder) Err() error {
	if d.err == io.EOF {
		return nil
	}
	return d.err
}

// parseLine parses one trimmed, non-empty line. The []byte slices index
// into the window and must not be retained; the intern tables copy names
// only on first sight (map lookups with string(bytes) keys do not
// allocate).
func (d *Decoder) parseLine(line []byte) (trace.Event, error) {
	fail := func(reason string) (trace.Event, error) {
		return trace.Event{}, &ParseError{Line: d.line, Text: string(line), Reason: reason}
	}
	sep1 := bytes.IndexByte(line, '|')
	if sep1 < 0 {
		return fail("want thread|op or thread|op|loc")
	}
	rest := line[sep1+1:]
	op := rest
	if sep2 := bytes.IndexByte(rest, '|'); sep2 >= 0 {
		op = bytes.TrimSpace(rest[:sep2])
		loc := bytes.TrimSpace(rest[sep2+1:])
		if bytes.IndexByte(loc, '|') >= 0 {
			return fail("want thread|op or thread|op|loc")
		}
		// The location is validated but otherwise ignored.
		for _, c := range loc {
			if c < '0' || c > '9' {
				return fail("non-numeric location")
			}
		}
	} else {
		op = bytes.TrimSpace(op)
	}
	tname := bytes.TrimSpace(line[:sep1])
	if len(tname) == 0 {
		return fail("empty thread name")
	}
	t := d.internThread(tname)

	if string(op) == "begin" {
		return trace.Event{Thread: t, Kind: trace.Begin}, nil
	}
	if string(op) == "end" {
		return trace.Event{Thread: t, Kind: trace.End}, nil
	}
	open := bytes.IndexByte(op, '(')
	if open < 1 || op[len(op)-1] != ')' {
		return fail("unknown operation " + string(op))
	}
	name := op[:open]
	arg := op[open+1 : len(op)-1]
	if len(arg) == 0 {
		return fail("empty operand")
	}
	switch string(name) {
	case "r":
		return trace.Event{Thread: t, Kind: trace.Read, Target: int32(d.internVar(arg))}, nil
	case "w":
		return trace.Event{Thread: t, Kind: trace.Write, Target: int32(d.internVar(arg))}, nil
	case "acq":
		return trace.Event{Thread: t, Kind: trace.Acquire, Target: int32(d.internLock(arg))}, nil
	case "rel":
		return trace.Event{Thread: t, Kind: trace.Release, Target: int32(d.internLock(arg))}, nil
	case "fork":
		return trace.Event{Thread: t, Kind: trace.Fork, Target: int32(d.internThread(arg))}, nil
	case "join":
		return trace.Event{Thread: t, Kind: trace.Join, Target: int32(d.internThread(arg))}, nil
	}
	return fail("unknown operation " + string(name))
}

func (d *Decoder) internThread(name []byte) trace.ThreadID {
	if id, ok := d.threads[string(name)]; ok {
		return id
	}
	id := trace.ThreadID(len(d.threads))
	s := string(name)
	d.threads[s] = id
	d.threadNames = append(d.threadNames, s)
	return id
}

func (d *Decoder) internVar(name []byte) trace.VarID {
	if id, ok := d.vars[string(name)]; ok {
		return id
	}
	id := trace.VarID(len(d.vars))
	s := string(name)
	d.vars[s] = id
	d.varNames = append(d.varNames, s)
	return id
}

func (d *Decoder) internLock(name []byte) trace.LockID {
	if id, ok := d.locks[string(name)]; ok {
		return id
	}
	id := trace.LockID(len(d.locks))
	s := string(name)
	d.locks[s] = id
	d.lockNames = append(d.lockNames, s)
	return id
}

// ReadTrace materializes a whole STD log.
func ReadTrace(r io.Reader) (*trace.Trace, error) {
	rd := NewReader(r)
	tr := &trace.Trace{}
	for {
		ev, err := rd.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		tr.Append(ev)
	}
	tr.ThreadNames, tr.VarNames, tr.LockNames = rd.Names()
	return tr, nil
}

// Writer emits events in the STD format.
type Writer struct {
	w  *bufio.Writer
	tr *trace.Trace // optional name source
}

// NewWriter returns a Writer. When names is non-nil its symbol tables are
// used for display names; otherwise names are synthesized (t0, x1, l2).
func NewWriter(w io.Writer, names *trace.Trace) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), tr: names}
}

// Write emits one event.
func (wr *Writer) Write(e trace.Event) error {
	var err error
	tn := wr.threadName(e.Thread)
	switch e.Kind {
	case trace.Begin:
		_, err = fmt.Fprintf(wr.w, "%s|begin|0\n", tn)
	case trace.End:
		_, err = fmt.Fprintf(wr.w, "%s|end|0\n", tn)
	case trace.Read:
		_, err = fmt.Fprintf(wr.w, "%s|r(%s)|0\n", tn, wr.varName(e.Var()))
	case trace.Write:
		_, err = fmt.Fprintf(wr.w, "%s|w(%s)|0\n", tn, wr.varName(e.Var()))
	case trace.Acquire:
		_, err = fmt.Fprintf(wr.w, "%s|acq(%s)|0\n", tn, wr.lockName(e.Lock()))
	case trace.Release:
		_, err = fmt.Fprintf(wr.w, "%s|rel(%s)|0\n", tn, wr.lockName(e.Lock()))
	case trace.Fork:
		_, err = fmt.Fprintf(wr.w, "%s|fork(%s)|0\n", tn, wr.threadName(e.Other()))
	case trace.Join:
		_, err = fmt.Fprintf(wr.w, "%s|join(%s)|0\n", tn, wr.threadName(e.Other()))
	default:
		err = fmt.Errorf("rapidio: unknown event kind %d", e.Kind)
	}
	return err
}

// Flush flushes buffered output.
func (wr *Writer) Flush() error { return wr.w.Flush() }

func (wr *Writer) threadName(t trace.ThreadID) string {
	if wr.tr != nil {
		return wr.tr.ThreadName(t)
	}
	return fmt.Sprintf("t%d", t)
}

func (wr *Writer) varName(x trace.VarID) string {
	if wr.tr != nil {
		return wr.tr.VarName(x)
	}
	return fmt.Sprintf("x%d", x)
}

func (wr *Writer) lockName(l trace.LockID) string {
	if wr.tr != nil {
		return wr.tr.LockName(l)
	}
	return fmt.Sprintf("l%d", l)
}

// WriteTrace writes tr as an STD log.
func WriteTrace(w io.Writer, tr *trace.Trace) error {
	wr := NewWriter(w, tr)
	for _, e := range tr.Events {
		if err := wr.Write(e); err != nil {
			return err
		}
	}
	return wr.Flush()
}

// WriteSource drains a Source into an STD log.
func WriteSource(w io.Writer, src trace.Source) (int64, error) {
	wr := NewWriter(w, nil)
	var n int64
	for {
		e, ok := src.Next()
		if !ok {
			return n, wr.Flush()
		}
		if err := wr.Write(e); err != nil {
			return n, err
		}
		n++
	}
}

// --- binary format -----------------------------------------------------------

var binMagic = [4]byte{'A', 'D', 'B', '1'}

// IsBinary reports whether head (the first bytes of a trace stream, at
// least 4 to be conclusive) carries the binary-format magic. The sniffing
// Decoder and the tests that pin it share this so the magic lives in one
// place.
func IsBinary(head []byte) bool {
	return len(head) >= len(binMagic) && [4]byte(head[:4]) == binMagic
}

// BinaryWriter emits the compact binary format.
type BinaryWriter struct {
	w      *bufio.Writer
	wrote  bool
	record [8]byte
}

// NewBinaryWriter returns a BinaryWriter over w.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

// Write emits one event record, writing the header first if needed.
func (bw *BinaryWriter) Write(e trace.Event) error {
	if !bw.wrote {
		bw.wrote = true
		var hdr [16]byte
		copy(hdr[:4], binMagic[:])
		if _, err := bw.w.Write(hdr[:]); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint16(bw.record[0:2], uint16(e.Thread))
	bw.record[2] = byte(e.Kind)
	bw.record[3] = 0
	binary.LittleEndian.PutUint32(bw.record[4:8], uint32(e.Target))
	_, err := bw.w.Write(bw.record[:])
	return err
}

// Flush flushes buffered output (writing the header even for empty logs).
func (bw *BinaryWriter) Flush() error {
	if !bw.wrote {
		bw.wrote = true
		var hdr [16]byte
		copy(hdr[:4], binMagic[:])
		if _, err := bw.w.Write(hdr[:]); err != nil {
			return err
		}
	}
	return bw.w.Flush()
}

// decodeRecord decodes rec, the n-th (0-based) 8-byte record of an ADB1
// stream. Engines index dense tables by target, so a target of 2^31 or
// more, which would turn into a negative index, is a format error.
func decodeRecord(rec []byte, n int64) (trace.Event, error) {
	kind := trace.OpKind(rec[2])
	if kind > trace.Join {
		return trace.Event{}, fmt.Errorf("rapidio: bad op kind %d: %w", rec[2], ErrFormat)
	}
	target := binary.LittleEndian.Uint32(rec[4:8])
	if target > math.MaxInt32 {
		return trace.Event{}, fmt.Errorf("rapidio: record %d: target %#x is 2^31 or more: %w", n, target, ErrFormat)
	}
	return trace.Event{
		Thread: trace.ThreadID(binary.LittleEndian.Uint16(rec[0:2])),
		Kind:   kind,
		Target: int32(target),
	}, nil
}
