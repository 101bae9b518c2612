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

// parser holds the line-level STD tokenizer state shared by the pull-mode
// Reader and the push-mode Feeder: the intern tables and the running line
// number for error reporting.
type parser struct {
	line    int
	threads map[string]trace.ThreadID
	vars    map[string]trace.VarID
	locks   map[string]trace.LockID

	threadNames []string
	varNames    []string
	lockNames   []string
}

func newParser() parser {
	return parser{
		threads: map[string]trace.ThreadID{},
		vars:    map[string]trace.VarID{},
		locks:   map[string]trace.LockID{},
	}
}

// Names returns the interned symbol tables accumulated so far.
func (p *parser) Names() (threads, vars, locks []string) {
	return p.threadNames, p.varNames, p.lockNames
}

const (
	// readerBufSize is the initial fill-buffer size (matches the old
	// bufio.Scanner configuration).
	readerBufSize = 64 * 1024
	// maxLineSize bounds a single line; longer lines fail with
	// bufio.ErrTooLong, as the scanner-based reader did. The push-mode
	// Feeder enforces the same bound, so a newline-free stream cannot
	// buffer unboundedly in a server session.
	maxLineSize = 1 << 20
	// maxConsecutiveEmptyReads mirrors bufio's tolerance for sources
	// that return (0, nil) before failing with io.ErrNoProgress.
	maxConsecutiveEmptyReads = 100
)

// Reader streams events from an STD-format log. It implements trace.Source
// by stopping the stream at the first error (recorded for Err); use Read
// for error-returning iteration. Lines may be up to 1 MiB.
//
// The reader manages its own fill buffer rather than delegating to
// bufio.Scanner: ReadBatch tokenizes every complete line already buffered
// with a bytes.IndexByte sweep over the whole window — the hot path of the
// pipelined checker and the aerodromed /v1/check endpoint — instead of a
// scanner round trip per line.
type Reader struct {
	parser
	src io.Reader
	buf []byte
	pos int // buf[pos:end] is the unconsumed window
	end int
	// finalErr is the error that ended the source (io.EOF or a read
	// error). Like bufio.Scanner, everything buffered before it —
	// including a final line without a newline — is still tokenized
	// before the error surfaces.
	finalErr   error
	emptyReads int
	err        error
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{
		parser: newParser(),
		src:    r,
		buf:    make([]byte, readerBufSize),
	}
}

// nextLine returns the next raw line (newline stripped) from the fill
// buffer, touching the underlying reader only when the buffered window
// holds no complete line. The returned slice aliases the buffer and is
// valid until the next call.
func (r *Reader) nextLine() ([]byte, error) {
	for {
		if i := bytes.IndexByte(r.buf[r.pos:r.end], '\n'); i >= 0 {
			line := r.buf[r.pos : r.pos+i]
			r.pos += i + 1
			return line, nil
		}
		if r.finalErr != nil {
			if r.pos == r.end {
				return nil, r.finalErr
			}
			line := r.buf[r.pos:r.end] // final line without trailing newline
			r.pos = r.end
			return line, nil
		}
		// No newline buffered: slide the partial line to the front, grow if
		// it fills the buffer, and refill.
		if r.pos > 0 {
			r.end = copy(r.buf, r.buf[r.pos:r.end])
			r.pos = 0
		}
		if r.end == len(r.buf) {
			if len(r.buf) >= maxLineSize {
				return nil, bufio.ErrTooLong
			}
			next := 2 * len(r.buf)
			if next > maxLineSize {
				next = maxLineSize
			}
			grown := make([]byte, next)
			r.end = copy(grown, r.buf[:r.end])
			r.buf = grown
		}
		n, err := r.src.Read(r.buf[r.end:])
		r.end += n
		if err != nil {
			// Don't return yet: a source may deliver data and its error in
			// one call, and the buffered lines must be tokenized first.
			r.finalErr = err
			r.emptyReads = 0
		} else if n == 0 {
			// Mirror bufio.Scanner's guard: a source that keeps returning
			// (0, nil) — legal under io.Reader — must error, not spin.
			r.emptyReads++
			if r.emptyReads >= maxConsecutiveEmptyReads {
				r.finalErr = io.ErrNoProgress
			}
		} else {
			r.emptyReads = 0
		}
	}
}

// Read returns the next event, io.EOF at the end of input, or a
// *ParseError for malformed lines. Parsing tokenizes in place over the
// fill buffer: the only per-line allocations are the first interning of
// each thread/variable/lock name (and error paths).
func (r *Reader) Read() (trace.Event, error) {
	if r.err != nil {
		return trace.Event{}, r.err
	}
	for {
		raw, err := r.nextLine()
		if err != nil {
			r.err = err
			return trace.Event{}, err
		}
		r.line++
		line := bytes.TrimSpace(raw)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		ev, perr := r.parseLine(line)
		if perr != nil {
			r.err = perr
			return trace.Event{}, perr
		}
		return ev, nil
	}
}

// Next implements trace.Source: it stops the stream at the first error and
// records it for Err.
func (r *Reader) Next() (trace.Event, bool) {
	ev, err := r.Read()
	if err != nil {
		return trace.Event{}, false
	}
	return ev, true
}

// ReadBatch fills dst with up to len(dst) events and returns how many were
// filled plus the terminal error, if the stream ended inside this batch
// (io.EOF for a clean end, a *ParseError or scanner error otherwise). A
// non-nil error means no further events will ever come; n may still be
// positive alongside it. This is the producer side of the pipelined
// checker: one call tokenizes every complete line already in the fill
// buffer in a single sweep, refilling through the general path only when
// the window runs dry.
func (r *Reader) ReadBatch(dst []trace.Event) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	n := 0
	for n < len(dst) {
		// Whole-buffer fast path: consume complete lines straight out of
		// the window, deferring all buffer management to the slow path.
		win := r.buf[r.pos:r.end]
		base := 0
		for n < len(dst) {
			i := bytes.IndexByte(win[base:], '\n')
			if i < 0 {
				break
			}
			raw := win[base : base+i]
			base += i + 1
			r.line++
			line := bytes.TrimSpace(raw)
			if len(line) == 0 || line[0] == '#' {
				continue
			}
			ev, perr := r.parseLine(line)
			if perr != nil {
				r.pos += base
				r.err = perr
				return n, perr
			}
			dst[n] = ev
			n++
		}
		r.pos += base
		if n == len(dst) {
			break
		}
		// Window dry: one event through the refilling path, then resume
		// the buffer sweep.
		ev, err := r.Read()
		if err != nil {
			return n, err
		}
		dst[n] = ev
		n++
	}
	return n, nil
}

// readBatch is the shared fill-until-error loop behind the binary reader's
// ReadBatch (the STD Reader overrides it with the buffer-sweep fast path).
func readBatch(read func() (trace.Event, error), dst []trace.Event) (int, error) {
	n := 0
	for n < len(dst) {
		ev, err := read()
		if err != nil {
			return n, err
		}
		dst[n] = ev
		n++
	}
	return n, nil
}

// Err returns the terminal error of the stream, if any (nil after a clean
// EOF).
func (r *Reader) Err() error {
	if r.err == io.EOF {
		return nil
	}
	return r.err
}

// parseLine parses one trimmed, non-empty line. The []byte slices index
// into the caller's fill buffer and must not be retained; the intern
// tables copy names only on first sight (map lookups with string(bytes)
// keys do not allocate).
func (r *parser) parseLine(line []byte) (trace.Event, error) {
	fail := func(reason string) (trace.Event, error) {
		return trace.Event{}, &ParseError{Line: r.line, Text: string(line), Reason: reason}
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
	t := r.internThread(tname)

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
		return trace.Event{Thread: t, Kind: trace.Read, Target: int32(r.internVar(arg))}, nil
	case "w":
		return trace.Event{Thread: t, Kind: trace.Write, Target: int32(r.internVar(arg))}, nil
	case "acq":
		return trace.Event{Thread: t, Kind: trace.Acquire, Target: int32(r.internLock(arg))}, nil
	case "rel":
		return trace.Event{Thread: t, Kind: trace.Release, Target: int32(r.internLock(arg))}, nil
	case "fork":
		return trace.Event{Thread: t, Kind: trace.Fork, Target: int32(r.internThread(arg))}, nil
	case "join":
		return trace.Event{Thread: t, Kind: trace.Join, Target: int32(r.internThread(arg))}, nil
	}
	return fail("unknown operation " + string(name))
}

func (r *parser) internThread(name []byte) trace.ThreadID {
	if id, ok := r.threads[string(name)]; ok {
		return id
	}
	id := trace.ThreadID(len(r.threads))
	s := string(name)
	r.threads[s] = id
	r.threadNames = append(r.threadNames, s)
	return id
}

func (r *parser) internVar(name []byte) trace.VarID {
	if id, ok := r.vars[string(name)]; ok {
		return id
	}
	id := trace.VarID(len(r.vars))
	s := string(name)
	r.vars[s] = id
	r.varNames = append(r.varNames, s)
	return id
}

func (r *parser) internLock(name []byte) trace.LockID {
	if id, ok := r.locks[string(name)]; ok {
		return id
	}
	id := trace.LockID(len(r.locks))
	s := string(name)
	r.locks[s] = id
	r.lockNames = append(r.lockNames, s)
	return id
}

// feedMode is the wire format a Feeder has sniffed from its first bytes.
type feedMode uint8

const (
	// feedSniff: not enough bytes fed yet to decide the format.
	feedSniff feedMode = iota
	// feedSTD: RAPID STD text, one event per line.
	feedSTD
	// feedBinary: the compact ADB1 format, fixed 8-byte records.
	feedBinary
)

// Feeder is the push-mode twin of Reader and BinaryReader, for event
// streams that arrive in pieces (the aerodromed incremental session API):
// the caller Feeds raw byte chunks as they come off the wire — chunk
// boundaries need not align with line or record boundaries — and drains
// the events completed so far with ReadBatch. The format is sniffed from
// the first four bytes exactly like the /v1/check endpoint (the ADB1
// magic selects the binary record splitter, anything else the STD
// tokenizer), so the verdict never depends on how the stream was chunked.
// Close marks the end of the stream, making a final unterminated STD line
// parseable.
type Feeder struct {
	parser
	buf    []byte
	pos    int // buf[pos:] is unconsumed
	closed bool
	err    error
	mode   feedMode
	// binHeader records that the 16-byte binary header has been consumed.
	binHeader bool
	// binRecords counts the binary records decoded so far.
	binRecords int64
}

// NewFeeder returns an empty Feeder.
func NewFeeder() *Feeder {
	return &Feeder{parser: newParser()}
}

// Feed appends chunk to the parse buffer (copying it; the caller may reuse
// chunk). Events become available to ReadBatch once their terminating
// newline has been fed. Feeding after Close or after a parse error is a
// no-op: the stream is already terminal.
func (f *Feeder) Feed(chunk []byte) {
	if f.closed || f.err != nil {
		return
	}
	if f.pos > 0 {
		// Compact the consumed prefix before appending; after a drain the
		// pending tail is at most one partial line.
		f.buf = append(f.buf[:0], f.buf[f.pos:]...)
		f.pos = 0
	}
	f.buf = append(f.buf, chunk...)
}

// Close marks the end of the stream: a trailing line without a newline
// becomes available to ReadBatch, after which ReadBatch returns io.EOF.
func (f *Feeder) Close() {
	f.closed = true
}

// Discard drops any buffered input and stops accepting more: the caller
// has decided the rest of the stream is irrelevant (a violation latched
// mid-chunk) and the tail must not stay pinned in memory.
func (f *Feeder) Discard() {
	f.closed = true
	f.buf, f.pos = nil, 0
}

// Buffered returns the number of fed bytes not yet consumed by ReadBatch
// (at most one partial line once the feeder has been drained; zero once
// the stream is terminal).
func (f *Feeder) Buffered() int { return len(f.buf) - f.pos }

// latch records the terminal error and releases the parse buffer — a
// terminal feeder (a failed or finished server session) must not pin its
// last chunk in memory.
func (f *Feeder) latch(err error) error {
	f.err = err
	f.buf, f.pos = nil, 0
	return err
}

// feederKeepBuf is the backing-array size a drained Feeder may keep.
const feederKeepBuf = 64 * 1024

// shrink releases an oversized backing array once the pending tail is
// small again: an idle session that once fed a huge chunk must not pin
// that chunk's capacity until eviction.
func (f *Feeder) shrink() {
	if cap(f.buf) > feederKeepBuf && len(f.buf)-f.pos <= feederKeepBuf/4 {
		f.buf = append(make([]byte, 0, feederKeepBuf), f.buf[f.pos:]...)
		f.pos = 0
	}
}

// ReadBatch fills dst with events whose lines (or binary records) are
// complete and returns how many were filled. Unlike Reader.ReadBatch,
// n < len(dst) with a nil error does not end the stream — it means every
// complete buffered unit has been consumed and the caller should Feed more
// bytes. The terminal errors are io.EOF (after Close, once the buffer is
// drained), *ParseError, and the BinaryReader format errors, all latched.
func (f *Feeder) ReadBatch(dst []trace.Event) (int, error) {
	if f.err != nil {
		return 0, f.err
	}
	if f.mode == feedSniff {
		if len(f.buf)-f.pos >= len(binMagic) {
			if IsBinary(f.buf[f.pos:]) {
				f.mode = feedBinary
			} else {
				f.mode = feedSTD
			}
		} else if f.closed {
			// Fewer than four bytes will ever arrive. The pull-side sniffers
			// Peek(4) and get an inconclusive head, which IsBinary rejects,
			// so the stream is treated as STD text; match them.
			f.mode = feedSTD
		} else {
			return 0, nil // need more input to sniff
		}
	}
	if f.mode == feedBinary {
		return f.readBatchBinary(dst)
	}
	n := 0
	for n < len(dst) {
		win := f.buf[f.pos:]
		var raw []byte
		if i := bytes.IndexByte(win, '\n'); i >= 0 {
			raw = win[:i]
			f.pos += i + 1
		} else if !f.closed {
			if len(win) >= maxLineSize {
				// Same bound (and error) as Reader: a line this long can
				// never complete, and an unbounded partial line would let
				// one newline-free session buffer without limit.
				return n, f.latch(bufio.ErrTooLong)
			}
			f.shrink()
			return n, nil // need more input
		} else if len(win) > 0 {
			raw = win // final line without trailing newline
			f.pos = len(f.buf)
		} else {
			return n, f.latch(io.EOF)
		}
		if len(raw) >= maxLineSize {
			// Reader errors on any line this long (its fill buffer caps at
			// maxLineSize before the newline could arrive); the push path
			// must agree even when the newline is already buffered, or the
			// verdict would depend on chunk boundaries.
			return n, f.latch(bufio.ErrTooLong)
		}
		f.line++
		line := bytes.TrimSpace(raw)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		ev, perr := f.parseLine(line)
		if perr != nil {
			return n, f.latch(perr)
		}
		dst[n] = ev
		n++
	}
	return n, nil
}

// readBatchBinary is ReadBatch for a stream sniffed as the ADB1 binary
// format: consume the 16-byte header once, then fixed 8-byte records. The
// decode and every error (short header, bad op kind, truncated record) are
// BinaryReader's, so a binary session is byte-identical to CheckBinaryReader
// over the concatenated chunks regardless of chunk boundaries.
func (f *Feeder) readBatchBinary(dst []trace.Event) (int, error) {
	if !f.binHeader {
		if len(f.buf)-f.pos < 16 {
			if f.closed {
				return 0, f.latch(fmt.Errorf("rapidio: short binary header: %w", ErrFormat))
			}
			f.shrink()
			return 0, nil // need more input
		}
		// The magic was verified by the sniff; the other 12 header bytes are
		// reserved and skipped, as in BinaryReader.
		f.pos += 16
		f.binHeader = true
	}
	n := 0
	for n < len(dst) {
		win := f.buf[f.pos:]
		if len(win) < 8 {
			if !f.closed {
				f.shrink()
				return n, nil // need more input
			}
			if len(win) == 0 {
				return n, f.latch(io.EOF)
			}
			return n, f.latch(fmt.Errorf("rapidio: truncated record: %w", ErrFormat))
		}
		ev, err := decodeRecord(win[:8], f.binRecords)
		if err != nil {
			return n, f.latch(err)
		}
		dst[n] = ev
		f.pos += 8
		f.binRecords++
		n++
	}
	return n, nil
}

// Err returns the terminal error of the stream, if any (nil after a clean
// EOF).
func (f *Feeder) Err() error {
	if f.err == io.EOF {
		return nil
	}
	return f.err
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
// least 4 to be conclusive) carries the binary-format magic. Format
// sniffers — CheckFilesParallel, the aerodromed /v1/check endpoint — share
// this so the magic lives in one place.
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

// BinaryReader streams the compact binary format.
type BinaryReader struct {
	r      *bufio.Reader
	header bool
	err    error
	record [8]byte // scratch: io.ReadFull would heap-allocate a local
	count  int64   // records decoded so far
}

// NewBinaryReader returns a BinaryReader over r.
func NewBinaryReader(r io.Reader) *BinaryReader {
	return &BinaryReader{r: bufio.NewReaderSize(r, 1<<16)}
}

// Read returns the next event or io.EOF.
func (br *BinaryReader) Read() (trace.Event, error) {
	if br.err != nil {
		return trace.Event{}, br.err
	}
	if !br.header {
		var hdr [16]byte
		if _, err := io.ReadFull(br.r, hdr[:]); err != nil {
			br.err = fmt.Errorf("rapidio: short binary header: %w", ErrFormat)
			return trace.Event{}, br.err
		}
		if [4]byte(hdr[:4]) != binMagic {
			br.err = fmt.Errorf("rapidio: bad magic %q: %w", hdr[:4], ErrFormat)
			return trace.Event{}, br.err
		}
		br.header = true
	}
	rec := &br.record
	if _, err := io.ReadFull(br.r, rec[:]); err != nil {
		if err == io.EOF {
			br.err = io.EOF
			return trace.Event{}, io.EOF
		}
		br.err = fmt.Errorf("rapidio: truncated record: %w", ErrFormat)
		return trace.Event{}, br.err
	}
	ev, err := decodeRecord(rec[:], br.count)
	if err != nil {
		br.err = err
		return trace.Event{}, err
	}
	br.count++
	return ev, nil
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

// Next implements trace.Source.
func (br *BinaryReader) Next() (trace.Event, bool) {
	ev, err := br.Read()
	if err != nil {
		return trace.Event{}, false
	}
	return ev, true
}

// ReadBatch fills dst with up to len(dst) events; see Reader.ReadBatch for
// the contract.
func (br *BinaryReader) ReadBatch(dst []trace.Event) (int, error) {
	return readBatch(br.Read, dst)
}

// Err returns the terminal error of the stream (nil after clean EOF).
func (br *BinaryReader) Err() error {
	if br.err == io.EOF {
		return nil
	}
	return br.err
}
