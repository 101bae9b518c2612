package server

// Session journals: the durable-replay half of the fault-tolerant session
// plane. The paper's checker is a deterministic single pass, so a
// session's entire state is reproducible from its raw fed bytes — the
// router journals every chunk a backend acknowledged, and when that
// backend dies the journal replays into a fresh engine on the next ring
// point, byte for byte, through the same chunk-agnostic
// IncrementalChecker the live path uses. Fault tolerance reduces to
// bounded buffering plus the replay-equivalence the differential harness
// already pins.
//
// Journals are bounded three ways: a per-session in-memory cap, an
// optional per-session spill file (chunks beyond the memory cap go to
// disk when a spill directory is configured), and a router-wide memory
// budget shared by all journals. A session that outgrows its bounds has
// its journal truncated — replay is no longer possible and backend loss
// becomes the terminal 409 it always was — and the truncation is counted,
// so operators see exactly how much fault-tolerance coverage the budget
// is buying.

import (
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// journalBudget is the router-wide cap on in-memory journal bytes.
type journalBudget struct {
	max  int64
	used atomic.Int64
}

// reserve claims n bytes of the budget, or reports that the budget is
// exhausted (the caller truncates or spills).
func (b *journalBudget) reserve(n int64) bool {
	for {
		cur := b.used.Load()
		if cur+n > b.max {
			return false
		}
		if b.used.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

func (b *journalBudget) release(n int64) { b.used.Add(-n) }

// journal is the replay log of one routed session. All methods are safe
// for concurrent use; replayReader must not race appends, which the
// router guarantees by holding the session route lock across failover.
type journal struct {
	mu         sync.Mutex
	chunks     [][]byte
	memBytes   int64
	spill      *os.File
	spillBytes int64

	memLimit int64  // per-session in-memory cap
	maxBytes int64  // per-session total cap (memory + spill)
	spillDir string // "" disables spill
	budget   *journalBudget

	truncated bool
	frozen    bool
}

// newJournal returns an empty journal under the given bounds.
func newJournal(memLimit, maxBytes int64, spillDir string, budget *journalBudget) *journal {
	return &journal{memLimit: memLimit, maxBytes: maxBytes, spillDir: spillDir, budget: budget}
}

// newTruncatedJournal returns a journal whose replay horizon is already
// lost — the provisional state of a session re-attached by routing key
// after a router restart, whose earlier chunks this router never saw.
func newTruncatedJournal() *journal {
	return &journal{truncated: true}
}

// append records one acknowledged chunk (copying it). Appends to a
// truncated journal are no-ops (the horizon is already lost), and appends
// to a frozen journal are dropped deliberately: the session reached a
// terminal state, so the recorded prefix already reproduces the verdict
// and later discarded chunks must not grow the journal. If the chunk does
// not fit the bounds, the journal truncates itself.
func (j *journal) append(chunk []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.truncated || j.frozen {
		return
	}
	n := int64(len(chunk))
	if j.memBytes+j.spillBytes+n > j.maxBytes {
		j.truncateLocked()
		return
	}
	// Once spill has started, every later chunk spills too — even one that
	// would fit memory: replayReader emits the memory list before the spill
	// section, so mixing after the crossover would reorder the replay.
	if j.spill == nil && j.memBytes+n <= j.memLimit && (j.budget == nil || j.budget.reserve(n)) {
		j.chunks = append(j.chunks, append([]byte(nil), chunk...))
		j.memBytes += n
		return
	}
	// Memory is full (session cap or router budget): spill if configured.
	if j.spillDir == "" {
		j.truncateLocked()
		return
	}
	if j.spill == nil {
		f, err := os.CreateTemp(j.spillDir, "aerodrome-journal-*.spill")
		if err != nil {
			j.truncateLocked()
			return
		}
		// Unlink immediately: the fd keeps the data alive, and a crashed
		// router leaks no files.
		os.Remove(f.Name())
		j.spill = f
	}
	if _, err := j.spill.Write(chunk); err != nil {
		j.truncateLocked()
		return
	}
	j.spillBytes += n
}

// freeze marks the session terminal: the recorded prefix reproduces the
// verdict, further appends are dropped.
func (j *journal) freeze() {
	j.mu.Lock()
	j.frozen = true
	j.mu.Unlock()
}

// truncate drops the journal and marks the replay horizon lost.
func (j *journal) truncate() {
	j.mu.Lock()
	j.truncateLocked()
	j.mu.Unlock()
}

func (j *journal) truncateLocked() {
	if j.truncated {
		return
	}
	j.truncated = true
	j.releaseLocked()
}

// isFrozen reports whether the session reached a terminal state and the
// journal stopped recording.
func (j *journal) isFrozen() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.frozen
}

// isTruncated reports whether the replay horizon has been lost.
func (j *journal) isTruncated() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.truncated
}

// size returns the journaled byte count (memory + spill).
func (j *journal) size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.memBytes + j.spillBytes
}

// capLeft returns how many more bytes the journal can hold before
// truncation (0 for truncated or frozen journals — nothing more will be
// recorded either way).
func (j *journal) capLeft() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.truncated || j.frozen {
		return 0
	}
	return j.maxBytes - j.memBytes - j.spillBytes
}

// replayReader returns a reader over the journaled bytes and their total
// length. The caller must prevent concurrent appends (the router holds
// the route lock across failover) and must not retain the reader past
// free.
func (j *journal) replayReader() (io.Reader, int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	readers := make([]io.Reader, 0, len(j.chunks)+1)
	for _, c := range j.chunks {
		readers = append(readers, &sliceReader{b: c})
	}
	if j.spill != nil && j.spillBytes > 0 {
		readers = append(readers, io.NewSectionReader(j.spill, 0, j.spillBytes))
	}
	return io.MultiReader(readers...), j.memBytes + j.spillBytes
}

// free releases the journal's memory (back to the router budget) and its
// spill file. The journal stays usable as an empty truncated journal.
func (j *journal) free() {
	j.mu.Lock()
	j.truncated = true
	j.releaseLocked()
	j.mu.Unlock()
}

func (j *journal) releaseLocked() {
	if j.budget != nil && j.memBytes > 0 {
		j.budget.release(j.memBytes)
	}
	j.chunks, j.memBytes = nil, 0
	if j.spill != nil {
		j.spill.Close()
		j.spill = nil
	}
	j.spillBytes = 0
}

// sliceReader is bytes.NewReader without the extra methods — MultiReader
// then cannot flatten it into odd fast paths, and the journal controls
// exactly what the replay body exposes.
type sliceReader struct {
	b []byte
	i int
}

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.i >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.i:])
	r.i += n
	return n, nil
}
