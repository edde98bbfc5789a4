package service

import (
	"sort"
	"sync"

	"repro/internal/trace"
)

// Chunk capacities of an event log: the first holds minChunk bytes and
// each next one twice its predecessor, up to maxChunk. Doubling keeps a
// small run's log small; the cap bounds what one growth step allocates
// without the copy a single growing buffer pays on every doubling.
const (
	minChunk = 512
	maxChunk = 64 << 10
)

// eventLog is a trace.Sink that retains one run's full event stream as
// the masked JSON Lines the trace endpoint serves, encoded once at Emit,
// and lets readers block for bytes that have not arrived yet — the
// bridge between the engine's deterministic per-run emission and the
// streaming trace endpoint. The log is a sequence of chunks, each
// holding whole lines and never reallocated: a line that does not fit
// in the last chunk's spare capacity starts the next one. Closed exactly
// once, when the run reaches a terminal state, which releases every
// waiting reader and trims the last chunk to its length.
type eventLog struct {
	mu     sync.Mutex
	cond   *sync.Cond
	chunks [][]byte
	starts []int  // starts[i] is the log offset of chunks[i][0]
	size   int    // bytes in the log
	line   []byte // Emit's encode scratch, dropped at close
	closed bool
}

func newEventLog() *eventLog {
	l := &eventLog{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Emit appends one event's masked JSON line and wakes the readers.
func (l *eventLog) Emit(ev trace.Event) {
	l.mu.Lock()
	l.line = trace.AppendMaskedJSONL(l.line[:0], ev)
	n := len(l.chunks)
	if n == 0 || len(l.chunks[n-1])+len(l.line) > cap(l.chunks[n-1]) {
		size := minChunk
		if n > 0 {
			size = min(2*cap(l.chunks[n-1]), maxChunk)
		}
		l.chunks = append(l.chunks, make([]byte, 0, max(size, len(l.line))))
		l.starts = append(l.starts, l.size)
		n++
	}
	l.chunks[n-1] = append(l.chunks[n-1], l.line...)
	l.size += len(l.line)
	l.mu.Unlock()
	l.cond.Broadcast()
}

// empty reports whether no event has reached the log.
func (l *eventLog) empty() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size == 0
}

// close marks the stream complete, releases blocked readers and frees
// what only a growing log needs: the encode scratch and the last
// chunk's spare capacity.
func (l *eventLog) close() {
	l.mu.Lock()
	l.closed = true
	l.line = nil
	if n := len(l.chunks); n > 0 && cap(l.chunks[n-1]) > len(l.chunks[n-1]) {
		l.chunks[n-1] = append([]byte(nil), l.chunks[n-1]...)
	}
	l.mu.Unlock()
	l.cond.Broadcast()
}

// next returns the bytes from offset off, which must be a line boundary,
// up to the end of its chunk — whole lines, one or more events —
// blocking until there is at least one. ok is false when the stream
// closed with nothing past off: the reader has seen everything. The
// batch is safe to use without the lock: bytes already emitted are
// never rewritten, and its capacity ends at its length, so neither side
// can append into the other's bytes.
func (l *eventLog) next(off int) (batch []byte, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for off >= l.size && !l.closed {
		l.cond.Wait()
	}
	if off >= l.size {
		return nil, false
	}
	i := sort.SearchInts(l.starts, off+1) - 1 // the chunk holding off
	c := l.chunks[i]
	return c[off-l.starts[i] : len(c) : len(c)], true
}
