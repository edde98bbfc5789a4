package service

import (
	"sync"

	"repro/internal/trace"
)

// eventLog is a trace.Sink that retains one run's full event stream as
// the masked JSON Lines the trace endpoint serves, encoded once at Emit
// into one append-only buffer, and lets readers block for bytes that
// have not arrived yet — the bridge between the engine's deterministic
// per-run emission and the streaming trace endpoint. Closed exactly
// once, when the run reaches a terminal state, which releases every
// waiting reader.
type eventLog struct {
	mu     sync.Mutex
	cond   *sync.Cond
	jsonl  []byte
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
	l.jsonl = trace.AppendMaskedJSONL(l.jsonl, ev)
	l.mu.Unlock()
	l.cond.Broadcast()
}

// close marks the stream complete and releases blocked readers.
func (l *eventLog) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

// next returns every byte from offset off to the end of the log — whole
// lines, one or more events — blocking until there is at least one. ok
// is false when the stream closed with nothing past off: the reader has
// seen everything. The batch is safe to use without the lock: bytes
// already emitted are never rewritten, and its capacity ends at its
// length, so neither side can append into the other's bytes.
func (l *eventLog) next(off int) (batch []byte, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for off >= len(l.jsonl) && !l.closed {
		l.cond.Wait()
	}
	n := len(l.jsonl)
	return l.jsonl[off:n:n], off < n
}
