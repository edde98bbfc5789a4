package trace

import (
	"context"
	"io"
	"log/slog"
	"sync"
)

// Buffer is an unbounded in-memory sink: every event, in order. The
// test-friendly collector.
type Buffer struct {
	mu     sync.Mutex
	events []Event
}

// NewBuffer returns an empty unbounded collector.
func NewBuffer() *Buffer { return &Buffer{} }

// Emit appends the event.
func (b *Buffer) Emit(ev Event) {
	b.mu.Lock()
	b.events = append(b.events, ev)
	b.mu.Unlock()
}

// Events returns a copy of everything collected, in emission order.
func (b *Buffer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Event(nil), b.events...)
}

// Reset discards collected events.
func (b *Buffer) Reset() {
	b.mu.Lock()
	b.events = nil
	b.mu.Unlock()
}

// Ring is a fixed-capacity in-memory sink that keeps the most recent
// events — constant memory for arbitrarily long runs, the sink the
// trace-overhead budget is measured against.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total int
}

// NewRing returns a ring keeping the last n events (n < 1 means 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]Event, 0, n)}
}

// Emit records the event, evicting the oldest when full.
func (r *Ring) Emit(ev Event) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.next] = ev
		r.next = (r.next + 1) % len(r.buf)
	}
	r.total++
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Total counts every event ever emitted, including evicted ones.
func (r *Ring) Total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Writer streams events as JSON Lines to an io.Writer (a trace file).
// Write errors are sticky: the first one stops further writes and is
// reported by Err.
type Writer struct {
	mu   sync.Mutex
	w    io.Writer
	line []byte // reused encoding buffer
	err  error
}

// NewWriter returns a JSONL sink writing raw (unmasked) events.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Emit encodes the event as one JSON line.
func (w *Writer) Emit(ev Event) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	w.line = append(AppendJSON(w.line[:0], &ev), '\n')
	_, w.err = w.w.Write(w.line)
}

// Err reports the first write error, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// SlogSink bridges events onto a log/slog logger, one Info record per
// event with the kind as the message.
type SlogSink struct {
	log *slog.Logger
}

// NewSlogSink returns a sink logging to l (slog.Default when nil).
func NewSlogSink(l *slog.Logger) *SlogSink {
	if l == nil {
		l = slog.Default()
	}
	return &SlogSink{log: l}
}

// Emit logs the event at Info level.
func (s *SlogSink) Emit(ev Event) {
	attrs := []slog.Attr{slog.Int("seq", ev.Seq)}
	if ev.Job >= 0 {
		attrs = append(attrs, slog.Int("job", ev.Job), slog.Int("combo", ev.Combo), slog.Int("unit", ev.Unit))
	}
	if ev.Type != "" {
		attrs = append(attrs, slog.String("type", ev.Type))
	}
	if ev.Attempt > 0 {
		attrs = append(attrs, slog.Int("attempt", ev.Attempt))
	}
	if len(ev.Insts) > 0 {
		attrs = append(attrs, slog.Any("insts", ev.Insts))
	}
	if ev.Err != "" {
		attrs = append(attrs, slog.String("err", ev.Err))
	}
	if ev.Kind == KindRunFinished {
		attrs = append(attrs,
			slog.Int("committed", ev.Committed), slog.Int("failed", ev.Failed),
			slog.Int("skipped", ev.Skipped), slog.Int64("elapsed_us", ev.ElapsedMicros))
	}
	s.log.LogAttrs(context.Background(), slog.LevelInfo, string(ev.Kind), attrs...)
}

// Multi fans every event out to several sinks in order.
func Multi(sinks ...Sink) Sink { return multiSink(sinks) }

type multiSink []Sink

func (m multiSink) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}
