// Package storage is the durability layer of the flow manager: an
// append-only write-ahead log per run, holding the run's trace events —
// the paper's §3.3/§4.2 flow trace is exactly the record that must
// survive a crash, and its logical Seq already is a total commit order,
// so the WAL *is* the trace rather than a second bookkeeping scheme.
//
// The package splits into four small pieces:
//
//   - Log, the storage contract: append a record, force a durability
//     barrier, iterate the committed records, rewind past a torn tail;
//   - MemLog (this file) and FileLog (file.go), the in-memory and
//     CRC-framed file-backed implementations;
//   - RunWAL (runlog.go), the run-facing writer: an envelope of run
//     metadata + trace events + unit-commit payloads, appended through
//     an asynchronous group-commit goroutine so the executor's hot path
//     never waits on fsync;
//   - RecoverRun (recover.go), which reads a log back and computes the
//     committed prefix a restarted run may safely resume from.
package storage

import (
	"errors"
	"sync"
)

// ErrTornTail is returned by Append when the log ends in a torn
// (partially written) record from a previous crash. The owner must
// decide what to keep (Rewind) before appending.
var ErrTornTail = errors.New("storage: log has a torn tail; truncate before appending")

// Log is an append-only record log with an explicit durability barrier.
// Records are opaque byte strings; the log preserves their boundaries
// and order. A record is *committed* once a Sync call returned after
// its Append — committed records are exactly what Committed returns
// after a crash (a file-backed log may additionally retain records the
// OS flushed on its own; recovery treats everything well-framed on disk
// as committed).
type Log interface {
	// Append adds one record at the tail. The record is not durable
	// until the next Sync. Appending to a log with a torn tail fails
	// with ErrTornTail.
	Append(rec []byte) error
	// Sync is the durability barrier: it blocks until every record
	// appended so far is on stable storage.
	Sync() error
	// Committed returns the committed records in append order. The
	// returned slices are copies; the caller owns them.
	Committed() ([][]byte, error)
	// Rewind truncates the log to its first keep records, discarding
	// the rest (and any torn tail). Recovery uses it to drop records
	// beyond the resumable prefix.
	Rewind(keep int) error
	// Close releases the log's resources. The log must not be used
	// afterwards.
	Close() error
}

// MemLog is the in-memory Log: records live in a slice and the
// durability barrier is modelled by a synced watermark — Committed
// returns only the synced prefix, which is exactly what a file-backed
// log would have preserved across a crash at the same point. Tests use
// it to exercise crash recovery without a filesystem.
type MemLog struct {
	mu     sync.Mutex
	recs   [][]byte
	synced int
}

// NewMemLog returns an empty in-memory log.
func NewMemLog() *MemLog { return &MemLog{} }

// Append adds one record (copied; the caller keeps ownership).
func (l *MemLog) Append(rec []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, append([]byte(nil), rec...))
	return nil
}

// Sync advances the durability watermark over everything appended.
func (l *MemLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.synced = len(l.recs)
	return nil
}

// Committed returns copies of the synced prefix — the records a crash
// at this moment would have preserved.
func (l *MemLog) Committed() ([][]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([][]byte, l.synced)
	for i, r := range l.recs[:l.synced] {
		out[i] = append([]byte(nil), r...)
	}
	return out, nil
}

// Rewind truncates to the first keep records.
func (l *MemLog) Rewind(keep int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if keep < 0 || keep > len(l.recs) {
		return errors.New("storage: rewind out of range")
	}
	l.recs = l.recs[:keep]
	if l.synced > keep {
		l.synced = keep
	}
	return nil
}

// Close is a no-op for the in-memory log.
func (l *MemLog) Close() error { return nil }
