package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// FileLog is the file-backed Log. Each record is framed as
//
//	[4-byte little-endian payload length][4-byte CRC32 (IEEE) of the
//	payload][payload]
//
// so a reader can walk the file record by record and detect exactly
// where a crash cut it off: a header that runs past EOF, a payload
// shorter than its length, or a checksum mismatch all mark the start of
// a *torn tail* — bytes that were being written when the process died.
// Everything before the torn tail is well-framed and treated as
// committed; the tail itself is dropped by Rewind (never replayed,
// satisfying the no-partial-unit invariant).
//
// Writes are buffered in memory and hit the file only on Sync (flush +
// fsync), so the caller controls the group-commit cadence. MaxRecord
// bounds a single record; a length field above it is treated as
// corruption, not an allocation request.
type FileLog struct {
	mu      sync.Mutex
	f       *os.File
	buf     []byte  // appended frames not yet written to the file
	offsets []int64 // start offset of each record (flushed or buffered)
	size    int64   // logical end: flushed bytes + len(buf)
	flushed int64   // bytes physically written
	torn    int64   // bytes of torn tail present beyond size (0 = clean)
	closed  bool
}

// MaxRecord bounds one record's payload (16 MiB). Far above anything a
// run log writes; a frame header exceeding it is corruption.
const MaxRecord = 16 << 20

const frameHeader = 8 // length + CRC

// OpenFile opens (creating if absent) a file-backed log and scans its
// frames. A torn tail is detected and remembered — Append refuses to
// work until Rewind removes it, so recovery gets to look at the damage
// first.
func OpenFile(path string) (*FileLog, error) {
	return openFile(path, os.O_RDWR|os.O_CREATE)
}

// OpenReadOnly opens an existing log for reading: it never creates the
// file, and nothing done through the log can change it. Verifiers use
// it, so checking a data dir leaves the dir as it was.
func OpenReadOnly(path string) (*FileLog, error) {
	return openFile(path, os.O_RDONLY)
}

func openFile(path string, flag int) (*FileLog, error) {
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	l := &FileLog{f: f}
	if err := l.scan(); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(l.size, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// scanBuffer caps scan's one sequential read buffer.
const scanBuffer = 64 << 10

// scan walks the frames from the start, recording each record's offset
// and where the well-framed prefix ends. It reads the file once, in
// order, through one buffer, and checks every frame's CRC in one
// payload scratch reused across frames.
func (l *FileLog) scan() error {
	info, err := l.f.Stat()
	if err != nil {
		return err
	}
	fileLen := info.Size()
	// A fresh log is empty: its buffer stays as small as its file.
	r := bufio.NewReaderSize(io.NewSectionReader(l.f, 0, fileLen), int(min(fileLen, scanBuffer)))
	var off int64
	var hdr [frameHeader]byte
	var payload []byte
	for {
		if off+frameHeader > fileLen {
			break // trailing partial header (or clean EOF)
		}
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return err
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n > MaxRecord || off+frameHeader+n > fileLen {
			break // corrupt length or payload cut off
		}
		if int64(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return err
		}
		if crc32.ChecksumIEEE(payload) != sum {
			break // payload damaged mid-write
		}
		l.offsets = append(l.offsets, off)
		off += frameHeader + n
	}
	l.size = off
	l.flushed = off
	l.torn = fileLen - off
	return nil
}

// Append frames one record into the write buffer.
func (l *FileLog) Append(rec []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return os.ErrClosed
	}
	if l.torn > 0 {
		return ErrTornTail
	}
	if len(rec) > MaxRecord {
		return fmt.Errorf("storage: record of %d bytes exceeds MaxRecord", len(rec))
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(rec)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(rec))
	l.offsets = append(l.offsets, l.size)
	l.buf = append(l.buf, hdr[:]...)
	l.buf = append(l.buf, rec...)
	l.size += int64(frameHeader + len(rec))
	return nil
}

// flushLocked writes the buffer to the file (no fsync).
func (l *FileLog) flushLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	if _, err := l.f.Write(l.buf); err != nil {
		return err
	}
	l.flushed += int64(len(l.buf))
	l.buf = l.buf[:0]
	return nil
}

// Sync is the durability barrier: flush the buffer and fsync the file.
// The fsync happens outside the lock — it is pure device wait, and
// holding the mutex through it would stall concurrent Appends for
// milliseconds per group commit. Sync may race with Append (the fsync
// then covers at least every byte written before the call, which is
// all a barrier promises) but not with Close.
func (l *FileLog) Sync() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return os.ErrClosed
	}
	if err := l.flushLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	f := l.f
	l.mu.Unlock()
	return f.Sync()
}

// Committed flushes and re-reads every well-framed record from the
// file, in one read of the framed prefix. (Buffered-but-unsynced
// records are included — they are well-framed by the time they are
// read back; what a *crash* preserves is tested through MemLog's
// stricter watermark model.) The records share that one read's buffer,
// each capped at its own length, so none can grow into the next.
func (l *FileLog) Committed() ([][]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, os.ErrClosed
	}
	if err := l.flushLocked(); err != nil {
		return nil, err
	}
	prefix := make([]byte, l.size)
	if _, err := l.f.ReadAt(prefix, 0); err != nil {
		return nil, err
	}
	out := make([][]byte, len(l.offsets))
	for i := range l.offsets {
		start, end := l.frameLocked(i)
		out[i] = prefix[start:end:end]
	}
	return out, nil
}

// Record reads back the i-th well-framed record alone.
func (l *FileLog) Record(i int) ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, os.ErrClosed
	}
	if i < 0 || i >= len(l.offsets) {
		return nil, fmt.Errorf("storage: record %d of %d", i, len(l.offsets))
	}
	if err := l.flushLocked(); err != nil {
		return nil, err
	}
	start, end := l.frameLocked(i)
	rec := make([]byte, end-start)
	if _, err := l.f.ReadAt(rec, start); err != nil {
		return nil, err
	}
	return rec, nil
}

// frameLocked returns where the i-th record's payload starts and ends:
// frames are contiguous, so it ends where the next frame starts, the
// last one at the log's end.
func (l *FileLog) frameLocked(i int) (start, end int64) {
	end = l.size
	if i+1 < len(l.offsets) {
		end = l.offsets[i+1]
	}
	return l.offsets[i] + frameHeader, end
}

// Rewind truncates to the first keep records (removing any torn tail
// with the discarded suffix).
func (l *FileLog) Rewind(keep int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return os.ErrClosed
	}
	if keep < 0 || keep > len(l.offsets) {
		return fmt.Errorf("storage: rewind to %d of %d records", keep, len(l.offsets))
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	end := l.size
	if keep < len(l.offsets) {
		end = l.offsets[keep]
	}
	if err := l.truncateLocked(end); err != nil {
		return err
	}
	l.offsets = l.offsets[:keep]
	l.size = end
	l.flushed = end
	l.torn = 0
	return nil
}

// truncateLocked resizes the file and repositions the write cursor.
// Requires an empty write buffer (callers flush first).
func (l *FileLog) truncateLocked(n int64) error {
	if err := l.f.Truncate(n); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	_, err := l.f.Seek(n, io.SeekStart)
	return err
}

// Records reports how many well-framed records the log holds.
func (l *FileLog) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.offsets)
}

// Torn reports whether the log ends in a torn tail.
func (l *FileLog) Torn() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.torn > 0
}

// Close flushes, fsyncs and closes the file.
func (l *FileLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.flushLocked(); err != nil {
		l.f.Close()
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}
