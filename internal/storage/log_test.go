package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func mustCommitted(t *testing.T, l Log) [][]byte {
	t.Helper()
	recs, err := l.Committed()
	if err != nil {
		t.Fatalf("Committed: %v", err)
	}
	return recs
}

func TestMemLogSyncWatermark(t *testing.T) {
	l := NewMemLog()
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Appended but unsynced: lost by a crash, invisible to Committed.
	_ = l.Append([]byte{9})
	recs := mustCommitted(t, l)
	if len(recs) != 3 {
		t.Fatalf("committed %d records, want the 3 synced ones", len(recs))
	}
	if err := l.Rewind(3); err != nil { // drop the unsynced record
		t.Fatal(err)
	}
	if err := l.Append([]byte{4}); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	recs = mustCommitted(t, l)
	if len(recs) != 4 || recs[3][0] != 4 {
		t.Fatalf("after truncate+append got %d records, last %v", len(recs), recs[len(recs)-1])
	}
	if err := l.Rewind(2); err != nil {
		t.Fatal(err)
	}
	if got := len(mustCommitted(t, l)); got != 2 {
		t.Fatalf("after rewind got %d records, want 2", got)
	}
	if err := l.Rewind(7); err == nil {
		t.Fatal("rewind past the end should fail")
	}
}

func TestFileLogRoundTripAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	l, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 50; i++ {
		rec := bytes.Repeat([]byte{byte(i)}, i+1)
		want = append(want, rec)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Torn() {
		t.Fatal("clean log reports a torn tail")
	}
	recs := mustCommitted(t, l2)
	if len(recs) != len(want) {
		t.Fatalf("reopened log has %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if !bytes.Equal(recs[i], want[i]) {
			t.Fatalf("record %d = %v, want %v", i, recs[i], want[i])
		}
	}
	// Appending after reopen extends the same stream.
	if err := l2.Append([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := len(mustCommitted(t, l2)); got != len(want)+1 {
		t.Fatalf("after reopen+append got %d records, want %d", got, len(want)+1)
	}
}

// TestFileLogTornTail is the crash-framing property: a log cut off
// mid-record (torn header, torn payload, or damaged checksum) reopens
// with the uncommitted suffix dropped and resumes cleanly — no partial
// record is ever surfaced to recovery.
func TestFileLogTornTail(t *testing.T) {
	for _, cut := range []struct {
		name string
		chop int64 // bytes to remove from the end
		flip bool  // instead corrupt one payload byte of the last record
	}{
		{name: "mid-payload", chop: 3},
		{name: "mid-header", chop: 12}, // last record is 4+8 bytes: leaves 0 < rest < header
		{name: "bad-crc", flip: true},
	} {
		t.Run(cut.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.wal")
			l, err := OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			// Damage the tail the way a crash would.
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if cut.flip {
				f, err := os.OpenFile(path, os.O_RDWR, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.WriteAt([]byte{0xFF}, info.Size()-1); err != nil {
					t.Fatal(err)
				}
				f.Close()
			} else if err := os.Truncate(path, info.Size()-cut.chop); err != nil {
				t.Fatal(err)
			}

			l2, err := OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if !l2.Torn() {
				t.Fatal("damaged log does not report a torn tail")
			}
			if err := l2.Append([]byte("x")); !errors.Is(err, ErrTornTail) {
				t.Fatalf("append on torn log: %v, want ErrTornTail", err)
			}
			recs := mustCommitted(t, l2)
			if len(recs) != 4 {
				t.Fatalf("torn log commits %d records, want the 4 intact ones", len(recs))
			}
			for i, rec := range recs {
				if want := fmt.Sprintf("rec-%d", i); string(rec) != want {
					t.Fatalf("record %d = %q, want %q", i, rec, want)
				}
			}
			// Rewinding past the tear makes the log appendable again,
			// and the new record lands where the torn one was.
			if err := l2.Rewind(len(recs)); err != nil {
				t.Fatal(err)
			}
			if err := l2.Append([]byte("resumed")); err != nil {
				t.Fatal(err)
			}
			if err := l2.Sync(); err != nil {
				t.Fatal(err)
			}
			recs = mustCommitted(t, l2)
			if len(recs) != 5 || string(recs[4]) != "resumed" {
				t.Fatalf("after truncate+append got %d records, last %q", len(recs), recs[len(recs)-1])
			}
		})
	}
}

func TestFileLogRewind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	l, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rewind(2); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte{42}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := mustCommitted(t, l2)
	if len(recs) != 3 || recs[2][0] != 42 {
		t.Fatalf("after rewind+append reopen sees %d records (last %v), want 3 ending in 42", len(recs), recs[len(recs)-1])
	}
	if err := l2.Rewind(99); err == nil {
		t.Fatal("rewind past the end should fail")
	}
}

func TestFileLogOversizeRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	l, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(make([]byte, MaxRecord+1)); err == nil {
		t.Fatal("oversize append should fail")
	}
}
