package storage

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzRecoverRun drives arbitrary bytes through the reader boot
// recovery uses on every WAL under a data dir: the bytes become a log
// file, which is opened (frames scanned, torn tail found) and
// recovered. A damaged or hostile log yields a run or an error, never
// a panic.
func FuzzRecoverRun(f *testing.F) {
	// A finished quickstart run as flowd writes it (identity record
	// with the scenario, trace events, committed artifacts).
	wal, err := os.ReadFile(filepath.Join("testdata", "quickstart.wal"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wal)
	f.Add(wal[:len(wal)-5]) // the same log, its last frame torn
	junk := []byte("{not json")
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(junk)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(junk))
	f.Add(append(frame, junk...)) // a well-framed record that is not JSON

	path := filepath.Join(f.TempDir(), "r-0001.wal")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenFile(path)
		if err != nil {
			return
		}
		defer l.Close()
		if rc, err := RecoverRun(l); rc == nil && err == nil {
			t.Fatal("RecoverRun returned neither a run nor an error")
		}
	})
}

// TestRecoverQuickstartSeed pins FuzzRecoverRun's main seed: the
// committed quickstart WAL recovers as a finished run, and with its
// last frame torn as an unfinished one.
func TestRecoverQuickstartSeed(t *testing.T) {
	wal, err := os.ReadFile(filepath.Join("testdata", "quickstart.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		data     []byte
		finished bool
	}{{wal, true}, {wal[:len(wal)-5], false}} {
		path := filepath.Join(t.TempDir(), "r-0001.wal")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := RecoverRun(l)
		l.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rc.Meta == nil || rc.Meta.ID != "r-0001" || rc.Finished != tc.finished || len(rc.Commits) == 0 {
			t.Fatalf("recovered %d bytes: meta %+v, finished %v, %d commits; want r-0001, finished %v, commits",
				len(tc.data), rc.Meta, rc.Finished, len(rc.Commits), tc.finished)
		}
	}
}
