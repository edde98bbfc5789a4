package storage

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
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

// endsSeeds returns FuzzReadEnds' seeds: the two committed quickstart
// WALs (this build's, from internal/service, and the previous build's),
// the first with its last frame torn, a log that ends before planning
// (identity record, terminal error record), a well-framed record that
// is not JSON, and the log that ended before planning followed by the
// first WAL's RunFinished frame: two closing records, RecoverRun stopping
// at the first.
func endsSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for _, p := range []string{
		filepath.Join("..", "service", "testdata", "quickstart.wal"),
		filepath.Join("testdata", "quickstart.wal"),
	} {
		wal, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, wal)
	}
	seeds = append(seeds, seeds[0][:len(seeds[0])-5])
	path := filepath.Join(tb.TempDir(), "r-0002.wal")
	l, err := OpenFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	w := NewRunWAL(l)
	if err := w.AppendMeta(RunMeta{ID: "r-0002", Flow: "scenario:fanout-cap", User: "alice"}); err != nil {
		tb.Fatal(err)
	}
	w.AppendError("fan-out exceeds 16 combinations")
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	early, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	junk := []byte("{not json")
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(junk)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(junk))
	wal := seeds[0]
	var finished []byte
	for off := 0; off < len(wal); { // the last frame: RunFinished
		n := 8 + int(binary.LittleEndian.Uint32(wal[off:]))
		finished = wal[off : off+n]
		off += n
	}
	twice := append(append([]byte(nil), early...), finished...)
	return append(seeds, early, append(frame, junk...), twice)
}

// FuzzReadEnds drives arbitrary bytes, as a log file, through the
// reader boot lists finished runs with, beside RecoverRun. ReadEnds
// never panics. On a log whose every record decodes and whose last
// record is the one that closed the run in RecoverRun's reading, its
// verdict is RecoverRun's: a run it reports is the one RecoverRun
// reads back finished — the same identity record, the same closing
// record — and it reports every such run from a log that opens with
// its identity record.
func FuzzReadEnds(f *testing.F) {
	for _, seed := range endsSeeds(f) {
		f.Add(seed)
	}
	path := filepath.Join(f.TempDir(), "r-0001.wal")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenReadOnly(path)
		if err != nil {
			return
		}
		defer l.Close()
		ends, err := ReadEnds(l)
		if err != nil {
			t.Fatalf("ReadEnds on a readable log: %v", err)
		}
		rc, err := RecoverRun(l)
		if err != nil {
			t.Fatalf("RecoverRun on a readable log: %v", err)
		}
		if rc.PrefixRecords != l.Records() || !decodesWhole(t, l) {
			return
		}
		switch {
		case ends != nil && !reflect.DeepEqual(ends, rc.Ends()):
			t.Fatalf("ReadEnds reads %+v, RecoverRun %+v", ends, rc.Ends())
		case ends == nil && rc.Finished && opensWithMeta(t, l):
			t.Fatalf("ReadEnds missed the finished run RecoverRun reads back: %+v", rc.Ends())
		}
	})
}

// decodesWhole reports whether every record of the log decodes.
func decodesWhole(t *testing.T, l *FileLog) bool {
	recs, err := l.Committed()
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range recs {
		var rec Record
		if json.Unmarshal(raw, &rec) != nil {
			return false
		}
	}
	return true
}

// opensWithMeta reports whether the log's first record is an identity
// record.
func opensWithMeta(t *testing.T, l *FileLog) bool {
	raw, err := l.Record(0)
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	return json.Unmarshal(raw, &rec) == nil && rec.Meta != nil
}

// TestReadEndsSeeds pins FuzzReadEnds' seeds: both committed quickstart
// WALs read as finished quickstart runs that committed 4 units, the
// torn copy and the junk record as logs ReadEnds leaves to RecoverRun,
// the log that ended before planning as failed with its error, and the
// log with two closing records from its last, where RecoverRun reads
// the first.
func TestReadEndsSeeds(t *testing.T) {
	seeds := endsSeeds(t)
	for i, want := range []string{"4 units", "4 units", "", "error fan-out exceeds 16 combinations", "", "4 units"} {
		path := filepath.Join(t.TempDir(), "r-0001.wal")
		if err := os.WriteFile(path, seeds[i], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenReadOnly(path)
		if err != nil {
			t.Fatal(err)
		}
		ends, err := ReadEnds(l)
		l.Close()
		got := ""
		switch {
		case err != nil:
			t.Fatalf("seed %d: %v", i, err)
		case ends != nil && ends.Finished != nil:
			got = fmt.Sprintf("%d units", ends.Finished.Committed)
		case ends != nil:
			got = "error " + ends.Error
		}
		if got != want {
			t.Errorf("seed %d reads %q, want %q", i, got, want)
		}
	}
	path := filepath.Join(t.TempDir(), "r-0001.wal")
	if err := os.WriteFile(path, seeds[len(seeds)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenReadOnly(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if rc, err := RecoverRun(l); err != nil || rc.Error == "" || rc.PrefixRecords != 2 || l.Records() != 3 {
		t.Fatalf("RecoverRun of the log with two closing records = %+v, %v; want the error record's run, 2 of 3 records", rc, err)
	}
}
