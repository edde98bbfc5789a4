package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/storage"
)

// rewriteCommit applies edit to the given unit's UnitCommitted record
// in the run log at path, framing every record afresh so the frame
// checksums hold.
func rewriteCommit(t *testing.T, path string, unit int, edit func(rec *storage.Record)) {
	t.Helper()
	l, err := storage.OpenReadOnly(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := l.Committed()
	l.Close()
	if err != nil {
		t.Fatal(err)
	}
	hit := false
	for i, raw := range recs {
		var rec storage.Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Commit == nil || rec.Event.Unit != unit {
			continue
		}
		edit(&rec)
		if recs[i], err = json.Marshal(rec); err != nil {
			t.Fatal(err)
		}
		hit = true
	}
	if !hit {
		t.Fatalf("%s has no commit record for unit %d", path, unit)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	out, err := storage.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := out.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
}

// rewriteArtifact rewrites the artifact bytes the given unit's
// UnitCommitted record carries.
func rewriteArtifact(t *testing.T, path string, unit int) {
	t.Helper()
	rewriteCommit(t, path, unit, func(rec *storage.Record) {
		for typ, b := range rec.Commit.Outputs {
			rec.Commit.Outputs[typ] = append(b, " (rewritten)"...)
		}
	})
}

// duplicateCommit returns the run log wal with the given unit's
// UnitCommitted frame repeated right after it.
func duplicateCommit(t *testing.T, wal []byte, unit int) []byte {
	t.Helper()
	var out []byte
	for off := 0; off < len(wal); {
		frame := wal[off : off+8+int(binary.LittleEndian.Uint32(wal[off:]))]
		off += len(frame)
		out = append(out, frame...)
		var rec storage.Record
		if err := json.Unmarshal(frame[8:], &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Commit != nil && rec.Event.Unit == unit {
			out = append(out, frame...)
		}
	}
	return out
}

// snapshot maps every file under dir to its bytes.
func snapshot(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		snap[e.Name()] = string(b)
	}
	return snap
}

// writeRuns lays out a data dir whose runs/ holds the given files.
func writeRuns(t *testing.T, files map[string][]byte) (dataDir, runs string) {
	t.Helper()
	dataDir = t.TempDir()
	runs = filepath.Join(dataDir, "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(runs, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dataDir, runs
}

func readFixture(t *testing.T, parts ...string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(append([]string{"..", ".."}, parts...)...))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestVerifyProvenanceReadsOnly: -verify-provenance leaves the data dir
// it checks exactly as it was — file names and bytes — over a finished
// log, a finished log with torn bytes after its end (reported corrupt
// and left as is) and a stray chain file from an older build, which
// gets no log of its own.
func TestVerifyProvenanceReadsOnly(t *testing.T) {
	wal := readFixture(t, "internal", "service", "testdata", "quickstart.wal")
	dataDir, runs := writeRuns(t, map[string][]byte{
		"r-0001.wal":   wal,
		"r-0002.wal":   append(append([]byte(nil), wal...), 1, 2, 3, 4),
		"r-0003.chain": readFixture(t, "internal", "provenance", "testdata", "quickstart.chain"),
	})
	before := snapshot(t, runs)
	var out bytes.Buffer
	err := runVerifyProvenance(dataDir, &out)
	if err == nil {
		t.Fatalf("a torn finished log passed:\n%s", &out)
	}
	if after := snapshot(t, runs); len(after) != len(before) {
		t.Fatalf("runs/ went from %d to %d files", len(before), len(after))
	} else {
		for name, b := range before {
			if after[name] != b {
				t.Fatalf("%s changed by the check", name)
			}
		}
	}
	for _, want := range []string{"r-0001.wal: ok (8 records)", "r-0002.wal: CORRUPT: "} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output lacks %q:\n%s", want, &out)
		}
	}
	if strings.Contains(out.String(), "r-0003") {
		t.Fatalf("the stray chain file was reported:\n%s", &out)
	}
}

// TestVerifyProvenanceVerdicts: one line per log — ok; CORRUPT naming
// unit 2 for a log whose unit-2 artifact was rewritten, whose unit-2
// UnitCommitted event was forged to name another instance or type, or
// whose unit-2 commit record was repeated, each under a valid frame
// checksum; CORRUPT naming the missing chain digests for an older
// build's digest-less log; interrupted for a log that never finished —
// and a failure exactly when some log is corrupt.
func TestVerifyProvenanceVerdicts(t *testing.T) {
	wal := readFixture(t, "internal", "service", "testdata", "quickstart.wal")
	dataDir, runs := writeRuns(t, map[string][]byte{
		"r-0001.wal": wal,
		"r-0002.wal": wal,
		"r-0003.wal": readFixture(t, "internal", "storage", "testdata", "quickstart.wal"),
		"r-0004.wal": wal[:len(wal)-5],
		"r-0005.wal": wal,
		"r-0006.wal": wal,
		"r-0007.wal": duplicateCommit(t, wal, 2),
	})
	rewriteArtifact(t, filepath.Join(runs, "r-0002.wal"), 2)
	rewriteCommit(t, filepath.Join(runs, "r-0005.wal"), 2, func(rec *storage.Record) { rec.Event.Insts[0] = "Forged:999" })
	rewriteCommit(t, filepath.Join(runs, "r-0006.wal"), 2, func(rec *storage.Record) { rec.Event.Type = "Forged" })
	var out bytes.Buffer
	if err := runVerifyProvenance(dataDir, &out); err == nil || err.Error() != "5 of 7 run logs failed verification" {
		t.Fatalf("verification = %v, want 5 of 7 logs failed:\n%s", err, &out)
	}
	for _, want := range []string{
		"r-0001.wal: ok (8 records)\n",
		"r-0002.wal: CORRUPT: exec: recovered unit 2 (Circuit:7)",
		"r-0003.wal: CORRUPT: exec: the recovered log carries no chain digests",
		"r-0004.wal: interrupted: verified when resumed\n",
		`r-0005.wal: CORRUPT: exec: recovered unit 2 logged {"seq":9,"kind":"UnitCommitted","job":2,"combo":0,"unit":2,"nodes":[3],"type":"Circuit","insts":["Forged:999"]}`,
		`r-0006.wal: CORRUPT: exec: recovered unit 2 logged {"seq":9,"kind":"UnitCommitted","job":2,"combo":0,"unit":2,"nodes":[3],"type":"Forged",`,
		"r-0007.wal: CORRUPT: exec: the recovered log commits unit 2 again or out of plan order",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output lacks %q:\n%s", want, &out)
		}
	}
	for _, name := range []string{"r-0002.wal", "r-0003.wal", "r-0005.wal", "r-0006.wal", "r-0007.wal"} {
		if err := os.Remove(filepath.Join(runs, name)); err != nil {
			t.Fatal(err)
		}
	}
	out.Reset()
	if err := runVerifyProvenance(dataDir, &out); err != nil {
		t.Fatalf("no corrupt log left, yet: %v\n%s", err, &out)
	}
}
