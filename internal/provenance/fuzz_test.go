package provenance

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/storage"
)

// chainSeeds returns FuzzVerifyLog's seeds, named: a finished durable
// quickstart run's chain file as flowd writes it, the same file with
// its last frame torn, a well-framed record that is not JSON, and a
// well-framed first record that decodes to a valid record but is not
// its canonical encoding.
func chainSeeds(tb testing.TB) map[string][]byte {
	chain, err := os.ReadFile(filepath.Join("testdata", "quickstart.chain"))
	if err != nil {
		tb.Fatal(err)
	}
	first := chain[8 : 8+binary.LittleEndian.Uint32(chain[0:4])]
	return map[string][]byte{
		"chain":         chain,
		"torn":          chain[:len(chain)-5],
		"not json":      frame([]byte("{not json")),
		"non-canonical": frame(append([]byte("{ "), first[1:]...)),
	}
}

// frame wraps one record in the file log's framing: length, CRC-32,
// payload.
func frame(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// FuzzVerifyLog drives arbitrary bytes through the cold-boot chain
// check as a chain file on disk: opening and verifying never panic, and
// a chain VerifyLog accepts is exactly the file's well-framed records.
func FuzzVerifyLog(f *testing.F) {
	seeds := chainSeeds(f)
	for _, name := range []string{"chain", "torn", "not json", "non-canonical"} {
		f.Add(seeds[name])
	}
	path := filepath.Join(f.TempDir(), "r-0001.chain")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := storage.OpenFile(path)
		if err != nil {
			return
		}
		defer l.Close()
		if n, err := VerifyLog(l); err == nil && n != l.Records() {
			t.Fatalf("VerifyLog passed %d records of a %d-frame file", n, l.Records())
		}
	})
}

// TestVerifyLogSeeds pins FuzzVerifyLog's seeds: the committed chain
// verifies whole, its torn copy verifies the frames before the tear,
// and the two hand-made frames fail for the reason they were made for.
func TestVerifyLogSeeds(t *testing.T) {
	seeds := chainSeeds(t)
	for _, tc := range []struct {
		name    string
		records int
		err     string
	}{
		{"chain", 8, ""},
		{"torn", 7, ""},
		{"not json", 0, "undecodable"},
		{"non-canonical", 0, "non-canonical bytes"},
	} {
		path := filepath.Join(t.TempDir(), "r-0001.chain")
		if err := os.WriteFile(path, seeds[tc.name], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := storage.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		n, err := VerifyLog(l)
		l.Close()
		switch {
		case tc.err == "" && (err != nil || n != tc.records):
			t.Errorf("%s: VerifyLog = %d, %v; want %d records", tc.name, n, err, tc.records)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%s: VerifyLog = %d, %v; want an error naming %q", tc.name, n, err, tc.err)
		}
	}
	if !bytes.HasPrefix(seeds["non-canonical"][8:], []byte(`{ "seq":0,`)) {
		t.Errorf("non-canonical seed starts %q", seeds["non-canonical"][8:20])
	}
}
