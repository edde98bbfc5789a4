package service

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDurableChainFilesClosed: a durable run closes its chain file when
// it ends, so finished runs hold no descriptors. verify=1 then rereads
// the file: it reports a clean chain verified, and after one byte of a
// record is flipped it names that record.
func TestDurableChainFilesClosed(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 2, DataDir: dir})
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, submit(t, ts.URL, svcScenario, "alice").ID)
	}
	for _, id := range ids {
		if v := waitTerminal(t, ts.URL, id); v.State != string(stateSucceeded) {
			t.Fatalf("run %s ended %+v, want succeeded", id, v)
		}
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(target, dir) && strings.HasSuffix(target, ".chain") {
			t.Errorf("descriptor %s still open on %s after its run finished", fd.Name(), target)
		}
	}

	id := ids[1]
	url := ts.URL + "/v1/runs/" + id + "/provenance?inst=Out:4&verify=1"
	var view provenanceView
	getJSON(t, url, &view)
	if view.Chain == nil || !view.Chain.Verified || view.Chain.Records != 4 {
		t.Fatalf("finished run's chain verdict = %+v, want verified with 4 records", view.Chain)
	}

	// Flip one byte inside record 2's payload. Each record is framed by
	// a 4-byte length and a 4-byte CRC.
	path := filepath.Join(dir, "runs", id+".chain")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for i := 0; i < 2; i++ {
		off += 8 + int(binary.LittleEndian.Uint32(data[off:]))
	}
	data[off+8+len(`{"seq":2,"id":"`)] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	getJSON(t, url, &view)
	if view.Chain == nil || view.Chain.Verified || !strings.Contains(view.Chain.Error, "record 2 ") {
		t.Fatalf("tampered chain verdict = %+v, want a failure naming record 2", view.Chain)
	}
}
