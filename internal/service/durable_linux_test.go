package service

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDurableChainFilesClosed: a finished durable run holds no file
// descriptor under the data dir — its WAL is closed when it ends, and
// verify=1 reads it back through a descriptor of its own. verify=1
// reports the clean log verified, and once one logged artifact is
// rewritten, frame checksum recomputed, names its unit.
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
	id := ids[1]
	url := ts.URL + "/v1/runs/" + id + "/provenance?inst=Out:4&verify=1"
	var view provenanceView
	getJSON(t, url, &view)
	if view.Chain == nil || !view.Chain.Verified || view.Chain.Records != 4 {
		t.Fatalf("finished run's chain verdict = %+v, want verified with 4 records", view.Chain)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(target, dir) {
			t.Errorf("descriptor %s still open on %s after its run finished", fd.Name(), target)
		}
	}

	rewriteArtifact(t, filepath.Join(dir, "runs", id+".wal"), 1)
	getJSON(t, url, &view)
	if view.Chain == nil || view.Chain.Verified || !strings.Contains(view.Chain.Error, "recovered unit 1 (Out:4)") {
		t.Fatalf("tampered log's verdict = %+v, want a failure naming unit 1 (Out:4)", view.Chain)
	}
}
