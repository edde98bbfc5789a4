package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestDurableChainFilesClosed: a finished durable run holds no file
// descriptor under the data dir — its WAL is closed when it ends, and
// verify=1 reads it back through a descriptor of its own. verify=1
// reports the clean log verified, and once one logged artifact is
// rewritten, frame checksum recomputed, answers 409 naming its unit:
// the finished run holds no graph of its own, so its graph and verdict
// come from the one replay, which fails.
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
	for _, open := range openUnder(t, dir) {
		t.Errorf("descriptor still open on %s after its run finished", open)
	}

	rewriteArtifact(t, filepath.Join(dir, "runs", id+".wal"), 1)
	if code, body := getBody(t, url); code != http.StatusConflict || !strings.Contains(string(body), "recovered unit 1 (Out:4)") {
		t.Fatalf("tampered log's verify=1 = %d %s, want 409 naming unit 1 (Out:4)", code, body)
	}
}

// openUnder lists the files under dir this process holds a descriptor
// on.
func openUnder(t *testing.T, dir string) []string {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	var open []string
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(target, dir) {
			open = append(open, target)
		}
	}
	return open
}

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestDurableSoak: a durable server holds nothing per finished run
// beyond its view fields. Once a few dozen generated durable runs have
// finished, had their traces read and some their provenance queried,
// the live heap is back within soakMargin of its level before the
// load, no descriptor is open under the data dir and the goroutines
// are back at their count before the load. A second server booted
// over the same dir, listing every run, stays within the same margin.
func TestDurableSoak(t *testing.T) {
	const (
		runs       = 32
		cells      = 400
		queried    = 8 // the last runs, past the replays a server keeps
		soakMargin = 2 << 20
	)
	dir := t.TempDir()
	s, err := New(Config{Workers: 2, MaxQueue: -1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	post := func(seed int) string {
		body := fmt.Sprintf(`{"scenario":{"name":"soak-%d","generate":{"cells":%d,"shape":"layered","seed":%d}},"user":"soak"}`,
			seed, cells, seed)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(body)))
		var v runView
		if err := json.Unmarshal(w.Body.Bytes(), &v); w.Code != http.StatusCreated || err != nil {
			t.Fatalf("submit answered %d: %s", w.Code, w.Body.Bytes())
		}
		return v.ID
	}
	// lastCommitted reads a finished run's trace and returns the first
	// instance its last unit committed.
	lastCommitted := func(id string) string {
		code, body := serve(s, "/v1/runs/"+id+"/trace")
		if code != http.StatusOK {
			t.Fatalf("trace of %s: %d %s", id, code, body)
		}
		inst := ""
		for _, line := range bytes.Split(body, []byte("\n")) {
			var ev trace.Event
			if len(line) > 0 && json.Unmarshal(line, &ev) == nil && ev.Kind == trace.KindUnitCommitted {
				inst = ev.Insts[0]
			}
		}
		if inst == "" {
			t.Fatalf("run %s committed nothing", id)
		}
		return inst
	}
	finish := func(id string) {
		<-s.record(id).done
		if v := s.record(id).view(); v.State != string(stateSucceeded) || v.TasksRun != cells {
			t.Fatalf("run %s ended %+v, want succeeded with %d tasks", id, v, cells)
		}
	}
	warm := post(0) // the first run builds what every run shares
	finish(warm)
	if code, body := serve(s, "/v1/runs/"+warm+"/provenance?inst="+lastCommitted(warm)); code != http.StatusOK {
		t.Fatalf("provenance of %s: %d %s", warm, code, body)
	}
	base, goroutines := liveHeap(), runtime.NumGoroutine()

	ids := make([]string, runs)
	for i := range ids {
		ids[i] = post(i + 1)
	}
	for i, id := range ids {
		finish(id)
		inst := lastCommitted(id)
		if i >= runs-queried {
			if code, body := serve(s, "/v1/runs/"+id+"/provenance?inst="+inst); code != http.StatusOK {
				t.Fatalf("provenance of %s: %d %s", id, code, body)
			}
		}
	}
	heap := liveHeap()
	t.Logf("live heap: %d KiB before the load, %d KiB after %d finished runs", base>>10, heap>>10, runs)
	if heap > base+soakMargin {
		t.Errorf("live heap after %d finished runs is %d KiB, %d KiB before them: over the %d KiB margin",
			runs, heap>>10, base>>10, soakMargin>>10)
	}
	for _, open := range openUnder(t, dir) {
		t.Errorf("descriptor still open on %s after every run finished", open)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the runs finished, %d before them", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}
	if forced, err := s.Shutdown(10 * time.Second); err != nil || forced {
		t.Fatalf("Shutdown = (forced %v, err %v)", forced, err)
	}

	s, err = New(Config{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(10 * time.Second)
	heap = liveHeap()
	t.Logf("live heap after booting over %d finished runs: %d KiB", runs+1, heap>>10)
	if heap > base+soakMargin {
		t.Errorf("live heap after booting over %d finished runs is %d KiB, %d KiB before the load: over the %d KiB margin",
			runs+1, heap>>10, base>>10, soakMargin>>10)
	}
	for _, id := range append(ids, warm) {
		if v := s.record(id).view(); v.State != string(stateSucceeded) || v.TasksRun != cells {
			t.Fatalf("booted run %s is %+v, want succeeded with %d tasks", id, v, cells)
		}
	}
	for _, open := range openUnder(t, dir) {
		t.Errorf("descriptor still open on %s after boot", open)
	}
}
