package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/provenance"
	"repro/internal/storage"
)

// svcScenario is a minimal declarative scenario for submission tests:
// two tasks (Mid then Out) over two imports, so every instance ID is
// known in advance (Src:1, T:2, Mid:3, Out:4 — IDs carry the
// database-global commit sequence).
const svcScenario = `{
  "name": "svc-tiny",
  "schema": [
    "tool T -- the only tool",
    "data Src -- imported source",
    "data Mid -- intermediate",
    "  fd T",
    "  dd Src",
    "data Out -- final output",
    "  fd T",
    "  dd Mid"
  ],
  "tools": [{"type": "T"}],
  "imports": [
    {"key": "src", "type": "Src", "data": "source bytes"},
    {"key": "t", "type": "T", "data": "tool config"}
  ],
  "flow": [
    {"op": "add", "node": "out", "type": "Out"},
    {"op": "expand", "node": "out"},
    {"op": "expand", "node": "out.Mid"},
    {"op": "bind", "node": "out.fd", "to": ["t"]},
    {"op": "bind", "node": "out.Mid.fd", "to": ["t"]},
    {"op": "bind", "node": "out.Mid.Src", "to": ["src"]}
  ]
}`

func TestScenarioSubmission(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	v := submit(t, ts.URL, svcScenario, "alice")
	if v.Flow != "scenario:svc-tiny" {
		t.Fatalf("run flow = %q, want scenario:svc-tiny", v.Flow)
	}
	fin := waitTerminal(t, ts.URL, v.ID)
	if fin.State != string(stateSucceeded) || fin.TasksRun != 2 {
		t.Fatalf("scenario run ended %+v, want succeeded with 2 tasks", fin)
	}
}

// TestScenarioSubmissionRejects: the one submit path refuses, before
// any work starts, a body over the size cap (413), a body naming a
// field the request does not have — such as a {"flow": name} menu
// submission — with the field named (400), a body without a scenario
// and an invalid scenario (400).
func TestScenarioSubmissionRejects(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, body string
		code       int
		msg        string
	}{
		{"oversize", `{"user":"` + strings.Repeat("x", maxSubmitBytes) + `"}`, http.StatusRequestEntityTooLarge, "exceeds"},
		{"flow field", `{"flow":"perf","user":"alice"}`, http.StatusBadRequest, `unknown field "flow"`},
		{"no scenario", `{"user":"alice"}`, http.StatusBadRequest, "scenario"},
		{"invalid scenario", `{"scenario":{"name":"broken"}}`, http.StatusBadRequest, "scenario"},
	} {
		// In process: over a real connection the server lingers before
		// closing one whose body it refused to read.
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(c.body)))
		var e map[string]string
		_ = json.Unmarshal(w.Body.Bytes(), &e)
		if w.Code != c.code || !strings.Contains(e["error"], c.msg) {
			t.Errorf("%s: %d %q, want %d with %q", c.name, w.Code, e["error"], c.code, c.msg)
		}
	}
}

// TestScenarioMemoIsolation: results must not leak across scenario
// worlds. A result cache is keyed by content-addressed derivation
// alone, and the same tool type and bytes can be clean in one scenario
// and declared failing in another — so the failing twin must actually
// fail even when the clean scenario ran first.
func TestScenarioMemoIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	v := submit(t, ts.URL, svcScenario, "alice")
	if fin := waitTerminal(t, ts.URL, v.ID); fin.State != string(stateSucceeded) {
		t.Fatalf("clean scenario ended %+v", fin)
	}
	failing := strings.Replace(svcScenario, `"name": "svc-tiny"`, `"name": "svc-tiny-fail"`, 1)
	failing = strings.Replace(failing, `"tools": [{"type": "T"}]`,
		`"tools": [{"type": "T", "behavior": "fail"}]`, 1)
	if failing == svcScenario {
		t.Fatal("test did not rewrite the scenario")
	}
	v2 := submit(t, ts.URL, failing, "alice")
	if fin := waitTerminal(t, ts.URL, v2.ID); fin.State != string(stateFailed) ||
		!strings.Contains(fin.Error, "declared failing") {
		t.Fatalf("failing twin ended %+v, want failed with the declared-failing error", fin)
	}
}

// TestProvenanceEndpoint drives the chaining query over a scenario run
// whose instance IDs are fully known: backward from the final output,
// forward from the imported source, depth bounds, and the inline chain
// verification.
func TestProvenanceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	v := submit(t, ts.URL, svcScenario, "alice")
	if fin := waitTerminal(t, ts.URL, v.ID); fin.State != string(stateSucceeded) {
		t.Fatalf("scenario run ended %+v", fin)
	}
	base := ts.URL + "/v1/runs/" + v.ID + "/provenance"

	var view provenanceView
	getJSON(t, base+"?inst=Out:4&verify=1", &view)
	if view.Root != "Out:4" || view.Dir != "back" || view.Depth != -1 {
		t.Fatalf("view header = %+v", view)
	}
	wantNodes := []string{"Out:4", "T:2", "Mid:3", "Src:1"}
	if fmt.Sprint(view.Nodes) != fmt.Sprint(wantNodes) {
		t.Fatalf("backchain nodes = %v, want %v", view.Nodes, wantNodes)
	}
	// First edge is the paper's fd arc: Out:4 was produced by tool T:2.
	if e := view.Edges[0]; e.Parent != "Out:4" || e.Child != "T:2" || e.Kind != "fd" {
		t.Fatalf("first edge = %+v, want Out:4 -fd-> T:2", e)
	}
	if view.Chain == nil || !view.Chain.Verified || view.Chain.Records != 4 {
		t.Fatalf("chain verdict = %+v, want verified with 4 records", view.Chain)
	}

	getJSON(t, base+"?inst=Src:1&dir=fwd", &view)
	if fmt.Sprint(view.Nodes) != fmt.Sprint([]string{"Src:1", "Mid:3", "Out:4"}) {
		t.Fatalf("forwardchain nodes = %v", view.Nodes)
	}

	// depth=1: only the direct derivation level.
	getJSON(t, base+"?inst=Out:4&depth=1", &view)
	if fmt.Sprint(view.Nodes) != fmt.Sprint([]string{"Out:4", "T:2", "Mid:3"}) {
		t.Fatalf("depth-1 backchain nodes = %v", view.Nodes)
	}

	for url, wantCode := range map[string]int{
		base:                              http.StatusBadRequest, // missing inst
		base + "?inst=Out:4&dir=sideways": http.StatusBadRequest,
		base + "?inst=Out:4&depth=x":      http.StatusBadRequest,
		base + "?inst=Nope:9":             http.StatusNotFound,
		ts.URL + "/v1/runs/r-9999/provenance?inst=Out:4": http.StatusNotFound,
	} {
		if resp := getJSON(t, url, nil); resp.StatusCode != wantCode {
			t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantCode)
		}
	}
}

// TestDurableChainPersisted: a durable run leaves a verifiable hash
// chain next to its WAL, and after a clean shutdown a cold reader
// (VerifyLog, the flowd -verify-provenance path) accepts it.
func TestDurableChainPersisted(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, DataDir: dir})
	v := submit(t, ts.URL, corpus(t, "quickstart"), "alice")
	if fin := waitTerminal(t, ts.URL, v.ID); fin.State != string(stateSucceeded) {
		t.Fatalf("run ended %+v", fin)
	}
	// Locate the produced Performance instance (IDs carry the world's
	// global commit sequence, so the exact number depends on the imports).
	rec := s.record(v.ID)
	perf := ""
	for i := 1; i <= rec.db.Len(); i++ {
		if id := history.MakeID("Performance", i); rec.db.Get(id) != nil {
			perf = string(id)
		}
	}
	if perf == "" {
		t.Fatal("no Performance instance in the run's session database")
	}
	var view provenanceView
	getJSON(t, ts.URL+"/v1/runs/"+v.ID+"/provenance?inst="+perf+"&verify=1", &view)
	if view.Chain == nil || !view.Chain.Verified || view.Chain.Records == 0 {
		t.Fatalf("live chain verdict = %+v", view.Chain)
	}
	if forced, err := s.Shutdown(5 * time.Second); err != nil || forced {
		t.Fatalf("Shutdown = (forced %v, err %v)", forced, err)
	}

	path := filepath.Join(dir, "runs", v.ID+".chain")
	l, err := storage.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n, verr := provenance.VerifyLog(l)
	if cerr := l.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if verr != nil || n != view.Chain.Records {
		t.Fatalf("cold VerifyLog = (%d, %v), want %d records clean", n, verr, view.Chain.Records)
	}

	// A recovered-finished run has no live world: the endpoint says so.
	_, ts2 := newTestServer(t, Config{Workers: 1, DataDir: dir})
	resp := getJSON(t, ts2.URL+"/v1/runs/"+v.ID+"/provenance?inst="+perf, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("provenance of recovered run: status %d, want 409", resp.StatusCode)
	}
}

// TestDurableResumeRefusesTamperedChain: boot-time resume re-verifies
// the interrupted run's pre-crash chain and refuses to rebuild on top
// of tampered provenance.
func TestDurableResumeRefusesTamperedChain(t *testing.T) {
	dir := t.TempDir()
	runs := filepath.Join(dir, "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		t.Fatal(err)
	}
	// An interrupted run: identity record only, no RunFinished.
	writeMeta(t, runs, storage.RunMeta{ID: "r-0001", Flow: "scenario:svc-tiny", User: "x",
		Scenario: compact(t, svcScenario)})
	// Its chain holds a framed record that is not a canonical chain
	// record — any mutation of a real record yields the same class of
	// verification failure.
	cl, err := storage.OpenFile(filepath.Join(runs, "r-0001.chain"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Append([]byte(`{"seq":0,"tampered":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{Workers: 1, DataDir: dir})
	if err == nil || !strings.Contains(err.Error(), "pre-crash chain") {
		t.Fatalf("New over tampered chain: err %v, want pre-crash chain verification failure", err)
	}
}
