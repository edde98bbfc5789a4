package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
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

// refusedSubmissions are submit bodies the service refuses, each with
// its status and a fragment of its error.
var refusedSubmissions = []struct {
	name, body string
	code       int
	msg        string
}{
	{"oversize", `{"user":"` + strings.Repeat("x", maxSubmitBytes) + `"}`, http.StatusRequestEntityTooLarge, "exceeds"},
	{"flow field", `{"flow":"perf","user":"alice"}`, http.StatusBadRequest, `unknown field "flow"`},
	{"no scenario", `{"user":"alice"}`, http.StatusBadRequest, "scenario"},
	{"invalid scenario", `{"scenario":{"name":"broken"}}`, http.StatusBadRequest, "scenario"},
	{"world too many cells", `{"scenario":{"name":"huge","generate":{"cells":1000000000}}}`,
		http.StatusBadRequest, "generate.cells 1000000000 exceeds the cap"},
	{"world too many bytes", `{"scenario":{"name":"huge","generate":{"cells":100000,"payload":1048576}}}`,
		http.StatusBadRequest, "cells × payload"},
}

// TestScenarioSubmissionRejects: the one submit path refuses, before
// any work starts, a body over the size cap (413), a body naming a
// field the request does not have — such as a {"flow": name} menu
// submission — with the field named (400), a body without a scenario,
// an invalid scenario and a generate stanza over a size cap (400).
func TestScenarioSubmissionRejects(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range refusedSubmissions {
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
	if n := len(s.runs); n != 0 {
		t.Fatalf("%d runs registered by refused submissions, want none", n)
	}
}

// FuzzSubmit posts arbitrary bytes to /v1/runs, on a fresh in-memory
// server for each input: every answer is 201, 400 or 413 — never a 5xx,
// never a panic. An accepted run is cancelled through /cancel, which
// answers once the run has ended, and the server's worker pool is
// stopped, so at most one run is live per fuzz worker and nothing
// carries over between inputs. Seeded with every corpus scenario as a
// submission and with the refused bodies above.
func FuzzSubmit(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("scenario corpus: %d files, %v", len(paths), err)
	}
	for _, p := range paths {
		doc, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(`{"scenario":` + string(doc) + `}`))
	}
	for _, c := range refusedSubmissions {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := New(Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body)))
		switch w.Code {
		case http.StatusCreated:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("submit answered %d: %s", w.Code, w.Body.Bytes())
		}
		var v runView
		if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil || v.ID == "" {
			t.Fatalf("201 names no run (%v): %s", err, w.Body.Bytes())
		}
		w = httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/runs/"+v.ID+"/cancel", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("cancel of %s answered %d: %s", v.ID, w.Code, w.Body.Bytes())
		}
		if err := s.Engine().Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestScenarioMemoIsolation: results must not leak across scenario
// worlds. The same tool type and bytes can be clean in one scenario and
// declared failing in another — a result cache keyed by derivation
// alone would answer the twin from the clean run — so the failing twin
// must actually fail even when the clean scenario ran first.
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
// verdict — which, for a run without a data dir, is that there is no
// log to verify.
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
	if view.Chain == nil || view.Chain.Verified || view.Chain.Records != 0 || !strings.Contains(view.Chain.Error, "no log") {
		t.Fatalf("chain verdict = %+v, want unverified: no log", view.Chain)
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

// performanceInst returns the Performance instance a quickstart run
// committed, from its trace (IDs carry the world's global commit
// sequence, so the number depends on the imports).
func performanceInst(t *testing.T, base, id string) string {
	t.Helper()
	for _, line := range fetchTrace(t, base, id) {
		var ev trace.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		for _, inst := range ev.Insts {
			if strings.HasPrefix(inst, "Performance:") {
				return inst
			}
		}
	}
	t.Fatal("no Performance instance committed in the run's trace")
	return ""
}

// getBody returns a GET's status and raw body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestDurableChainPersisted: a durable run leaves exactly one file, its
// WAL, and verify=1 replays it and finds every chain digest matched.
// After a restart the run's provenance answers exactly as before — its
// first query rebuilds the graph from the log — and verify=1 still
// verifies.
func TestDurableChainPersisted(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, DataDir: dir})
	v := submit(t, ts.URL, corpus(t, "quickstart"), "alice")
	if fin := waitTerminal(t, ts.URL, v.ID); fin.State != string(stateSucceeded) {
		t.Fatalf("run ended %+v", fin)
	}
	perf := performanceInst(t, ts.URL, v.ID)
	base := ts.URL + "/v1/runs/" + v.ID + "/provenance?inst=" + perf
	var view provenanceView
	getJSON(t, base+"&verify=1", &view)
	if view.Chain == nil || !view.Chain.Verified || view.Chain.Records == 0 {
		t.Fatalf("chain verdict = %+v, want verified", view.Chain)
	}
	records := view.Chain.Records
	live := map[string][]byte{}
	for _, q := range []string{"", "&dir=fwd", "&depth=1"} {
		code, body := getBody(t, base+q)
		if code != http.StatusOK {
			t.Fatalf("GET provenance%s: %d %s", q, code, body)
		}
		live[q] = body
	}
	if forced, err := s.Shutdown(5 * time.Second); err != nil || forced {
		t.Fatalf("Shutdown = (forced %v, err %v)", forced, err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "runs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != v.ID+".wal" {
		t.Fatalf("runs/ holds %v, want only %s.wal", entries, v.ID)
	}

	// The first queries after the restart race: they share one replay.
	_, ts2 := newTestServer(t, Config{Workers: 1, DataDir: dir})
	base2 := ts2.URL + "/v1/runs/" + v.ID + "/provenance?inst=" + perf
	var wg sync.WaitGroup
	for q, want := range live {
		wg.Add(1)
		go func(q string, want []byte) {
			defer wg.Done()
			resp, err := http.Get(base2 + q)
			if err != nil {
				t.Error(err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
				t.Errorf("provenance%s after restart: %d (%v)\n%s\nwant 200\n%s", q, resp.StatusCode, err, body, want)
			}
		}(q, want)
	}
	wg.Wait()
	getJSON(t, base2+"&verify=1", &view)
	if view.Chain == nil || !view.Chain.Verified || view.Chain.Records != records {
		t.Fatalf("chain verdict after restart = %+v, want verified with %d records", view.Chain, records)
	}
}

// TestDurableResumeRefusesTamperedChain: an interrupted run whose WAL
// has one logged artifact rewritten (frame checksum recomputed) is
// refused at resume: the run ends failed with an error naming the unit,
// nothing is dispatched — its trace stays the recovered prefix — and
// the other runs in the data dir boot normally.
func TestDurableResumeRefusesTamperedChain(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{Workers: 1, DataDir: dir})
	bad := submit(t, ts1.URL, corpus(t, "quickstart"), "alice")
	waitTerminal(t, ts1.URL, bad.ID)
	good := submit(t, ts1.URL, corpus(t, "quickstart"), "bob")
	waitTerminal(t, ts1.URL, good.ID)
	if forced, err := s1.Shutdown(5 * time.Second); err != nil || forced {
		t.Fatalf("Shutdown = (forced %v, err %v)", forced, err)
	}
	path := filepath.Join(dir, "runs", bad.ID+".wal")
	dropRunFinished(t, path)
	rewriteArtifact(t, path, 1)
	prefix := recoverFile(t, path)
	if prefix.Finished || prefix.Commits[1] == nil {
		t.Fatalf("tampered copy recovered finished=%v with %d commits, want interrupted with unit 1", prefix.Finished, len(prefix.Commits))
	}

	_, ts2 := newTestServer(t, Config{Workers: 1, DataDir: dir})
	got := waitTerminal(t, ts2.URL, bad.ID)
	if got.State != string(stateFailed) || !strings.Contains(got.Error, "recovered unit 1 (") {
		t.Fatalf("tampered run = %+v, want failed naming unit 1", got)
	}
	if n := len(fetchTrace(t, ts2.URL, bad.ID)); n != len(prefix.Events) {
		t.Fatalf("tampered run's trace has %d events, want the %d of its recovered prefix", n, len(prefix.Events))
	}
	if v := waitTerminal(t, ts2.URL, good.ID); v.State != string(stateSucceeded) {
		t.Fatalf("untampered run after boot = %+v, want succeeded", v)
	}
}

// TestDurableTamperedLog: a finished run whose WAL has one logged
// artifact rewritten, frame checksum recomputed, is refused wherever
// its log is read — verify=1 and the first provenance query after a
// restart — with an error naming the unit; the same run's status and
// trace still recover.
func TestDurableTamperedLog(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, DataDir: dir})
	v := submit(t, ts.URL, corpus(t, "quickstart"), "alice")
	if fin := waitTerminal(t, ts.URL, v.ID); fin.State != string(stateSucceeded) {
		t.Fatalf("run ended %+v", fin)
	}
	perf := performanceInst(t, ts.URL, v.ID)
	rewriteArtifact(t, filepath.Join(dir, "runs", v.ID+".wal"), 2)
	const named = "recovered unit 2 ("
	var view provenanceView
	getJSON(t, ts.URL+"/v1/runs/"+v.ID+"/provenance?inst="+perf+"&verify=1", &view)
	if view.Chain == nil || view.Chain.Verified || !strings.Contains(view.Chain.Error, named) {
		t.Fatalf("verify=1 on the rewritten log = %+v, want a failure naming unit 2", view.Chain)
	}
	if forced, err := s.Shutdown(5 * time.Second); err != nil || forced {
		t.Fatalf("Shutdown = (forced %v, err %v)", forced, err)
	}

	_, ts2 := newTestServer(t, Config{Workers: 1, DataDir: dir})
	if got := waitTerminal(t, ts2.URL, v.ID); got.State != string(stateSucceeded) {
		t.Fatalf("recovered run = %+v, want succeeded", got)
	}
	for i := 0; i < 2; i++ { // the failed replay is kept, not retried
		code, body := getBody(t, ts2.URL+"/v1/runs/"+v.ID+"/provenance?inst="+perf)
		if code != http.StatusConflict || !strings.Contains(string(body), named) {
			t.Fatalf("provenance of the rewritten run after restart: %d %s, want 409 naming unit 2", code, body)
		}
	}
}
