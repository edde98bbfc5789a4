package service

import (
	"bufio"
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

	"repro/internal/datastore"
	"repro/internal/flow"
	"repro/internal/history"
	"repro/internal/trace"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decoding body: %v", url, err)
		}
	}
	return resp
}

// corpus returns a scenario document from the repository corpus
// (testdata/scenarios).
func corpus(t *testing.T, name string) string {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "testdata", "scenarios", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return string(doc)
}

// submit posts an inline scenario and returns the created run.
func submit(t *testing.T, base, doc, user string) runView {
	t.Helper()
	body := fmt.Sprintf(`{"scenario":%s,"user":%q}`, doc, user)
	resp, err := http.Post(base+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/runs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST /v1/runs: status %d (%v)", resp.StatusCode, e)
	}
	var v runView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("POST /v1/runs: decoding body: %v", err)
	}
	return v
}

// postRaw posts a raw submission body and returns the status code and
// the error message of the answer.
func postRaw(t *testing.T, base, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/runs: %v", err)
	}
	defer resp.Body.Close()
	var e map[string]string
	_ = json.NewDecoder(resp.Body).Decode(&e)
	return resp.StatusCode, e["error"]
}

func waitTerminal(t *testing.T, base, id string) runView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var v runView
		getJSON(t, base+"/v1/runs/"+id, &v)
		if v.State != string(stateRunning) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s still %q after 10s", id, v.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestServiceSubmitStatusTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp := getJSON(t, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	v := submit(t, ts.URL, corpus(t, "quickstart"), "alice")
	if v.ID == "" || v.State != string(stateRunning) || v.Flow != "scenario:quickstart" {
		t.Fatalf("unexpected submit response: %+v", v)
	}
	final := waitTerminal(t, ts.URL, v.ID)
	if final.State != string(stateSucceeded) {
		t.Fatalf("run ended %q (error %q), want succeeded", final.State, final.Error)
	}
	if final.TasksRun != 4 {
		t.Fatalf("TasksRun = %d, want 4", final.TasksRun)
	}

	// The finished run's trace must be complete, masked JSONL: one
	// PlanBuilt first, one RunFinished last, no timings or run labels.
	resp2, err := http.Get(ts.URL + "/v1/runs/" + v.ID + "/trace")
	if err != nil {
		t.Fatalf("GET trace: %v", err)
	}
	defer resp2.Body.Close()
	var lines []trace.Event
	sc := bufio.NewScanner(resp2.Body)
	for sc.Scan() {
		var ev trace.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if ev.Run != "" || ev.ElapsedMicros != 0 {
			t.Fatalf("trace line not masked: %+v", ev)
		}
		lines = append(lines, ev)
	}
	if len(lines) < 2 || lines[0].Kind != trace.KindPlanBuilt ||
		lines[len(lines)-1].Kind != trace.KindRunFinished {
		t.Fatalf("trace shape wrong: %d events, first %q last %q",
			len(lines), lines[0].Kind, lines[len(lines)-1].Kind)
	}

	if resp := getJSON(t, ts.URL+"/v1/runs/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run: status %d, want 404", resp.StatusCode)
	}
}

func TestServiceCancelMidRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	v := submit(t, ts.URL, corpus(t, "cancel-midrun"), "bob")

	// Cancel while the scenario's 30s stage is still running. The
	// handler waits for the run to unwind before answering.
	time.Sleep(5 * time.Millisecond)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs/"+v.ID+"/cancel", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST cancel: %v", err)
	}
	defer resp.Body.Close()
	var after runView
	if err := json.NewDecoder(resp.Body).Decode(&after); err != nil {
		t.Fatalf("decoding cancel response: %v", err)
	}
	if after.State != string(stateCancelled) {
		t.Fatalf("state after cancel = %q, want cancelled", after.State)
	}
	if after.Error == "" {
		t.Fatalf("cancelled run should report its error")
	}
}

// TestServiceConcurrentRunsSharedMetrics: several users' runs share the
// engine and the metrics fold, but each runs in its own world without a
// result cache — the same scenario submitted five times runs every unit
// five times.
func TestServiceConcurrentRunsSharedMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	doc := corpus(t, "quickstart")

	ids := make([]string, 0, 5)
	for _, user := range []string{"warm", "alice", "bob", "carol", "dave"} {
		ids = append(ids, submit(t, ts.URL, doc, user).ID)
	}
	for _, id := range ids {
		v := waitTerminal(t, ts.URL, id)
		if v.State != string(stateSucceeded) || v.TasksRun != 4 {
			t.Fatalf("run %s = %+v, want succeeded with 4 tasks", id, v)
		}
	}

	var list []runView
	getJSON(t, ts.URL+"/v1/runs", &list)
	if len(list) != 5 {
		t.Fatalf("run list has %d entries, want 5", len(list))
	}

	body, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	defer body.Body.Close()
	if body.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", body.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(body.Body); err != nil {
		t.Fatalf("reading metrics: %v", err)
	}
	text := buf.String()
	for _, want := range []string{"flow_runs_total 5", "flow_units_committed_total 20", "flow_unit_cache_hits_total 0"} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	if active, queued := s.Engine().Runs(); active != 0 || queued != 0 {
		t.Fatalf("engine not drained: %d active, %d queued", active, queued)
	}
}

func TestServiceBackPressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxRuns: 1, MaxQueue: 0})

	v := submit(t, ts.URL, corpus(t, "cancel-midrun"), "hog")
	// Launch is asynchronous: wait for the hog to hold the one run slot,
	// or a rebuffed submission could win admission ahead of it.
	deadline := time.Now().Add(5 * time.Second)
	for active, _ := s.Engine().Runs(); active == 0; active, _ = s.Engine().Runs() {
		if time.Now().After(deadline) {
			t.Fatal("hog never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	// With one run slot, no queue and a slow run holding the slot, the
	// next submission must be answered 429 rather than queued forever.
	if code, msg := postRaw(t, ts.URL, `{"scenario":`+corpus(t, "quickstart")+`,"user":"rebuffed"}`); code != http.StatusTooManyRequests {
		t.Fatalf("submission against a full engine: %d %q, want 429", code, msg)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE run: %v", err)
	}
	resp.Body.Close()
	if got := waitTerminal(t, ts.URL, v.ID); got.State != string(stateCancelled) {
		t.Fatalf("hog ended %q, want cancelled", got.State)
	}
}

// TestEventLogStreaming pins the byte log's three reader cases: a reader
// blocked at the end of the log wakes on Emit with exactly the new
// line, a read past close reports done, and a reader that joins after
// the run finished gets the whole masked trace in one batch.
func TestEventLogStreaming(t *testing.T) {
	events := []trace.Event{
		{Seq: 0, Run: "r-0001", Kind: trace.KindPlanBuilt, Job: -1, Combo: -1, Unit: -1, Workers: 2},
		{Seq: 1, Run: "r-0001", Kind: trace.KindUnitCommitted, Insts: []string{"a<b>&c"}, DurMicros: 7},
		{Seq: 2, Run: "r-0001", Kind: trace.KindRunFinished, Job: -1, Combo: -1, Unit: -1, ElapsedMicros: 9},
	}
	l := newEventLog()
	off := 0
	for i, ev := range events {
		got := make(chan []byte, 1)
		go func(off int) {
			batch, ok := l.next(off)
			if !ok {
				t.Errorf("next(%d) reported done before event %d", off, i)
			}
			got <- batch
		}(off)
		l.Emit(ev)
		want := trace.MaskedJSONL(events[i : i+1])
		select {
		case batch := <-got:
			if !bytes.Equal(batch, want) {
				t.Fatalf("event %d: reader got %q, want %q", i, batch, want)
			}
			off += len(batch)
		case <-time.After(5 * time.Second):
			t.Fatalf("event %d: blocked reader never woke", i)
		}
	}
	l.close()
	if batch, ok := l.next(off); ok || len(batch) != 0 {
		t.Fatalf("next past close = %q, %v; want done", batch, ok)
	}
	batch, ok := l.next(0)
	if !ok || !bytes.Equal(batch, trace.MaskedJSONL(events)) {
		t.Fatalf("late reader got %q, %v; want the whole masked trace in one batch", batch, ok)
	}
}

// TestTraceEndpointMatchesGoldens: the trace a client streams from flowd
// is, byte for byte, the masked golden the conformance harness pins for
// the same scenario — every corpus scenario with a golden, all
// submitted at once to one in-process server. Only cancel-midrun is
// left out, because it has no golden: where its cancel lands is
// nondeterministic.
func TestTraceEndpointMatchesGoldens(t *testing.T) {
	goldens, err := filepath.Glob(filepath.Join("..", "..", "testdata", "scenarios", "golden", "*.jsonl"))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no goldens found (%v)", err)
	}
	_, ts := newTestServer(t, Config{Workers: 4})
	ids := make(map[string]string, len(goldens))
	for _, g := range goldens {
		name := strings.TrimSuffix(filepath.Base(g), ".jsonl")
		ids[name] = submit(t, ts.URL, corpus(t, name), "golden").ID
	}
	for _, g := range goldens {
		name := strings.TrimSuffix(filepath.Base(g), ".jsonl")
		want, err := os.ReadFile(g)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(ts.URL + "/v1/runs/" + ids[name] + "/trace")
		if err != nil {
			t.Fatalf("%s: GET trace: %v", name, err)
		}
		var got bytes.Buffer
		_, err = got.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: reading trace: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: streamed trace differs from its golden\n got:\n%s\nwant:\n%s", name, got.Bytes(), want)
		}
	}
}

// TestFinishedRunReleasesWorld pins what a finished run retains: once
// the run is terminal, its world's history database, datastore and flow
// are unreachable from the server, in memory and durable mode alike. A
// finalizer on each must fire after a GC. The run keeps the database's
// derivation graph, so its provenance still answers, byte for byte as
// before, without a replay.
func TestFinishedRunReleasesWorld(t *testing.T) {
	for _, dataDir := range []string{"", t.TempDir()} {
		s, ts := newTestServer(t, Config{Workers: 2, DataDir: dataDir})
		doc := compact(t, corpus(t, "quickstart"))
		world, flowName, opts, err := materialize(doc)
		if err != nil {
			t.Fatal(err)
		}
		freed := make(chan string, 3)
		runtime.SetFinalizer(world.DB(), func(*history.DB) { freed <- "history.DB" })
		runtime.SetFinalizer(world.Store(), func(*datastore.Store) { freed <- "datastore.Store" })
		runtime.SetFinalizer(world.Flow(), func(*flow.Flow) { freed <- "flow.Flow" })
		accepted, err := s.start(world, flowName, opts, "alice", doc)
		if err != nil {
			t.Fatal(err)
		}
		if v := waitTerminal(t, ts.URL, accepted.ID); v.State != string(stateSucceeded) {
			t.Fatalf("run ended %+v, want succeeded", v)
		}
		query := ts.URL + "/v1/runs/" + accepted.ID + "/provenance?inst=" + performanceInst(t, ts.URL, accepted.ID)
		code, before := getBody(t, query)
		if code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", query, code, before)
		}
		left := map[string]bool{"history.DB": true, "datastore.Store": true, "flow.Flow": true}
		deadline := time.After(10 * time.Second)
		for len(left) > 0 {
			runtime.GC()
			select {
			case name := <-freed:
				delete(left, name)
			case <-time.After(10 * time.Millisecond):
			case <-deadline:
				t.Fatalf("data dir %q: the finished run's %v still reachable", dataDir, left)
			}
		}
		if s.record(accepted.ID).prov == nil {
			t.Fatalf("data dir %q: the finished run kept no derivation graph", dataDir)
		}
		if code, after := getBody(t, query); code != http.StatusOK || !bytes.Equal(after, before) {
			t.Fatalf("data dir %q: after the world was freed, provenance answered %d:\n%s\nwant:\n%s", dataDir, code, after, before)
		}
	}
}
