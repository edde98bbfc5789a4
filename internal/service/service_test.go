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
	"strings"
	"testing"
	"time"

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
// engine and the metrics fold, but each runs in its own world with a
// private result cache — the same scenario submitted five times runs
// every unit five times.
func TestServiceConcurrentRunsSharedMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	doc := corpus(t, "quickstart")

	ids := make([]string, 0, 5)
	for _, user := range []string{"warm", "alice", "bob", "carol", "dave"} {
		ids = append(ids, submit(t, ts.URL, doc, user).ID)
	}
	for _, id := range ids {
		v := waitTerminal(t, ts.URL, id)
		if v.State != string(stateSucceeded) || v.TasksRun != 4 || v.CacheHits != 0 {
			t.Fatalf("run %s = %+v, want succeeded with 4 tasks and no cache hits", id, v)
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

func TestEventLogStreaming(t *testing.T) {
	l := newEventLog()
	got := make(chan trace.Event, 1)
	go func() {
		ev, ok := l.next(0)
		if !ok {
			t.Error("next(0) reported closed before any event")
		}
		got <- ev
	}()
	time.Sleep(time.Millisecond)
	l.Emit(trace.Event{Kind: trace.KindPlanBuilt})
	select {
	case ev := <-got:
		if ev.Kind != trace.KindPlanBuilt {
			t.Fatalf("streamed event kind = %q", ev.Kind)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked reader never woke")
	}
	l.close()
	if _, ok := l.next(1); ok {
		t.Fatal("next past close should report done")
	}
	if n := len(l.snapshot()); n != 1 {
		t.Fatalf("snapshot has %d events, want 1", n)
	}
}
