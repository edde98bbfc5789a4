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
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

// fetchTrace returns the run's masked JSONL trace as raw lines.
func fetchTrace(t *testing.T, base, id string) []string {
	t.Helper()
	resp, err := http.Get(base + "/v1/runs/" + id + "/trace")
	if err != nil {
		t.Fatalf("GET trace: %v", err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			lines = append(lines, s)
		}
	}
	return lines
}

func sameTrace(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trace has %d events, want %d\ngot:  %v\nwant: %v",
			len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("trace event %d:\ngot:  %s\nwant: %s", i, got[i], want[i])
		}
	}
}

// compact returns a scenario document as the service logs it.
func compact(t testing.TB, doc string) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.Compact(&b, []byte(doc)); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// writeMeta leaves an interrupted run's WAL under runs: its identity
// record and nothing else.
func writeMeta(t *testing.T, runs string, meta storage.RunMeta) {
	t.Helper()
	if err := os.MkdirAll(runs, 0o755); err != nil {
		t.Fatal(err)
	}
	l, err := storage.OpenFile(filepath.Join(runs, meta.ID+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	w := storage.NewRunWAL(l)
	if err := w.AppendMeta(meta); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// recoverFile reads a run log back without changing it.
func recoverFile(t *testing.T, path string) *storage.Recovered {
	t.Helper()
	l, err := storage.OpenReadOnly(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rc, err := storage.RecoverRun(l)
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

// rewriteLog replaces the run log at path with edit applied to its
// records, framed afresh — so every frame checksum holds.
func rewriteLog(t testing.TB, path string, edit func(recs [][]byte) [][]byte) {
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
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	out, err := storage.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range edit(recs) {
		if err := out.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
}

// rewriteCommit applies edit to the given unit's UnitCommitted record:
// a tamper the frame checksums cannot see, since the record is framed
// afresh.
func rewriteCommit(t testing.TB, path string, unit int, edit func(rec *storage.Record)) {
	t.Helper()
	rewriteLog(t, path, func(recs [][]byte) [][]byte {
		for i, raw := range recs {
			var rec storage.Record
			if err := json.Unmarshal(raw, &rec); err != nil {
				t.Fatal(err)
			}
			if rec.Commit == nil || rec.Event.Unit != unit {
				continue
			}
			edit(&rec)
			b, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			recs[i] = b
			return recs
		}
		t.Fatalf("%s has no commit record for unit %d", path, unit)
		return nil
	})
}

// rewriteArtifact rewrites the artifact bytes the given unit's
// UnitCommitted record carries.
func rewriteArtifact(t testing.TB, path string, unit int) {
	t.Helper()
	rewriteCommit(t, path, unit, func(rec *storage.Record) {
		for typ, b := range rec.Commit.Outputs {
			rec.Commit.Outputs[typ] = append(b, " (rewritten)"...)
		}
	})
}

// forgeInst rewrites the first instance ID the given unit's
// UnitCommitted event names, and forgeType its type; the artifacts and
// chain digests stay as logged.
func forgeInst(t testing.TB, path string, unit int) {
	t.Helper()
	rewriteCommit(t, path, unit, func(rec *storage.Record) { rec.Event.Insts[0] = "Forged:999" })
}

func forgeType(t testing.TB, path string, unit int) {
	t.Helper()
	rewriteCommit(t, path, unit, func(rec *storage.Record) { rec.Event.Type = "Forged" })
}

// duplicateCommit repeats the given unit's UnitCommitted record right
// after it, so the log commits the unit twice.
func duplicateCommit(t testing.TB, path string, unit int) {
	t.Helper()
	rewriteLog(t, path, func(recs [][]byte) [][]byte {
		for i, raw := range recs {
			var rec storage.Record
			if err := json.Unmarshal(raw, &rec); err != nil {
				t.Fatal(err)
			}
			if rec.Commit != nil && rec.Event.Unit == unit {
				return slices.Insert(recs, i+1, raw)
			}
		}
		t.Fatalf("%s has no commit record for unit %d", path, unit)
		return nil
	})
}

// dropRunFinished turns a finished run's log into an interrupted one.
func dropRunFinished(t *testing.T, path string) {
	t.Helper()
	rewriteLog(t, path, func(recs [][]byte) [][]byte {
		if !bytes.Contains(recs[len(recs)-1], []byte(`"RunFinished"`)) {
			t.Fatalf("%s does not end with RunFinished", path)
		}
		return recs[:len(recs)-1]
	})
}

// TestDurableFinishedRunSurvivesRestart: a run completed and drained
// cleanly must come back on the next boot — terminal state, full trace
// — and new submissions must not reuse its id.
func TestDurableFinishedRunSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	doc := corpus(t, "quickstart")
	s1, ts1 := newTestServer(t, Config{Workers: 2, DataDir: dir})

	v := submit(t, ts1.URL, doc, "alice")
	fin := waitTerminal(t, ts1.URL, v.ID)
	if fin.State != string(stateSucceeded) || fin.TasksRun == 0 {
		t.Fatalf("run ended %+v, want succeeded with tasks run", fin)
	}
	golden := fetchTrace(t, ts1.URL, v.ID)

	forced, err := s1.Shutdown(5 * time.Second)
	if err != nil || forced {
		t.Fatalf("Shutdown = (forced %v, err %v), want clean", forced, err)
	}

	_, ts2 := newTestServer(t, Config{Workers: 2, DataDir: dir})
	var back runView
	getJSON(t, ts2.URL+"/v1/runs/"+v.ID, &back)
	if back.State != string(stateSucceeded) || back.Flow != "scenario:quickstart" || back.User != "alice" ||
		back.TasksRun != fin.TasksRun {
		t.Fatalf("recovered run = %+v, want succeeded scenario:quickstart/alice with %d tasks run", back, fin.TasksRun)
	}
	sameTrace(t, fetchTrace(t, ts2.URL, v.ID), golden)

	v2 := submit(t, ts2.URL, doc, "alice")
	if v2.ID == v.ID {
		t.Fatalf("new submission reused recovered id %s", v.ID)
	}
	if rerun := waitTerminal(t, ts2.URL, v2.ID); rerun.State != string(stateSucceeded) {
		t.Fatalf("rerun after restart = %+v, want succeeded", rerun)
	}
}

// boundOnly is a scenario whose only node is bound: its plan has no
// jobs.
const boundOnly = `{
  "name": "bound-only",
  "base": "standard",
  "imports": [{"key": "stim", "type": "Stimuli", "name": "one vector", "data": "stimuli one\ninterval 10\ninputs a\nvector 1\n"}],
  "flow": [
    {"op": "add", "node": "stim", "type": "Stimuli"},
    {"op": "bind", "node": "stim", "to": ["stim"]}
  ]
}`

// TestDurableZeroJobRunFinishes: a run with nothing to execute still
// logs RunFinished, so the next boot registers it succeeded instead of
// resuming it as interrupted.
func TestDurableZeroJobRunFinishes(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{Workers: 2, DataDir: dir})
	v := submit(t, ts1.URL, boundOnly, "alice")
	if got := waitTerminal(t, ts1.URL, v.ID); got.State != string(stateSucceeded) || got.TasksRun != 0 {
		t.Fatalf("zero-job run ended %+v, want succeeded with no tasks", got)
	}
	live := fetchTrace(t, ts1.URL, v.ID)
	if n := len(live); n != 2 || !strings.Contains(live[n-1], `"RunFinished"`) {
		t.Fatalf("zero-job trace = %v, want PlanBuilt then RunFinished", live)
	}
	ts1.Close()

	s2, ts2 := newTestServer(t, Config{Workers: 2, DataDir: dir})
	rec := s2.record(v.ID)
	if rec == nil {
		t.Fatalf("zero-job run %s not recovered", v.ID)
	}
	select {
	case <-rec.done:
	default:
		t.Fatal("zero-job run was resumed at boot, want it registered finished")
	}
	if got := rec.view(); got.State != string(stateSucceeded) {
		t.Fatalf("recovered zero-job run is %q, want succeeded", got.State)
	}
	sameTrace(t, fetchTrace(t, ts2.URL, v.ID), live)
}

// TestDurableScenarioResumeAfterCrash: truncating a finished run's WAL
// at a record boundary models a kill -9 between group commits. At
// every boundary the next boot must re-materialize the run's world from
// the scenario in its identity record and resume it from its last
// committed unit, and the final masked trace must be byte-identical to
// the uninterrupted golden.
func TestDurableScenarioResumeAfterCrash(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{Workers: 2, DataDir: dir})
	v := submit(t, ts1.URL, corpus(t, "quickstart"), "alice")
	if got := waitTerminal(t, ts1.URL, v.ID); got.State != string(stateSucceeded) {
		t.Fatalf("run ended %q (error %q), want succeeded", got.State, got.Error)
	}
	golden := fetchTrace(t, ts1.URL, v.ID)
	ts1.Close() // the "crash": no Shutdown

	// Chop the WAL at every possible record boundary and recover each
	// truncation with a fresh server over the same data dir.
	walPath := filepath.Join(dir, "runs", v.ID+".wal")
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	l, err := storage.OpenFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	total := l.Records()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	for keep := 1; keep < total; keep++ {
		if err := os.WriteFile(walPath, full, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := storage.OpenFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Rewind(keep); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		_, ts2 := newTestServer(t, Config{Workers: 2, DataDir: dir})
		got := waitTerminal(t, ts2.URL, v.ID)
		if got.State != string(stateSucceeded) || got.Flow != "scenario:quickstart" {
			t.Fatalf("keep=%d/%d: resumed run = %+v, want succeeded scenario:quickstart",
				keep, total, got)
		}
		sameTrace(t, fetchTrace(t, ts2.URL, v.ID), golden)
		ts2.Close()
	}
}

// TestDurableBootIgnoresStoreCheckpoint: a data dir written by an
// older flowd may hold a store.json datastore checkpoint. Boot neither
// reads it nor deletes it: even one that is not JSON at all leaves the
// finished run listed with its full trace.
func TestDurableBootIgnoresStoreCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{Workers: 2, DataDir: dir})
	v := submit(t, ts1.URL, corpus(t, "quickstart"), "alice")
	if fin := waitTerminal(t, ts1.URL, v.ID); fin.State != string(stateSucceeded) {
		t.Fatalf("run ended %+v, want succeeded", fin)
	}
	golden := fetchTrace(t, ts1.URL, v.ID)
	if forced, err := s1.Shutdown(5 * time.Second); err != nil || forced {
		t.Fatalf("Shutdown = (forced %v, err %v), want clean", forced, err)
	}
	checkpoint := filepath.Join(dir, "store.json")
	junk := []byte("{not a datastore checkpoint")
	if err := os.WriteFile(checkpoint, junk, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, Config{Workers: 2, DataDir: dir})
	var runs []runView
	getJSON(t, ts2.URL+"/v1/runs", &runs)
	if len(runs) != 1 || runs[0].ID != v.ID || runs[0].State != string(stateSucceeded) {
		t.Fatalf("runs after boot = %+v, want %s succeeded", runs, v.ID)
	}
	sameTrace(t, fetchTrace(t, ts2.URL, v.ID), golden)
	if got, err := os.ReadFile(checkpoint); err != nil || !bytes.Equal(got, junk) {
		t.Fatalf("store.json after boot = %q (%v), want it untouched", got, err)
	}
}

// TestDurableShutdownDrains: Shutdown stops admission immediately (503)
// but lets the active run finish.
func TestDurableShutdownDrains(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 2, DataDir: dir})
	v := submit(t, ts.URL, corpus(t, "slow-chain"), "alice")
	late := `{"scenario":` + corpus(t, "quickstart") + `,"user":"bob"}`

	var wg sync.WaitGroup
	var forced bool
	var err error
	wg.Add(1)
	go func() {
		defer wg.Done()
		forced, err = s.Shutdown(10 * time.Second)
	}()

	// Admission must close before the drain completes.
	rejected := false
	for i := 0; i < 200 && !rejected; i++ {
		code, _ := postRaw(t, ts.URL, late)
		rejected = code == http.StatusServiceUnavailable
		time.Sleep(time.Millisecond)
	}
	if !rejected {
		t.Fatal("submission was never rejected while draining")
	}

	wg.Wait()
	if err != nil || forced {
		t.Fatalf("Shutdown = (forced %v, err %v), want clean drain", forced, err)
	}
	var final runView
	getJSON(t, ts.URL+"/v1/runs/"+v.ID, &final)
	if final.State != string(stateSucceeded) {
		t.Fatalf("drained run ended %q, want succeeded", final.State)
	}
}

// TestShutdownStopsWorkerPool: a server that is shut down leaves no
// goroutine behind. Shutdown drains the runs and then closes the
// engine, whose worker pool would otherwise outlive the server.
func TestShutdownStopsWorkerPool(t *testing.T) {
	body := `{"scenario":` + corpus(t, "quickstart") + `,"user":"alice"}`
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		s, err := New(Config{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(body)))
		if w.Code != http.StatusCreated {
			t.Fatalf("submit answered %d: %s", w.Code, w.Body.Bytes())
		}
		if forced, err := s.Shutdown(10 * time.Second); forced || err != nil {
			t.Fatalf("Shutdown = (forced %v, err %v), want a clean drain", forced, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after shutting 5 servers down, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDurableForcedShutdown: a drain deadline too short for the active
// run aborts it (forced=true); the aborted run's log records a finished
// (cancelled) run, so the next boot reports it failed rather than
// resuming it — cancellation is a decision, not a crash.
func TestDurableForcedShutdown(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 2, DataDir: dir})
	v := submit(t, ts.URL, corpus(t, "cancel-midrun"), "alice")
	time.Sleep(50 * time.Millisecond) // let the run get past planning

	forced, err := s.Shutdown(time.Millisecond)
	if err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if !forced {
		t.Fatal("Shutdown reported a clean drain, want forced abort")
	}
	var final runView
	getJSON(t, ts.URL+"/v1/runs/"+v.ID, &final)
	if final.State != string(stateCancelled) {
		t.Fatalf("aborted run ended %q, want cancelled", final.State)
	}

	_, ts2 := newTestServer(t, Config{Workers: 2, DataDir: dir})
	var back runView
	getJSON(t, ts2.URL+"/v1/runs/"+v.ID, &back)
	if back.State != string(stateFailed) {
		t.Fatalf("recovered aborted run is %q, want failed", back.State)
	}
}

// An interrupted run that cannot be rebuilt — its scenario no longer
// materializes, or its identity record carries none (a log from before
// scenarios were recorded) — must not fail the whole boot. It recovers
// terminal-failed, queryable, with the reason in its status.
func TestDurableUnknownFlowUnresumable(t *testing.T) {
	dir := t.TempDir()
	runs := filepath.Join(dir, "runs")
	writeMeta(t, runs, storage.RunMeta{ID: "r-0001", Flow: "nope", User: "x"})
	writeMeta(t, runs, storage.RunMeta{ID: "r-0002", Flow: "scenario:gone", User: "x",
		Scenario: []byte(`{"name":"gone"}`)})
	s, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatalf("New over unresumable WALs must not fail boot: %v", err)
	}
	for id, want := range map[string]string{
		"r-0001": "cannot resume: scenario: ",
		"r-0002": "cannot resume: scenario: ",
	} {
		rec := s.record(id)
		if rec == nil {
			t.Fatalf("unresumable run %s not registered", id)
		}
		if v := rec.view(); v.State != string(stateFailed) || !strings.Contains(v.Error, want) {
			t.Fatalf("unresumable run %s is %s (error %q), want failed/%q", id, v.State, v.Error, want)
		}
	}
}

// Recovered ids must not be reissued: the seq counter continues past
// the highest id found on disk even when that run only left a meta
// record behind.
func TestDurableSeqContinues(t *testing.T) {
	dir := t.TempDir()
	writeMeta(t, filepath.Join(dir, "runs"), storage.RunMeta{ID: "r-0007", Flow: "scenario:svc-tiny", User: "x"})

	s, err := New(Config{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	v := submit(t, ts.URL, svcScenario, "alice")
	if v.ID != "r-0008" {
		t.Fatalf("first submission after recovery got id %s, want r-0008", v.ID)
	}
	waitTerminal(t, ts.URL, v.ID)
}

// TestDurableVerifyAcrossRunEnd: verify=1 requests racing a durable
// run's end, when the run closes its WAL, each get one of two answers
// and never a failure: still running while the run commits, verified
// from the replayed log after.
func TestDurableVerifyAcrossRunEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, DataDir: t.TempDir()})
	v := submit(t, ts.URL, corpus(t, "slow-chain"), "alice")
	done := s.record(v.ID).done
	url := ts.URL + "/v1/runs/" + v.ID + "/provenance?inst=Seed:1&verify=1"
	verify := func() error {
		resp, err := http.Get(url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var view provenanceView
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			return err
		}
		if c := view.Chain; c == nil || !c.Verified && !strings.HasPrefix(c.Error, "still running") {
			return fmt.Errorf("chain verdict %+v, want verified or still running", view.Chain)
		}
		return nil
	}
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for finished := false; !finished; {
				select {
				case <-done:
					finished = true
				default:
				}
				if err := verify(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
