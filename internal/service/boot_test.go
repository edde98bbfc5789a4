package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

// frameEnds returns where each well-framed frame of a log's bytes ends,
// reading only the frame headers.
func frameEnds(b []byte) []int {
	var ends []int
	for off := 0; off+8 <= len(b); {
		off += 8 + int(binary.LittleEndian.Uint32(b[off:]))
		if off > len(b) {
			break
		}
		ends = append(ends, off)
	}
	return ends
}

// recoveredView is how a boot that reads every log whole with
// RecoverRun lists a log that reads back finished, the file's id being
// file: the previous boot's rule, kept here as the oracle the ends
// reader is held to.
func recoveredView(file string, rc *storage.Recovered) runView {
	v := runView{ID: file, State: string(stateSucceeded)}
	if rc.Meta != nil {
		v.Flow, v.User = rc.Meta.Flow, rc.Meta.User
		if rc.Meta.ID != "" {
			v.ID = rc.Meta.ID
		}
	}
	n := len(rc.Events)
	switch {
	case rc.Error != "":
		v.State, v.Error = string(stateFailed), rc.Error
	case n == 0:
		v.State = string(stateFailed)
	default:
		fin := rc.Events[n-1]
		v.TasksRun = fin.Committed
		if fin.Failed > 0 || fin.Skipped > 0 || fin.Committed < fin.Units {
			v.State = string(stateFailed)
		}
	}
	return v
}

// bootLog boots a server over a data dir holding only data as
// runs/r-0001.wal and returns the run it lists, once the run is
// terminal, with its elapsed time cleared; listed is false when it
// lists none. atBoot reports that boot registered the run terminal
// rather than resuming it: registerFinished leaves a record's start
// time zero and resumeRun sets it, so a resumed run that ends quickly
// is not mistaken for a terminal one.
func bootLog(t *testing.T, data []byte) (v runView, listed, atBoot bool) {
	t.Helper()
	dir := t.TempDir()
	runs := filepath.Join(dir, "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(runs, "r-0001.wal"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(10 * time.Second)
	s.mu.Lock()
	var rec *runRecord
	for _, r := range s.runs {
		rec = r
	}
	n := len(s.runs)
	s.mu.Unlock()
	if n > 1 {
		t.Fatalf("one log booted %d runs", n)
	}
	if rec == nil {
		return runView{}, false, false
	}
	atBoot = rec.started.IsZero()
	<-rec.done
	v = rec.view()
	v.ElapsedMS = 0
	return v, true, atBoot
}

// TestDurableBootEndsSweep: boot lists a log that ends its run from the
// log's two ends alone (storage.ReadEnds) and reads any other log
// whole. Over a durable quickstart WAL, a durable slow-chain WAL and
// the two committed quickstart fixtures:
//
//   - at every byte cut, ReadEnds reads the finished run RecoverRun
//     reads back, or, like it, none;
//   - at every record boundary and at one torn cut inside every frame,
//     a booted server lists what a boot that reads every log with
//     RecoverRun lists: a finished log's run at once, with the same id,
//     flow, user, state, tasks_run and error; an interrupted log's run
//     resumed, ending as the uncut log's run — or, for the parent
//     fixture's cuts that hold an event, failed for the chain digests
//     that log lacks; no run for a log cut before its identity record.
func TestDurableBootEndsSweep(t *testing.T) {
	logs := map[string][]byte{}
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 2, DataDir: dir})
	for _, name := range []string{"quickstart", "slow-chain"} {
		v := submit(t, ts.URL, corpus(t, name), "alice")
		if got := waitTerminal(t, ts.URL, v.ID); got.State != string(stateSucceeded) {
			t.Fatalf("%s ended %+v, want succeeded", name, got)
		}
		b, err := os.ReadFile(filepath.Join(dir, "runs", v.ID+".wal"))
		if err != nil {
			t.Fatal(err)
		}
		logs[name] = b
	}
	if forced, err := s.Shutdown(10 * time.Second); err != nil || forced {
		t.Fatalf("Shutdown = (forced %v, err %v)", forced, err)
	}
	for name, path := range map[string]string{
		"fixture":        filepath.Join("testdata", "quickstart.wal"),
		"parent fixture": filepath.Join("..", "storage", "testdata", "quickstart.wal"),
	} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		logs[name] = b
	}

	for name, full := range logs {
		ends := frameEnds(full)
		if len(ends) < 4 || ends[len(ends)-1] != len(full) {
			t.Fatalf("%s: %d bytes frame as %v", name, len(full), ends)
		}
		// Every byte cut, through the two readers.
		path := filepath.Join(t.TempDir(), "r-0001.wal")
		if err := os.WriteFile(path, full, 0o644); err != nil {
			t.Fatal(err)
		}
		byRecords := map[int]*storage.Ends{}
		for cut := len(full); cut >= 0; cut-- {
			if err := os.Truncate(path, int64(cut)); err != nil {
				t.Fatal(err)
			}
			l, err := storage.OpenReadOnly(path)
			if err != nil {
				t.Fatal(err)
			}
			got, err := storage.ReadEnds(l)
			if err != nil {
				t.Fatalf("%s cut at %d: ReadEnds: %v", name, cut, err)
			}
			want, ok := byRecords[l.Records()]
			if !ok {
				rc, err := storage.RecoverRun(l)
				if err != nil {
					t.Fatalf("%s cut at %d: RecoverRun: %v", name, cut, err)
				}
				want = rc.Ends()
				byRecords[l.Records()] = want
			}
			l.Close()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s cut at %d of %d: ReadEnds reads %+v, RecoverRun %+v", name, cut, len(full), got, want)
			}
		}

		// Record boundaries and torn cuts, through a booted server.
		uncut, listed, atBoot := bootLog(t, full)
		if !listed || !atBoot || uncut.State != string(stateSucceeded) {
			t.Fatalf("%s: the uncut log booted %+v (listed %v, at boot %v), want succeeded at boot", name, uncut, listed, atBoot)
		}
		cuts := []int{0}
		for i, end := range ends {
			start := 0
			if i > 0 {
				start = ends[i-1]
			}
			cuts = append(cuts, start+(end-start)/2, end)
		}
		for _, cut := range cuts {
			data := full[:cut]
			rc := recoverBytes(t, data)
			got, listed, atBoot := bootLog(t, data)
			switch {
			case rc.Finished:
				if want := recoveredView("r-0001", rc); !atBoot || got != want {
					t.Fatalf("%s cut at %d: booted %+v (at boot %v), want %+v at boot", name, cut, got, atBoot, want)
				}
			case rc.Meta == nil:
				if listed {
					t.Fatalf("%s cut at %d: a log without its identity record booted %+v", name, cut, got)
				}
			case name == "parent fixture" && len(rc.Events) > 0:
				if atBoot || got.State != string(stateFailed) || !strings.Contains(got.Error, "carries no chain digests") {
					t.Fatalf("%s cut at %d: the digest-less interrupted log booted %+v (at boot %v), want its resume refused", name, cut, got, atBoot)
				}
			case atBoot || got != uncut:
				t.Fatalf("%s cut at %d: the interrupted log booted %+v (at boot %v), want it resumed to %+v", name, cut, got, atBoot, uncut)
			}
		}
	}
}

// TestDurableBusyBootKeepsRunResumable: an interrupted run that a busy
// engine refuses at boot ends failed, but its log keeps the prefix it
// logged — its trace answers that prefix — and the next boot resumes
// it to success with the whole trace. Two slow-chain logs, each cut
// after its fourth record, boot on an engine that runs one run at a
// time and queues none, so the second resumed run is refused.
func TestDurableBusyBootKeepsRunResumable(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "scenarios", "golden", "slow-chain.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{Workers: 2, DataDir: dir})
	var ids []string
	for _, user := range []string{"alice", "bob"} {
		v := submit(t, ts1.URL, corpus(t, "slow-chain"), user)
		if got := waitTerminal(t, ts1.URL, v.ID); got.State != string(stateSucceeded) {
			t.Fatalf("run %s ended %+v, want succeeded", v.ID, got)
		}
		ids = append(ids, v.ID)
	}
	if forced, err := s1.Shutdown(5 * time.Second); err != nil || forced {
		t.Fatalf("Shutdown = (forced %v, err %v)", forced, err)
	}
	for _, id := range ids {
		rewriteLog(t, filepath.Join(dir, "runs", id+".wal"), func(recs [][]byte) [][]byte { return recs[:4] })
	}

	busy, err := New(Config{Workers: 2, DataDir: dir, MaxRuns: 1, MaxQueue: 0})
	if err != nil {
		t.Fatal(err)
	}
	refused := ""
	for _, id := range ids {
		rec := busy.record(id)
		<-rec.done
		switch v := rec.view(); {
		case v.State == string(stateFailed) && strings.Contains(v.Error, "engine is busy"):
			refused = id
		case v.State != string(stateSucceeded):
			t.Fatalf("run %s booted %+v on the busy engine, want succeeded or refused", id, v)
		}
	}
	if refused == "" {
		t.Fatal("the busy engine refused neither resumed run")
	}
	prefix := golden[:bytes.IndexByte(golden, '\n')+1]
	if code, body := serve(busy, "/v1/runs/"+refused+"/trace"); code != http.StatusOK || !bytes.Equal(body, prefix) {
		t.Fatalf("trace of the refused run: %d\n%s\nwant its logged prefix\n%s", code, body, prefix)
	}
	if forced, err := busy.Shutdown(5 * time.Second); err != nil || forced {
		t.Fatalf("Shutdown = (forced %v, err %v)", forced, err)
	}

	s3, err := New(Config{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Shutdown(5 * time.Second)
	rec := s3.record(refused)
	<-rec.done
	if v := rec.view(); v.State != string(stateSucceeded) || v.TasksRun != 3 {
		t.Fatalf("the refused run booted again as %+v, want resumed to success with 3 tasks", v)
	}
	if code, body := serve(s3, "/v1/runs/"+refused+"/trace"); code != http.StatusOK || !bytes.Equal(body, golden) {
		t.Fatalf("trace of the resumed run: %d\n%s\nwant the golden\n%s", code, body, golden)
	}
}

// recoverBytes recovers a log from its bytes.
func recoverBytes(t *testing.T, data []byte) *storage.Recovered {
	t.Helper()
	path := filepath.Join(t.TempDir(), "r-0001.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return recoverFile(t, path)
}

// TestDurableTraceAcrossFinish: trace readers of a durable run that
// attach before, during and after its finish, when the run drops its
// event log and later readers read its WAL, each read the whole trace,
// byte for byte the golden.
func TestDurableTraceAcrossFinish(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "scenarios", "golden", "slow-chain.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 2, DataDir: t.TempDir()})
	v := submit(t, ts.URL, corpus(t, "slow-chain"), "alice")
	done := s.record(v.ID).done
	read := func() error {
		code, body := serve(s, "/v1/runs/"+v.ID+"/trace")
		if code != http.StatusOK || !bytes.Equal(body, golden) {
			return fmt.Errorf("trace read answered %d:\n%s\nwant the golden:\n%s", code, body, golden)
		}
		return nil
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for finished := false; !finished; {
				select {
				case <-done:
					finished = true
				default:
				}
				if err := read(); err != nil {
					t.Error(err)
					return
				}
			}
			for i := 0; i < 3; i++ {
				if err := read(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDurableMetricsAfterRestart: /metrics counts what this process
// observed. A booted server folds nothing its logs hold: a finished
// run adds nothing, and a resumed run adds only the suffix it runs —
// its RunFinished and the units it commits after its last restored one.
func TestDurableMetricsAfterRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{Workers: 1, DataDir: dir})
	done := submit(t, ts1.URL, corpus(t, "quickstart"), "alice")
	cut := submit(t, ts1.URL, corpus(t, "quickstart"), "bob")
	for _, id := range []string{done.ID, cut.ID} {
		if v := waitTerminal(t, ts1.URL, id); v.State != string(stateSucceeded) || v.TasksRun != 4 {
			t.Fatalf("run %s ended %+v, want succeeded with 4 tasks", id, v)
		}
	}
	if forced, err := s1.Shutdown(5 * time.Second); err != nil || forced {
		t.Fatalf("Shutdown = (forced %v, err %v)", forced, err)
	}
	// Leave the second run interrupted after its second committed unit.
	path := filepath.Join(dir, "runs", cut.ID+".wal")
	rewriteLog(t, path, func(recs [][]byte) [][]byte {
		for i, n := 0, 0; i < len(recs); i++ {
			if bytes.Contains(recs[i], []byte(`"UnitCommitted"`)) {
				if n++; n == 2 {
					return recs[:i+1]
				}
			}
		}
		t.Fatal("the log commits fewer than 2 units")
		return nil
	})
	restored := len(recoverFile(t, path).Commits)

	s2, ts2 := newTestServer(t, Config{Workers: 1, DataDir: dir})
	if v := waitTerminal(t, ts2.URL, cut.ID); v.State != string(stateSucceeded) || v.TasksRun != 4 {
		t.Fatalf("resumed run ended %+v, want succeeded with 4 tasks", v)
	}
	<-s2.record(cut.ID).done
	_, body := serve(s2, "/metrics")
	for _, want := range []string{
		"flow_runs_total 1\n",
		"flow_units_planned_total 0\n",
		fmt.Sprintf("flow_units_committed_total %d\n", 4-restored),
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("metrics after the restart lack %q (%d units restored):\n%s", want, restored, body)
		}
	}
}

// failingLog is a run log whose every append fails, as on a full disk.
type failingLog struct{ storage.MemLog }

func (*failingLog) Append([]byte) error { return errors.New("no space left on device") }

// TestDurableWALFailureKeepsCopies: a durable run whose WAL write failed
// may have a log that does not hold its trace or commits, so it keeps
// its event log and graph: it ends failed with the write error, and
// its trace and provenance still answer from memory.
func TestDurableWALFailureKeepsCopies(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	doc := compact(t, corpus(t, "quickstart"))
	world, flowName, opts, err := materialize(doc)
	if err != nil {
		t.Fatal(err)
	}
	l := &failingLog{}
	ctx, cancel := context.WithCancel(context.Background())
	rec := &runRecord{id: "r-0001", seq: 1, flowName: flowName, user: "alice",
		cancel: cancel, done: make(chan struct{}), state: stateRunning, started: time.Now(),
		log: newEventLog(), prov: world.DB().Graph(),
		wal: storage.NewRunWAL(l), walLog: l, logPath: filepath.Join(t.TempDir(), "r-0001.wal")}
	s.mu.Lock()
	s.runs[rec.id] = rec
	s.mu.Unlock()
	s.launch(ctx, rec, world, opts)
	<-rec.done
	if v := rec.view(); v.State != string(stateFailed) || !strings.Contains(v.Error, "no space left on device") {
		t.Fatalf("run with a failing WAL ended %+v, want failed with the write error", v)
	}
	rec.mu.Lock()
	kept := rec.log != nil && rec.prov != nil
	rec.mu.Unlock()
	if !kept {
		t.Fatal("the run released its event log or graph although its WAL failed")
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "scenarios", "golden", "quickstart.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if code, body := serve(s, "/v1/runs/r-0001/trace"); code != http.StatusOK || !bytes.Equal(body, golden) {
		t.Fatalf("trace of the run: %d\n%s\nwant the golden\n%s", code, body, golden)
	}
	if code, body := serve(s, "/v1/runs/r-0001/provenance?inst=Performance:8"); code != http.StatusOK {
		t.Fatalf("provenance of the run: %d %s", code, body)
	}
}
