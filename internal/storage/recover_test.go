package storage

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/datastore"
	"repro/internal/memo"
	"repro/internal/trace"
)

// synthetic run streams, mirroring the executor's emission order:
// PlanBuilt, then per job all lifecycle events followed by that job's
// UnitCommitted events, then RunFinished.

func evt(seq int, kind trace.Kind, job, unit int) trace.Event {
	return trace.Event{Seq: seq, Kind: kind, Job: job, Combo: 0, Unit: unit}
}

// writeStream appends a meta record plus events through a RunWAL and
// barriers. commits maps unit index -> payload for UnitCommitted events.
func writeStream(t *testing.T, l Log, events []trace.Event, commits map[int]*UnitCommit) {
	t.Helper()
	w := NewRunWAL(l)
	if err := w.AppendMeta(RunMeta{ID: "r-0001", Flow: "perf", User: "alice"}); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if c := commits[ev.Unit]; ev.Kind == trace.KindUnitCommitted && c != nil {
			w.AppendCommit(ev, c)
			continue
		}
		w.AppendEvent(ev)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// twoJobStream builds: PlanBuilt, job 0 (1 unit) dispatched+started+
// committed, job 1 (1 unit) dispatched+started[+committed][+finished].
func twoJobStream(committedJob1, finished bool) ([]trace.Event, map[int]*UnitCommit) {
	seq := 0
	next := func(kind trace.Kind, job, unit int) trace.Event {
		ev := evt(seq, kind, job, unit)
		seq++
		return ev
	}
	events := []trace.Event{
		next(trace.KindPlanBuilt, -1, -1),
		next(trace.KindUnitDispatched, 0, 0),
		next(trace.KindUnitStarted, 0, 0),
	}
	ev := next(trace.KindUnitCommitted, 0, 0)
	ev.Insts = []string{"A:1"}
	events = append(events, ev,
		next(trace.KindUnitDispatched, 1, 1),
		next(trace.KindUnitStarted, 1, 1))
	commits := map[int]*UnitCommit{
		0: {Unit: 0, Insts: []string{"A:1"}, Outputs: map[string][]byte{"A": []byte("a")}, MemoKey: "memo:aa"},
	}
	if committedJob1 {
		ev := next(trace.KindUnitCommitted, 1, 1)
		ev.Insts = []string{"B:2"}
		events = append(events, ev)
		commits[1] = &UnitCommit{Unit: 1, Insts: []string{"B:2"}, Outputs: map[string][]byte{"B": []byte("b")}, MemoKey: "memo:bb"}
	}
	if finished {
		events = append(events, next(trace.KindRunFinished, -1, -1))
	}
	return events, commits
}

func TestRecoverMidJobCrash(t *testing.T) {
	l := NewMemLog()
	events, commits := twoJobStream(false, false) // job 1 dispatched, never committed
	writeStream(t, l, events, commits)
	rec, err := RecoverRun(l)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Finished {
		t.Fatal("interrupted run recovered as finished")
	}
	if rec.Meta == nil || rec.Meta.ID != "r-0001" || rec.Meta.Flow != "perf" {
		t.Fatalf("meta = %+v", rec.Meta)
	}
	// Prefix: PlanBuilt + job 0's three events. Job 1's dangling
	// lifecycle events are dropped.
	if len(rec.Events) != 4 {
		t.Fatalf("prefix has %d events, want 4: %+v", len(rec.Events), rec.Events)
	}
	if rec.NextSeq != 4 {
		t.Fatalf("NextSeq = %d, want 4", rec.NextSeq)
	}
	if len(rec.Commits) != 1 || rec.Commits[0] == nil {
		t.Fatalf("commits = %+v, want unit 0 only", rec.Commits)
	}
	if got := rec.Commits[0].Insts; !reflect.DeepEqual(got, []string{"A:1"}) {
		t.Fatalf("unit 0 insts = %v", got)
	}
	// Rewind drops the dangling suffix: meta + 4 events remain.
	if err := rec.Rewind(l); err != nil {
		t.Fatal(err)
	}
	recs, _ := l.Committed()
	if len(recs) != 5 {
		t.Fatalf("after rewind %d records, want 5", len(recs))
	}
}

func TestRecoverFinishedRun(t *testing.T) {
	l := NewMemLog()
	events, commits := twoJobStream(true, true)
	writeStream(t, l, events, commits)
	rec, err := RecoverRun(l)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Finished {
		t.Fatal("finished run not recognized")
	}
	if len(rec.Events) != len(events) {
		t.Fatalf("prefix has %d events, want all %d", len(rec.Events), len(events))
	}
	if len(rec.Commits) != 2 {
		t.Fatalf("commits = %d, want 2", len(rec.Commits))
	}

	// Replay re-feeds datastore and memo: the restart path that makes
	// the cache survive the process.
	store := datastore.NewStore()
	cache := memo.New(0)
	if err := rec.Replay(store, cache); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 2 {
		t.Fatalf("replayed store holds %d blobs, want 2", store.Len())
	}
	entry, ok := cache.Get(memo.Key("memo:aa"))
	if !ok {
		t.Fatal("memo entry for unit 0 missing after replay")
	}
	if _, ok := store.GetShared(entry.Outputs["A"]); !ok {
		t.Fatal("memo entry's blob missing from replayed store")
	}
}

func TestRecoverCompletePrefixWithoutFinish(t *testing.T) {
	// Killed after the last commit but before RunFinished: everything
	// resumes; the resumed run only has RunFinished left to emit.
	l := NewMemLog()
	events, commits := twoJobStream(true, false)
	writeStream(t, l, events, commits)
	rec, err := RecoverRun(l)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Finished {
		t.Fatal("run without RunFinished recovered as finished")
	}
	if len(rec.Events) != len(events) || len(rec.Commits) != 2 {
		t.Fatalf("prefix %d events / %d commits, want %d / 2", len(rec.Events), len(rec.Commits), len(events))
	}
}

func TestRecoverFailedBlockStopsPrefix(t *testing.T) {
	// A job block ending in UnitFailed is not resumable: the prefix
	// stops before it even though later records exist.
	seq := 0
	next := func(kind trace.Kind, job, unit int) trace.Event {
		ev := evt(seq, kind, job, unit)
		seq++
		return ev
	}
	events := []trace.Event{
		next(trace.KindPlanBuilt, -1, -1),
		next(trace.KindUnitDispatched, 0, 0),
		next(trace.KindUnitStarted, 0, 0),
		next(trace.KindUnitFailed, 0, 0),
		next(trace.KindUnitSkipped, 1, 1),
	}
	l := NewMemLog()
	writeStream(t, l, events, nil)
	rec, err := RecoverRun(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) != 1 || rec.Events[0].Kind != trace.KindPlanBuilt {
		t.Fatalf("prefix = %+v, want PlanBuilt only", rec.Events)
	}
	if len(rec.Commits) != 0 {
		t.Fatalf("failed block leaked %d commits", len(rec.Commits))
	}
}

func TestRecoverMetaOnlyAndEmpty(t *testing.T) {
	l := NewMemLog()
	rec, err := RecoverRun(l)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Meta != nil || len(rec.Events) != 0 || rec.PrefixRecords != 0 {
		t.Fatalf("empty log recovered %+v", rec)
	}

	w := NewRunWAL(l)
	if err := w.AppendMeta(RunMeta{ID: "r-0002", Flow: "wide8", User: "bob"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err = RecoverRun(l)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Meta == nil || rec.Meta.ID != "r-0002" || rec.PrefixRecords != 1 || rec.NextSeq != 0 {
		t.Fatalf("meta-only log recovered %+v", rec)
	}
}

// TestRecoverMetaScenario: the scenario document in the identity record
// survives the hand-rolled encoder and recovery byte for byte — resume
// re-materializes the run's world from exactly these bytes.
func TestRecoverMetaScenario(t *testing.T) {
	doc := []byte(`{"name":"qé","generate":{"cells":3,"shape":"chain","seed":7}}`)
	l := NewMemLog()
	w := NewRunWAL(l)
	if err := w.AppendMeta(RunMeta{ID: "r-0003", Flow: "scenario:q", User: "carol", Scenario: doc}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverRun(l)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Meta == nil || rec.Meta.ID != "r-0003" || rec.Meta.User != "carol" {
		t.Fatalf("meta = %+v", rec.Meta)
	}
	if string(rec.Meta.Scenario) != string(doc) {
		t.Fatalf("scenario = %s, want %s", rec.Meta.Scenario, doc)
	}
}

// TestRecoverTornFileRun is the end-to-end torn-tail property on a real
// file: a WAL truncated mid-record recovers to the committed prefix
// with no partial unit replayed.
func TestRecoverTornFileRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r-0001.wal")
	l, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	events, commits := twoJobStream(true, true)
	writeStream(t, l, events, commits)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash: the tail of the file (inside the last records) is lost.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-10); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rec, err := RecoverRun(l2)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Finished {
		t.Fatal("torn run recovered as finished")
	}
	// Whatever the cut point, every recovered commit is complete.
	for u, c := range rec.Commits {
		if len(c.Outputs) == 0 || len(c.Insts) == 0 {
			t.Fatalf("unit %d recovered with partial payload: %+v", u, c)
		}
	}
	if err := rec.Rewind(l2); err != nil {
		t.Fatal(err)
	}
	if l2.Torn() {
		t.Fatal("rewind left a torn tail")
	}
}
