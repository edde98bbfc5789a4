package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
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
		var c *UnitCommit
		if ev.Kind == trace.KindUnitCommitted {
			c = commits[ev.Unit]
		}
		w.Append(ev, c, "")
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
		0: {Outputs: map[string][]byte{"A": []byte("a")}, MemoKey: "memo:aa"},
	}
	if committedJob1 {
		ev := next(trace.KindUnitCommitted, 1, 1)
		ev.Insts = []string{"B:2"}
		events = append(events, ev)
		commits[1] = &UnitCommit{Outputs: map[string][]byte{"B": []byte("b")}, MemoKey: "memo:bb"}
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
	if got := rec.Commits[0].Event.Insts; !reflect.DeepEqual(got, []string{"A:1"}) {
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
	for i, c := range rec.Commits {
		if len(c.Outputs) == 0 || c.Event == nil || len(c.Event.Insts) == 0 {
			t.Fatalf("commit record %d recovered with partial payload: %+v", i, c)
		}
	}
	if err := rec.Rewind(l2); err != nil {
		t.Fatal(err)
	}
	if l2.Torn() {
		t.Fatal("rewind left a torn tail")
	}
}

// TestRecoverPreEncoderLog: a log written before events went through
// trace.AppendJSON — which carries '<', '>' and '&' raw where today's
// records escape them — still recovers, to the same run as today's
// encoding of the same events.
func TestRecoverPreEncoderLog(t *testing.T) {
	events := []trace.Event{
		{Seq: 0, Kind: trace.KindPlanBuilt, Job: -1, Combo: -1, Unit: -1, Units: 1},
		{Seq: 1, Kind: trace.KindUnitFailed, Job: 0, Combo: 0, Unit: 0, Attempt: 1, Err: "tool <x> & y failed"},
		{Seq: 2, Kind: trace.KindRunFinished, Job: -1, Combo: -1, Unit: -1, Units: 1, Failed: 1},
	}
	old := NewMemLog()
	for _, rec := range []string{
		`{"meta":{"id":"r-0001","flow":"perf","user":"alice"}}`,
		`{"event":{"seq":0,"kind":"PlanBuilt","job":-1,"combo":-1,"unit":-1,"units":1}}`,
		`{"event":{"seq":1,"kind":"UnitFailed","job":0,"combo":0,"unit":0,"attempt":1,"err":"tool <x> & y failed"}}`,
		`{"event":{"seq":2,"kind":"RunFinished","job":-1,"combo":-1,"unit":-1,"units":1,"failed":1}}`,
	} {
		if err := old.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := old.Sync(); err != nil {
		t.Fatal(err)
	}
	cur := NewMemLog()
	writeStream(t, cur, events, nil)
	recs, err := cur.Committed()
	if err != nil {
		t.Fatal(err)
	}
	if want := `"err":"tool \u003cx\u003e \u0026 y failed"`; !strings.Contains(string(recs[2]), want) {
		t.Fatalf("today's record %s does not escape as encoding/json does (%s)", recs[2], want)
	}
	for name, l := range map[string]Log{"pre-encoder": old, "current": cur} {
		rc, err := RecoverRun(l)
		if err != nil {
			t.Fatalf("%s log: %v", name, err)
		}
		if !rc.Finished || !reflect.DeepEqual(rc.Events, events) {
			t.Fatalf("%s log recovered finished=%v events %+v, want %+v", name, rc.Finished, rc.Events, events)
		}
	}
}

// TestRecoverDigests: the chain digests a PlanBuilt and each
// UnitCommitted record carry ride the record envelope — the events
// decode as before — and come back with the plan and the commits.
func TestRecoverDigests(t *testing.T) {
	events, commits := twoJobStream(true, false)
	l := NewMemLog()
	w := NewRunWAL(l)
	if err := w.AppendMeta(RunMeta{ID: "r-0001", Flow: "perf", User: "alice"}); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		var c *UnitCommit
		digest := ""
		switch ev.Kind {
		case trace.KindPlanBuilt:
			digest = "d-plan"
		case trace.KindUnitCommitted:
			c, digest = commits[ev.Unit], fmt.Sprintf("d-unit%d", ev.Unit)
		}
		w.Append(ev, c, digest)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := l.Committed()
	if err != nil {
		t.Fatal(err)
	}
	if want := `,"digest":"d-plan"}`; !strings.HasSuffix(string(recs[1]), want) {
		t.Fatalf("PlanBuilt record %s does not end with %s", recs[1], want)
	}
	rec, err := RecoverRun(l)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.Events, events) {
		t.Fatalf("events with digests recovered as %+v, want %+v", rec.Events, events)
	}
	if rec.PlanDigest != "d-plan" || len(rec.Commits) != 2 ||
		rec.Commits[0].Digest != "d-unit0" || rec.Commits[1].Digest != "d-unit1" {
		t.Fatalf("digests: plan %q, commits %+v; want d-plan, d-unit0, d-unit1", rec.PlanDigest, rec.Commits)
	}
}

// TestCommitRecordStatesEachFactOnce: a UnitCommitted record names its
// unit and instances in its event alone — the commit payload is the
// outputs and the memo key — and recovery hands each commit its
// record's event, in log order. A log written while the
// payload still repeated the unit and instances recovers the same: the
// copies are ignored, even where they disagree with the event.
func TestCommitRecordStatesEachFactOnce(t *testing.T) {
	events, commits := twoJobStream(true, true)
	cur := NewMemLog()
	writeStream(t, cur, events, commits)
	recs, err := cur.Committed()
	if err != nil {
		t.Fatal(err)
	}
	const payload = `,"commit":{"outputs":{"A":"YQ=="},"memo_key":"memo:aa"}}`
	if rec := string(recs[4]); !strings.HasSuffix(rec, payload) || !strings.Contains(rec, `"insts":["A:1"]`) {
		t.Fatalf("unit 0's commit record %s does not end with %s after an event naming A:1", rec, payload)
	}
	older := NewMemLog()
	for _, raw := range recs {
		rec := strings.Replace(string(raw), `"commit":{`, `"commit":{"unit":7,"insts":["Z:9"],`, 1)
		if err := older.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := older.Sync(); err != nil {
		t.Fatal(err)
	}
	for name, l := range map[string]Log{"current": cur, "older": older} {
		rc, err := RecoverRun(l)
		if err != nil {
			t.Fatal(err)
		}
		if len(rc.Commits) != 2 {
			t.Fatalf("%s log: commits %+v, want units 0 and 1", name, rc.Commits)
		}
		for u, insts := range map[int][]string{0: {"A:1"}, 1: {"B:2"}} {
			c := rc.Commits[u]
			if c == nil || c.Event == nil || c.Event.Kind != trace.KindUnitCommitted || c.Event.Unit != u ||
				!reflect.DeepEqual(c.Event.Insts, insts) || !reflect.DeepEqual(c.Outputs, commits[u].Outputs) {
				t.Fatalf("%s log: unit %d recovered %+v, want its UnitCommitted event naming %v", name, u, c, insts)
			}
		}
	}
}

// TestRecoverCommitsInLogOrder: Commits are the commit records in log
// order, each with its own event — a repeated record stays, for resume
// to refuse — and Replay feeds them all.
func TestRecoverCommitsInLogOrder(t *testing.T) {
	events, commits := twoJobStream(true, true)
	events = slices.Insert(events, 4, events[3]) // unit 0's UnitCommitted again
	l := NewMemLog()
	writeStream(t, l, events, commits)
	rec, err := RecoverRun(l)
	if err != nil || !rec.Finished {
		t.Fatalf("RecoverRun = %+v, %v; want a finished run", rec, err)
	}
	var units []int
	for _, c := range rec.Commits {
		units = append(units, c.Event.Unit)
	}
	if !reflect.DeepEqual(units, []int{0, 0, 1}) || rec.Commits[0].Event == rec.Commits[1].Event {
		t.Fatalf("commit records name units %v, want [0 0 1], each with its own event", units)
	}
	store := datastore.NewStore()
	if err := rec.Replay(store, nil); err != nil || store.Len() != 2 {
		t.Fatalf("replay stored %d blobs (%v), want 2", store.Len(), err)
	}
}

// TestRecoverLatePlanBuilt: a PlanBuilt after the first job block does
// not extend the prefix or replace its digest; the prefix ends before
// it.
func TestRecoverLatePlanBuilt(t *testing.T) {
	events, commits := twoJobStream(true, false)
	late := events[0]
	late.Seq = 4
	events = slices.Insert(events, 4, late)
	for i := 5; i < len(events); i++ {
		events[i].Seq = i
	}
	l := NewMemLog()
	w := NewRunWAL(l)
	if err := w.AppendMeta(RunMeta{ID: "r-0001", Flow: "perf", User: "alice"}); err != nil {
		t.Fatal(err)
	}
	for i, ev := range events {
		switch {
		case ev.Kind == trace.KindPlanBuilt:
			w.Append(ev, nil, fmt.Sprintf("d-plan%d", i))
		case ev.Kind == trace.KindUnitCommitted:
			w.Append(ev, commits[ev.Unit], "")
		default:
			w.Append(ev, nil, "")
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverRun(l)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Finished || len(rec.Events) != 4 || len(rec.Commits) != 1 || rec.PlanDigest != "d-plan0" || rec.PrefixRecords != 5 {
		t.Fatalf("recovered finished=%v, %d events, %d commits, plan digest %q, %d records; want the first job only under d-plan0",
			rec.Finished, len(rec.Events), len(rec.Commits), rec.PlanDigest, rec.PrefixRecords)
	}
}

// TestRecoverErrorRecord: a run that ended before planning logs its
// error as a terminal record, not an event, and recovers as finished
// with that error and no events.
func TestRecoverErrorRecord(t *testing.T) {
	l := NewMemLog()
	w := NewRunWAL(l)
	if err := w.AppendMeta(RunMeta{ID: "r-0004", Flow: "scenario:fanout-cap", User: "dan"}); err != nil {
		t.Fatal(err)
	}
	w.AppendError(`exec: fan-out "x" exceeds 16 combinations`)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverRun(l)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Finished || rec.Error != `exec: fan-out "x" exceeds 16 combinations` ||
		len(rec.Events) != 0 || rec.PrefixRecords != 2 {
		t.Fatalf("recovered %+v, want finished with the error, no events, 2 records", rec)
	}
}

// TestRecoverLeavesTornTail: recovery reads a torn log without
// changing it; only Rewind, on resume, cuts the tail. A read-only open
// never creates a missing log.
func TestRecoverLeavesTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r-0001.wal")
	l, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	events, commits := twoJobStream(true, true)
	writeStream(t, l, events, commits)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := OpenReadOnly(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverRun(ro)
	if err != nil || !rec.Finished || !ro.Torn() {
		t.Fatalf("RecoverRun = %+v, %v (torn %v); want a finished run with its torn tail", rec, err, ro.Torn())
	}
	if err := ro.Rewind(rec.PrefixRecords); err == nil {
		t.Fatal("Rewind through a read-only log succeeded")
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("log changed by recovery: %d bytes before, %d after (%v)", len(before), len(after), err)
	}
	if _, err := OpenReadOnly(filepath.Join(dir, "r-0002.wal")); err == nil {
		t.Fatal("OpenReadOnly opened a log that does not exist")
	}
	if _, err := os.Stat(filepath.Join(dir, "r-0002.wal")); !os.IsNotExist(err) {
		t.Fatalf("OpenReadOnly created a missing log (stat: %v)", err)
	}
}
