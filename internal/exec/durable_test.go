package exec

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"repro/internal/datastore"
	"repro/internal/flow"
	"repro/internal/memo"
	"repro/internal/storage"
	"repro/internal/trace"
)

// killableLog models kill -9 at a precise point in the WAL stream: it
// accepts (and immediately makes durable) the first killAt records and
// silently drops everything after — exactly what survives a crash
// whose last group-commit covered record killAt. The surviving prefix
// then feeds storage.RecoverRun like any crashed log. n is guarded by
// mu: the WAL's writer appends while its syncer goroutine calls Sync.
type killableLog struct {
	*storage.MemLog
	mu     sync.Mutex
	n      int
	killAt int
}

func (l *killableLog) Append(rec []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n >= l.killAt {
		return nil // the process is dead: the write never happens
	}
	l.n++
	if err := l.MemLog.Append(rec); err != nil {
		return err
	}
	return l.MemLog.Sync() // everything before the crash point is durable
}

func (l *killableLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n >= l.killAt {
		return nil
	}
	return l.MemLog.Sync()
}

// walEvents decodes a log's committed records back into the event
// stream it persists.
func walEvents(t *testing.T, l storage.Log) []trace.Event {
	t.Helper()
	recs, err := l.Committed()
	if err != nil {
		t.Fatal(err)
	}
	var out []trace.Event
	for _, raw := range recs {
		var rec storage.Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatalf("undecodable WAL record: %v", err)
		}
		if rec.Event != nil {
			out = append(out, *rec.Event)
		}
	}
	return out
}

// TestKillAndResume is the crash-recovery acceptance property, for both
// schedulers and for every possible kill point in the WAL stream: a run
// killed after N durable records resumes executing only the remaining
// units, the resumed run's fresh events are exactly the golden stream
// minus the recovered prefix, the final WAL holds the full golden
// stream, and the recorded history is byte-identical to an
// uninterrupted run's.
func TestKillAndResume(t *testing.T) {
	fixed := time.Date(1993, 6, 14, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return fixed }
	ctx := context.Background()

	for _, sched := range []Scheduler{Dataflow, Barrier} {
		sched := sched
		t.Run(sched.String(), func(t *testing.T) {
			// Golden: one uninterrupted durable run.
			gold := newRigClock(t, clock)
			fG, _ := gold.perfFlow(t)
			bufG := &trace.Buffer{}
			goldLog := storage.NewMemLog()
			goldWAL := storage.NewRunWAL(goldLog)
			if _, err := gold.engine.RunFlowOptions(ctx, fG,
				&RunOptions{Tracer: bufG, WAL: goldWAL, Scheduler: &sched}); err != nil {
				t.Fatalf("golden run: %v", err)
			}
			if err := goldWAL.Close(); err != nil {
				t.Fatalf("golden WAL close: %v", err)
			}
			golden := bufG.Events()
			goldenHistory := dumpHistory(t, gold.db)
			goldRecs, err := goldLog.Committed()
			if err != nil {
				t.Fatal(err)
			}
			if len(goldRecs) != len(golden) {
				t.Fatalf("golden WAL has %d records for %d events", len(goldRecs), len(golden))
			}

			totalUnits := 0
			for _, ev := range golden {
				if ev.Kind == trace.KindUnitCommitted {
					totalUnits++
				}
			}

			for killAt := 0; killAt < len(goldRecs); killAt++ {
				// Victim: a fresh world killed after killAt durable records.
				victim := newRigClock(t, clock)
				fV, _ := victim.perfFlow(t)
				kl := &killableLog{MemLog: storage.NewMemLog(), killAt: killAt}
				vWAL := storage.NewRunWAL(kl)
				if _, err := victim.engine.RunFlowOptions(ctx, fV,
					&RunOptions{WAL: vWAL, Scheduler: &sched}); err != nil {
					t.Fatalf("killAt=%d victim run: %v", killAt, err)
				}
				_ = vWAL.Close()

				rec, err := storage.RecoverRun(kl.MemLog)
				if err != nil {
					t.Fatalf("killAt=%d recover: %v", killAt, err)
				}
				if rec.Finished {
					t.Fatalf("killAt=%d (of %d) recovered as finished", killAt, len(goldRecs))
				}
				// The recovered prefix is a literal prefix of the golden
				// masked stream.
				wantPrefix := trace.MaskedJSONL(golden[:len(rec.Events)])
				if got := trace.MaskedJSONL(rec.Events); !bytes.Equal(got, wantPrefix) {
					t.Fatalf("killAt=%d recovered prefix diverges from golden:\n got %s\nwant %s", killAt, got, wantPrefix)
				}

				// Resume: fresh session (deterministic bootstrap), same
				// flow, the rewound log, the recovered prefix.
				if err := rec.Rewind(kl.MemLog); err != nil {
					t.Fatalf("killAt=%d rewind: %v", killAt, err)
				}
				resumed := newRigClock(t, clock)
				fR, _ := resumed.perfFlow(t)
				bufR := &trace.Buffer{}
				rWAL := storage.NewRunWAL(kl.MemLog)
				res, err := resumed.engine.RunFlowOptions(ctx, fR,
					&RunOptions{Tracer: bufR, WAL: rWAL, Scheduler: &sched, Resume: rec})
				if err != nil {
					t.Fatalf("killAt=%d resumed run: %v", killAt, err)
				}
				if err := rWAL.Close(); err != nil {
					t.Fatalf("killAt=%d resumed WAL close: %v", killAt, err)
				}

				// Fresh events are the golden stream minus the prefix.
				wantRest := trace.MaskedJSONL(golden[len(rec.Events):])
				if got := trace.MaskedJSONL(bufR.Events()); !bytes.Equal(got, wantRest) {
					t.Fatalf("killAt=%d resumed events diverge:\n got %s\nwant %s", killAt, got, wantRest)
				}
				// The final WAL holds the complete golden stream.
				wantAll := trace.MaskedJSONL(golden)
				if got := trace.MaskedJSONL(walEvents(t, kl.MemLog)); !bytes.Equal(got, wantAll) {
					t.Fatalf("killAt=%d final WAL diverges from golden", killAt)
				}
				// Only the units beyond the recovered prefix executed.
				if want := totalUnits - len(rec.Commits); res.Stats.UnitsRun != want {
					t.Fatalf("killAt=%d resumed run executed %d units, want %d (recovered %d of %d)",
						killAt, res.Stats.UnitsRun, want, len(rec.Commits), totalUnits)
				}
				if res.TasksRun != totalUnits {
					t.Fatalf("killAt=%d resumed run committed %d tasks, want %d", killAt, res.TasksRun, totalUnits)
				}
				// History is byte-identical to the uninterrupted run's.
				if got := dumpHistory(t, resumed.db); !bytes.Equal(got, goldenHistory) {
					t.Fatalf("killAt=%d resumed history diverges from golden", killAt)
				}
			}
		})
	}
}

// TestResumeRejectsMismatchedLog: resuming a log against a different
// flow must fail the ID verification, not commit foreign instances.
func TestResumeRejectsMismatchedLog(t *testing.T) {
	ctx := context.Background()
	victim := newRig(t)
	fV, _ := victim.perfFlow(t)
	ml := storage.NewMemLog()
	w := storage.NewRunWAL(ml)
	if _, err := victim.engine.RunFlowOptions(ctx, fV, &RunOptions{WAL: w}); err != nil {
		t.Fatal(err)
	}
	_ = w.Close()
	// Drop the RunFinished record so the log looks interrupted.
	recs, _ := ml.Committed()
	if err := ml.Rewind(len(recs) - 1); err != nil {
		t.Fatal(err)
	}
	rec, err := storage.RecoverRun(ml)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Finished || len(rec.Commits) == 0 {
		t.Fatalf("expected an interrupted prefix with commits, got finished=%v commits=%d", rec.Finished, len(rec.Commits))
	}

	// A different world: same schema, but the flow binds a different
	// netlist tool, so the committed IDs cannot match the replan.
	other := newRig(t)
	f := other.chainFlow(t)
	if _, err := other.engine.RunFlowOptions(ctx, f, &RunOptions{Resume: rec, Tracer: &trace.Buffer{}}); err == nil {
		t.Fatal("resuming a foreign log succeeded; want an ID-verification error")
	}
}

// chainFlow builds a small flow structurally different from perfFlow.
func (r *rig) chainFlow(t *testing.T) *flow.Flow {
	t.Helper()
	f := flow.New(r.s, r.db)
	net := f.MustAdd("EditedNetlist")
	if err := f.ExpandDown(net, false); err != nil {
		t.Fatal(err)
	}
	tn, _ := f.Node(net).Dep("fd")
	if err := f.Bind(tn, r.ids["netEdCopy"]); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestMemoSurvivesRestart is the memo-durability acceptance property: a
// finished run's WAL replayed into a fresh process (fresh store, fresh
// cache) makes a warm rerun hit the cache on every unit — no worker
// pool dispatch, same committed IDs.
func TestMemoSurvivesRestart(t *testing.T) {
	fixed := time.Date(1993, 6, 14, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return fixed }
	ctx := context.Background()

	// First process: a durable memoized run, then the process "dies".
	first := newRigClock(t, clock)
	f1, _ := first.perfFlow(t)
	cache1 := memo.New(0)
	ml := storage.NewMemLog()
	w := storage.NewRunWAL(ml)
	if _, err := first.engine.RunFlowOptions(ctx, f1,
		&RunOptions{WAL: w, Memo: cache1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Second process: recover the WAL, replay it into a fresh store and
	// cache, and rerun the same flow warm.
	rec, err := storage.RecoverRun(ml)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Finished {
		t.Fatal("completed run did not recover as finished")
	}
	store2 := datastore.NewStore()
	cache2 := memo.New(0)
	if err := rec.Replay(store2, cache2); err != nil {
		t.Fatal(err)
	}
	if cache2.Len() != 4 {
		t.Fatalf("replayed cache holds %d entries, want 4", cache2.Len())
	}

	second := newRigStore(t, clock, store2)
	f2, _ := second.perfFlow(t)
	res, err := second.engine.RunFlowOptions(ctx, f2, &RunOptions{Memo: cache2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHits != 4 {
		t.Fatalf("warm rerun after restart hit %d/4 units", res.Stats.CacheHits)
	}
	if got := dumpHistory(t, second.db); !bytes.Equal(got, dumpHistory(t, first.db)) {
		t.Fatal("warm rerun after restart recorded a different history")
	}
}

// TestResumeRepublishesMemo: a killed memoized run, resumed in a fresh
// process with a fresh cache, republishes the restored units' memo
// entries — the cache ends as warm as an uninterrupted run's.
func TestResumeRepublishesMemo(t *testing.T) {
	fixed := time.Date(1993, 6, 14, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return fixed }
	ctx := context.Background()

	victim := newRigClock(t, clock)
	fV, _ := victim.perfFlow(t)
	kl := &killableLog{MemLog: storage.NewMemLog(), killAt: 8} // mid-run
	w := storage.NewRunWAL(kl)
	if _, err := victim.engine.RunFlowOptions(ctx, fV,
		&RunOptions{WAL: w, Memo: memo.New(0)}); err != nil {
		t.Fatal(err)
	}
	_ = w.Close()

	rec, err := storage.RecoverRun(kl.MemLog)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Rewind(kl.MemLog); err != nil {
		t.Fatal(err)
	}
	resumed := newRigClock(t, clock)
	fR, _ := resumed.perfFlow(t)
	cacheR := memo.New(0)
	rWAL := storage.NewRunWAL(kl.MemLog)
	if _, err := resumed.engine.RunFlowOptions(ctx, fR,
		&RunOptions{WAL: rWAL, Memo: cacheR, Resume: rec}); err != nil {
		t.Fatal(err)
	}
	_ = rWAL.Close()
	if cacheR.Len() != 4 {
		t.Fatalf("resumed run's cache holds %d entries, want all 4", cacheR.Len())
	}
}
