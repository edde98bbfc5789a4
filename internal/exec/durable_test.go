package exec

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datastore"
	"repro/internal/faults"
	"repro/internal/flow"
	"repro/internal/history"
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

// walDigests returns the chain digest each of a log's records carries
// ("" for records without one), in log order.
func walDigests(t *testing.T, l storage.Log) []string {
	t.Helper()
	recs, err := l.Committed()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(recs))
	for i, raw := range recs {
		var rec storage.Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatalf("undecodable WAL record: %v", err)
		}
		out[i] = rec.Digest
	}
	return out
}

// TestKillAndResume is the crash-recovery acceptance property, on one
// worker and on four and for every possible kill point in the WAL
// stream: a run killed after N durable records resumes executing only
// the remaining units, the resumed run's fresh events are exactly the
// golden stream minus the recovered prefix, the final WAL holds the
// full golden stream with the golden chain digests, and the recorded
// history is byte-identical to an uninterrupted run's.
func TestKillAndResume(t *testing.T) {
	fixed := time.Date(1993, 6, 14, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return fixed }
	ctx := context.Background()

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			workerRig := func() *rig {
				r := newRigClock(t, clock)
				r.engine.SetWorkers(workers)
				return r
			}
			// Golden: one uninterrupted durable run.
			gold := workerRig()
			fG, _ := gold.perfFlow(t)
			bufG := &trace.Buffer{}
			goldLog := storage.NewMemLog()
			goldWAL := storage.NewRunWAL(goldLog)
			if _, err := gold.engine.RunFlowOptions(ctx, fG,
				&RunOptions{Tracer: bufG, WAL: goldWAL}); err != nil {
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
			goldDigests := walDigests(t, goldLog)
			for i, ev := range golden {
				logged := ev.Kind == trace.KindPlanBuilt || ev.Kind == trace.KindUnitCommitted
				if (goldDigests[i] != "") != logged {
					t.Fatalf("golden WAL record %d (%s) carries digest %q", i, ev.Kind, goldDigests[i])
				}
			}

			totalUnits := 0
			for _, ev := range golden {
				if ev.Kind == trace.KindUnitCommitted {
					totalUnits++
				}
			}

			for killAt := 0; killAt < len(goldRecs); killAt++ {
				// Victim: a fresh world killed after killAt durable records.
				victim := workerRig()
				fV, _ := victim.perfFlow(t)
				kl := &killableLog{MemLog: storage.NewMemLog(), killAt: killAt}
				vWAL := storage.NewRunWAL(kl)
				if _, err := victim.engine.RunFlowOptions(ctx, fV,
					&RunOptions{WAL: vWAL}); err != nil {
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
				resumed := workerRig()
				fR, _ := resumed.perfFlow(t)
				bufR := &trace.Buffer{}
				rWAL := storage.NewRunWAL(kl.MemLog)
				res, err := resumed.engine.RunFlowOptions(ctx, fR,
					&RunOptions{Tracer: bufR, WAL: rWAL, Resume: rec})
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
				if got := walDigests(t, kl.MemLog); !reflect.DeepEqual(got, goldDigests) {
					t.Fatalf("killAt=%d final WAL digests diverge from golden:\n got %q\nwant %q", killAt, got, goldDigests)
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
// Both worlds run on one frozen clock, so their imports match the
// logged PlanBuilt digest and the check that fires is the flow's.
func TestResumeRejectsMismatchedLog(t *testing.T) {
	ctx := context.Background()
	frozen := func() time.Time { return time.Date(1993, 6, 14, 12, 0, 0, 0, time.UTC) }
	victim := newRigClock(t, frozen)
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
	other := newRigClock(t, frozen)
	f := other.chainFlow(t)
	_, err = other.engine.RunFlowOptions(ctx, f, &RunOptions{Resume: rec, Tracer: &trace.Buffer{}})
	if err == nil || !strings.Contains(err.Error(), "log does not match the flow") || strings.Contains(err.Error(), "imports") {
		t.Fatalf("resuming a foreign log: %v; want a plan or ID mismatch", err)
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

// rewriteArtifact returns a copy of l's committed records in which the
// payload of the given unit's UnitCommitted record carries different
// artifact bytes — a tamper the log's own framing cannot see.
func rewriteArtifact(t *testing.T, l storage.Log, unit int) *storage.MemLog {
	t.Helper()
	recs, err := l.Committed()
	if err != nil {
		t.Fatal(err)
	}
	out := storage.NewMemLog()
	hit := false
	for _, raw := range recs {
		var rec storage.Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Commit != nil && rec.Commit.Unit == unit {
			for typ, b := range rec.Commit.Outputs {
				rec.Commit.Outputs[typ] = append(b, " (rewritten)"...)
			}
			if raw, err = json.Marshal(rec); err != nil {
				t.Fatal(err)
			}
			hit = true
		}
		if err := out.Append(raw); err != nil {
			t.Fatal(err)
		}
	}
	if !hit {
		t.Fatalf("log has no commit record for unit %d", unit)
	}
	if err := out.Sync(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestResumeRefusesTamperedLog: an interrupted log whose restored
// prefix has one artifact rewritten fails the resume at that unit, and
// nothing dispatches — although two units remain, one of which reads
// the rewritten artifact, no tool receives a restored artifact before
// its digest matched. A world whose imports differ from the logged
// ones fails before anything is restored. The same log untampered
// resumes and runs only the remaining units.
func TestResumeRefusesTamperedLog(t *testing.T) {
	ctx := context.Background()
	frozen := func() time.Time { return time.Date(1993, 6, 14, 12, 0, 0, 0, time.UTC) }
	victim := newRigClock(t, frozen)
	fV, _ := victim.perfFlow(t)
	ml := storage.NewMemLog()
	w := storage.NewRunWAL(ml)
	if _, err := victim.engine.RunFlowOptions(ctx, fV, &RunOptions{WAL: w}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Cut the log after unit 1's commit: units 2 and 3 remain.
	cut := -1
	for i, ev := range walEvents(t, ml) {
		if ev.Kind == trace.KindUnitCommitted && ev.Unit == 1 {
			cut = i + 2 // the identity record precedes the events
		}
	}
	if err := ml.Rewind(cut); err != nil {
		t.Fatal(err)
	}
	later := func() time.Time { return frozen().Add(time.Hour) }
	for _, tc := range []struct {
		name  string
		log   *storage.MemLog
		clock func() time.Time
		err   string
	}{
		{"untampered", ml, frozen, ""},
		{"unit 1 rewritten", rewriteArtifact(t, ml, 1), frozen, "recovered unit 1 (EditedNetlist:"},
		{"imports differ", ml, later, "do not match the log's PlanBuilt digest"},
	} {
		rec, err := storage.RecoverRun(tc.log)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Finished || rec.PlanDigest == "" || len(rec.Commits) != 2 || rec.Commits[1].Digest == "" {
			t.Fatalf("%s: recovered finished=%v, plan digest %q, commits %+v",
				tc.name, rec.Finished, rec.PlanDigest, rec.Commits)
		}
		r := newRigClock(t, tc.clock)
		f, _ := r.perfFlow(t)
		buf := trace.NewBuffer()
		res, err := r.engine.RunFlowOptions(ctx, f, &RunOptions{Tracer: buf, Resume: rec})
		if tc.err == "" {
			if err != nil || res.Stats.UnitsRun != 2 {
				t.Fatalf("%s: resume ran %d units: %v; want the 2 remaining", tc.name, res.Stats.UnitsRun, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Fatalf("%s: resume = %v, want an error naming %q", tc.name, err, tc.err)
		}
		if res.Stats == nil || res.Stats.UnitsRun != 0 || len(buf.Events()) != 0 {
			t.Fatalf("%s: refused resume ran %v units and emitted %d events, want none", tc.name, res.Stats, len(buf.Events()))
		}
	}
}

// TestReplayFinishedLog: a finished log handed back as Resume replays
// whole: no unit dispatches, the history is byte-identical to the live
// run's — under ContinueOnError too, where the failed and skipped
// jobs' IDs are reserved again so later IDs line up — and an artifact
// rewritten in the log fails the replay at its unit. A log whose
// digests are stripped, as the previous format wrote it, replays
// unchecked.
func TestReplayFinishedLog(t *testing.T) {
	ctx := context.Background()
	frozen := func() time.Time { return time.Date(1993, 6, 14, 12, 0, 0, 0, time.UTC) }
	continueOnError := ContinueOnError
	for _, tc := range []struct {
		name   string
		flow   func(t *testing.T, r *rig) *flow.Flow
		policy *FailurePolicy
	}{
		{"clean", func(t *testing.T, r *rig) *flow.Flow { f, _ := r.perfFlow(t); return f }, nil},
		{"continue-on-error", func(t *testing.T, r *rig) *flow.Flow {
			inj := faults.New(5, faults.Config{})
			inj.SetToolConfig("LayoutEditor", faults.Config{PermanentRate: 1})
			inj.Instrument(r.engine.reg)
			f, _ := r.perfFlow(t)
			addExtractionChain(t, r, f)
			addBranch(t, r, f)
			return f
		}, &continueOnError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			live := newRigClock(t, frozen)
			ml := storage.NewMemLog()
			w := storage.NewRunWAL(ml)
			liveRes, liveErr := live.engine.RunFlowOptions(ctx, tc.flow(t, live), &RunOptions{WAL: w, Policy: tc.policy})
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if (liveErr != nil) != (tc.policy != nil) {
				t.Fatalf("live run: %v", liveErr)
			}
			if tc.policy != nil && len(liveRes.Skipped) == 0 {
				t.Fatal("the poisoned run skipped nothing: no retired job precedes a commit")
			}
			rec, err := storage.RecoverRun(ml)
			if err != nil || !rec.Finished {
				t.Fatalf("recover: %+v, %v; want a finished run", rec, err)
			}
			want := dumpHistory(t, live.db)

			replay := func(rec *storage.Recovered) (*rig, *Result, error) {
				r := newRigClock(t, frozen)
				res, err := r.engine.RunFlowOptions(ctx, tc.flow(t, r), &RunOptions{Resume: rec, Policy: tc.policy})
				return r, res, err
			}
			r, res, err := replay(rec)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if res.Stats.UnitsRun != 0 || res.TasksRun != liveRes.TasksRun {
				t.Fatalf("replay ran %d units and committed %d tasks, want 0 and %d", res.Stats.UnitsRun, res.TasksRun, liveRes.TasksRun)
			}
			if got := dumpHistory(t, r.db); !bytes.Equal(got, want) {
				t.Fatalf("replayed history diverges from the live run's:\n got %s\nwant %s", got, want)
			}

			tampered, err := storage.RecoverRun(rewriteArtifact(t, ml, 0))
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := replay(tampered); err == nil || !strings.Contains(err.Error(), "recovered unit 0 (") {
				t.Fatalf("replay of a rewritten log = %v, want an error naming unit 0", err)
			}
			tampered.PlanDigest = "" // the previous format: no digests to check
			if _, _, err := replay(tampered); err != nil {
				t.Fatalf("replay of a digest-less log: %v", err)
			}
			// A log missing its last commit record still ends in
			// RunFinished, whose count the replay must reach.
			last := 0
			for u := range rec.Commits {
				last = max(last, u)
			}
			delete(rec.Commits, last)
			if _, _, err := replay(rec); err == nil || !strings.Contains(err.Error(), "RunFinished counts") {
				t.Fatalf("replay of a log missing unit %d's commit = %v, want the RunFinished count error", last, err)
			}
		})
	}
}

// TestChainOnlyOnDurableRuns: a run without a WAL or a Resume keeps no
// provenance chain — no per-record hashing on the committer — while a
// durable run's chain covers every record of its database and is
// detached when the run ends.
func TestChainOnlyOnDurableRuns(t *testing.T) {
	ctx := context.Background()
	for _, durable := range []bool{false, true} {
		rg := newRig(t)
		f, _ := rg.perfFlow(t)
		opts := &RunOptions{Tracer: trace.NewBuffer()}
		if durable {
			w := storage.NewRunWAL(storage.NewMemLog())
			defer w.Close()
			opts.WAL = w
		}
		r, err := rg.engine.beginRun(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		r.f, r.res = f, &Result{Created: make(map[flow.NodeID][]history.ID)}
		order, err := f.Check()
		if err != nil {
			t.Fatal(err)
		}
		p, err := r.plan(order, f.Roots())
		if err != nil {
			t.Fatal(err)
		}
		err = r.execute(ctx, p)
		rg.engine.release()
		if err != nil {
			t.Fatal(err)
		}
		if !durable {
			if r.chain != nil {
				t.Fatal("an in-memory run kept a provenance chain")
			}
			continue
		}
		if r.chain == nil || r.chain.Len() != rg.db.Len() {
			t.Fatalf("durable run's chain = %v, want one record per database record (%d)", r.chain, rg.db.Len())
		}
		before := r.chain.Len()
		rg.db.MustRecord(history.Instance{Type: "Stimuli", User: "u"})
		if r.chain.Len() != before {
			t.Fatal("the run's chain still observes its database after the run")
		}
	}
}
