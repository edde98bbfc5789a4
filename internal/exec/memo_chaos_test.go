package exec

import (
	"strings"
	"testing"
	"time"

	"repro/internal/datastore"
	"repro/internal/faults"
	"repro/internal/history"
	"repro/internal/memo"
)

// Chaos × memo matrix: the cache must stay correct when runs fail.
// Three poisoning avenues are pinned shut — changed inputs served
// stale, failed/timed-out/skipped results cached, retried units caching
// a non-final attempt — by running fault injection against warm and
// cold caches. These run under -race in CI's chaos job.

func TestMemoChaosChangedInputIsNeverServedStale(t *testing.T) {
	r, o := memoRig(t)
	f, perf := r.perfFlow(t)
	cold, err := r.run(f, o)
	if err != nil {
		t.Fatal(err)
	}
	coldPerf, _ := cold.One(perf)
	coldData, _ := r.store.Get(r.db.Get(coldPerf).Data)

	// Change one input: different stimuli. Everything upstream of the
	// simulation is untouched and may hit; the simulation must not.
	stimN, _ := f.Node(perf).Dep("Stimuli")
	if err := f.Bind(stimN, r.ids["stim2"]); err != nil {
		t.Fatal(err)
	}
	oWarm, m := counted(o)
	res, err := r.run(f, oWarm)
	if err != nil {
		t.Fatal(err)
	}
	if hits := m.Snapshot().CacheHits; hits != 3 { // netlist, models, circuit — not the sim
		t.Errorf("hits = %d, want 3 (the simulation's input changed)", hits)
	}
	pid, _ := res.One(perf)
	data, _ := r.store.Get(r.db.Get(pid).Data)
	if string(data) == string(coldData) {
		t.Error("changed stimuli produced the cold artifact: stale cache serve")
	}
	if !strings.Contains(string(data), "stimuli walk") && !strings.Contains(string(data), "sample 1") {
		t.Errorf("new-stimuli artifact implausible: %.120q", string(data))
	}
}

func TestMemoChaosFailedRunCachesNothing(t *testing.T) {
	// Every tool site fails permanently: nothing commits, so nothing
	// may be published — a poisoned result must never outlive its run.
	store := datastore.NewStore()
	cache := memo.New(0)
	r := newRigStore(t, nil, store)
	inj := faults.New(3, faults.Config{PermanentRate: 1})
	inj.Instrument(r.engine.reg)
	f, _ := r.perfFlow(t)
	if _, err := r.run(f, RunOptions{Memo: cache}); err == nil {
		t.Fatal("fully faulted run should fail")
	}
	if n := cache.Len(); n != 0 {
		t.Fatalf("failed run published %d cache entries", n)
	}

	// A healthy engine sharing the cache gets no hits (nothing was
	// cached) and afterwards has published the real results.
	r2 := newRigStore(t, nil, store)
	f2, perf2 := r2.perfFlow(t)
	o, m := counted(RunOptions{Memo: cache})
	res, err := r2.run(f2, o)
	if err != nil {
		t.Fatal(err)
	}
	if hits := m.Snapshot().CacheHits; hits != 0 {
		t.Errorf("healthy run hit %d entries published by a failed run", hits)
	}
	pid, _ := res.One(perf2)
	data, _ := r2.store.Get(r2.db.Get(pid).Data)
	if !strings.Contains(string(data), "sample 2 cout=1 sum=1") {
		t.Errorf("artifact wrong: %.120q", string(data))
	}
	if cache.Len() != 4 {
		t.Errorf("healthy run published %d entries, want 4", cache.Len())
	}
}

func TestMemoChaosTimedOutRunCachesNothing(t *testing.T) {
	// Hanging tools cut off by the task deadline must not publish.
	r, o := memoRig(t)
	inj := faults.New(5, faults.Config{HangRate: 1, HangLimit: 5 * time.Second})
	inj.Instrument(r.engine.reg)
	o.TaskTimeout = ptr(10 * time.Millisecond)
	f, _ := r.perfFlow(t)
	if _, err := r.run(f, o); err == nil {
		t.Fatal("fully hung run should fail")
	}
	if n := o.Memo.Len(); n != 0 {
		t.Fatalf("timed-out run published %d cache entries", n)
	}
}

func TestMemoChaosSkippedUnitsNeverCached(t *testing.T) {
	// ContinueOnError: a composite fails its consistency check, its
	// dependent is skipped. Only the units that actually committed may
	// publish.
	r, o := memoRig(t)
	o.Policy = ptr(ContinueOnError)
	f, perf := r.perfFlow(t)
	cctN, _ := f.Node(perf).Dep("Circuit")
	dmN, _ := f.Node(cctN).Dep("DeviceModels")
	// Rebind DeviceModels to a garbage artifact: the Circuit composite's
	// check fails, Performance is skipped, the Netlist still commits.
	bad, err := r.db.Record(history.Instance{Type: "DeviceModels", User: "rig",
		Tool: r.ids["dmEd"], Data: r.store.Put([]byte("garbage"))})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Bind(dmN, bad.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := r.run(f, o); err == nil {
		t.Fatal("run with failing composite should report the failure")
	}
	if n := o.Memo.Len(); n != 1 { // exactly the committed Netlist unit
		t.Fatalf("cache holds %d entries after 1 committed unit", n)
	}
	if s := o.Memo.Stats(); s.Puts != 1 {
		t.Fatalf("puts = %d, want 1 (failed and skipped units must not publish)", s.Puts)
	}
}

func TestMemoChaosRetriedUnitCachesOnlyFinalResult(t *testing.T) {
	// Transient faults with retries: the run converges to clean results,
	// and what lands in the cache is the final (successful) output — a
	// warm rig reproduces the clean artifact without any tool runs.
	store := datastore.NewStore()
	cache := memo.New(0)
	r := newRigStore(t, nil, store)
	inj := faults.New(99, faults.Config{TransientRate: 1, TransientRuns: 1})
	inj.Instrument(r.engine.reg)
	f, _ := r.perfFlow(t)
	o, m := counted(RunOptions{Memo: cache, Retry: &RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Microsecond, Seed: 7}})
	if _, err := r.run(f, o); err != nil {
		t.Fatalf("retried run: %v", err)
	}
	if m.Snapshot().Retried == 0 {
		t.Fatal("injector produced no retries; the assertion below would be vacuous")
	}
	if cache.Len() != 4 {
		t.Fatalf("retried run published %d entries, want 4", cache.Len())
	}

	warm := newRigStore(t, nil, store)
	fWarm, perfWarm := warm.perfFlow(t)
	oWarm, mWarm := counted(RunOptions{Memo: cache})
	wres, err := warm.run(fWarm, oWarm)
	if err != nil {
		t.Fatal(err)
	}
	if hits := mWarm.Snapshot().CacheHits; hits != 4 {
		t.Errorf("warm hits = %d, want 4", hits)
	}
	pid, _ := wres.One(perfWarm)
	data, _ := warm.store.Get(warm.db.Get(pid).Data)
	if !strings.Contains(string(data), "sample 2 cout=1 sum=1") {
		t.Errorf("cached final result wrong: %.120q", string(data))
	}
}
