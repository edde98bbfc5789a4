package exec

import (
	"strings"
	"testing"

	"repro/internal/datastore"
	"repro/internal/flow"
	"repro/internal/history"
	"repro/internal/memo"
)

// Engine-level memoization tests: the derivation-keyed result cache
// (internal/memo) wired into the scheduler and the retracer. The
// invariants pinned here: a warm re-run hits on every unit and still
// mints a fresh, isomorphic derivation history; entries travel between
// engines only together with the datastore blobs they reference; and
// the cache agrees with the consistency layer about what "out of date"
// means (both are content-based).

// memoRig returns a rig and the options of a run that consults and
// feeds a fresh unbounded result cache.
func memoRig(t *testing.T) (*rig, RunOptions) {
	t.Helper()
	return newRig(t), RunOptions{Memo: memo.New(0)}
}

func TestMemoWarmRerunHitsEveryUnit(t *testing.T) {
	r, o := memoRig(t)
	f, perf := r.perfFlow(t)
	oCold, mCold := counted(o)
	cold, err := r.run(f, oCold)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if hits := mCold.Snapshot().CacheHits; hits != 0 {
		t.Errorf("cold run claimed %d cache hits", hits)
	}
	if got := o.Memo.Stats().Puts; got != 4 {
		t.Errorf("cold run published %d entries, want 4", got)
	}

	oWarm, mWarm := counted(o)
	warm, err := r.run(f, oWarm)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if hits := mWarm.Snapshot().CacheHits; hits != 4 || warm.TasksRun != 4 {
		t.Errorf("warm run: hits=%d tasks=%d, want 4/4", hits, warm.TasksRun)
	}
	assertIsomorphicRerun(t, r.db, f, cold, warm)

	// The warm artifact is the same bytes, reachable from a fresh ID.
	coldPerf, _ := cold.One(perf)
	warmPerf, _ := warm.One(perf)
	if r.db.Get(coldPerf).Data != r.db.Get(warmPerf).Data {
		t.Error("warm performance artifact differs from cold")
	}
}

// assertIsomorphicRerun checks that two runs of the same flow produced
// derivation graphs of identical shape — same node coverage, types,
// artifact content, and input wiring under the old→new instance map —
// with entirely fresh instance IDs on the second run.
func assertIsomorphicRerun(t *testing.T, db *history.DB, f *flow.Flow, a, b *Result) {
	t.Helper()
	if len(a.Created) != len(b.Created) {
		t.Fatalf("node coverage differs: %d vs %d", len(a.Created), len(b.Created))
	}
	m := make(map[history.ID]history.ID)
	for n, ids := range a.Created {
		if f.Node(n).IsBound() {
			continue // bound nodes contribute shared pre-existing instances
		}
		ids2 := b.Created[n]
		if len(ids2) != len(ids) {
			t.Fatalf("node %d: %d vs %d instances", n, len(ids), len(ids2))
		}
		for i := range ids {
			m[ids[i]] = ids2[i]
		}
	}
	mapped := func(x history.ID) history.ID {
		if y, ok := m[x]; ok {
			return y
		}
		return x // bound instances are shared, not re-minted
	}
	for old, nw := range m {
		if old == nw {
			t.Fatalf("re-run reused instance ID %s", old)
		}
		oi, ni := db.Get(old), db.Get(nw)
		if oi == nil || ni == nil {
			t.Fatalf("instance pair %s/%s not recorded", old, nw)
		}
		if oi.Type != ni.Type {
			t.Fatalf("%s -> %s: type %s vs %s", old, nw, oi.Type, ni.Type)
		}
		if oi.Data != ni.Data {
			t.Fatalf("%s -> %s: artifact content differs", old, nw)
		}
		if mapped(oi.Tool) != ni.Tool {
			t.Fatalf("%s -> %s: tool %s vs %s", old, nw, oi.Tool, ni.Tool)
		}
		if len(oi.Inputs) != len(ni.Inputs) {
			t.Fatalf("%s -> %s: input counts differ", old, nw)
		}
		for i := range oi.Inputs {
			if oi.Inputs[i].Key != ni.Inputs[i].Key ||
				mapped(oi.Inputs[i].Inst) != ni.Inputs[i].Inst {
				t.Fatalf("%s -> %s: input %d differs", old, nw, i)
			}
		}
	}
}

func TestMemoDisabledRunsEverything(t *testing.T) {
	r := newRig(t)
	f, _ := r.perfFlow(t)
	if _, err := r.engine.RunFlow(f); err != nil {
		t.Fatal(err)
	}
	o, m := counted(RunOptions{})
	if _, err := r.run(f, o); err != nil {
		t.Fatal(err)
	}
	if hits := m.Snapshot().CacheHits; hits != 0 {
		t.Errorf("no cache installed, yet %d hits", hits)
	}
}

func TestMemoSharedAcrossEngines(t *testing.T) {
	// A cache travels between engines that share a datastore: warm
	// entries published by one engine satisfy another.
	store := datastore.NewStore()
	o := RunOptions{Memo: memo.New(0)}
	r1 := newRigStore(t, nil, store)
	f1, _ := r1.perfFlow(t)
	if _, err := r1.run(f1, o); err != nil {
		t.Fatal(err)
	}

	r2 := newRigStore(t, nil, store)
	f2, perf2 := r2.perfFlow(t)
	o2, m := counted(o)
	res, err := r2.run(f2, o2)
	if err != nil {
		t.Fatal(err)
	}
	if hits := m.Snapshot().CacheHits; hits != 4 {
		t.Errorf("hits = %d, want 4", hits)
	}
	pid, _ := res.One(perf2)
	data, ok := r2.store.Get(r2.db.Get(pid).Data)
	if !ok || !strings.Contains(string(data), "sample 2 cout=1 sum=1") {
		t.Errorf("cache-served performance artifact wrong: %.120q", string(data))
	}
}

func TestMemoMissingBlobsAreMisses(t *testing.T) {
	// A cache whose blobs live in another engine's store must not serve
	// anything — an unresolvable entry is a miss, never an error.
	o := RunOptions{Memo: memo.New(0)}
	r1 := newRig(t)
	f1, _ := r1.perfFlow(t)
	if _, err := r1.run(f1, o); err != nil {
		t.Fatal(err)
	}

	r2 := newRig(t) // separate store: the entries' blobs are absent
	f2, perf2 := r2.perfFlow(t)
	res, err := r2.run(f2, o)
	if err != nil {
		t.Fatalf("run with unresolvable cache: %v", err)
	}
	// The tool-output blobs are missing from r2's store, so those
	// entries cannot be served. (The Netlist unit's inputs are identical
	// catalog imports present in both stores, and its output blob is
	// also re-created identically — implementation may or may not hit
	// there; what matters is correctness of the result.)
	pid, _ := res.One(perf2)
	data, ok := r2.store.Get(r2.db.Get(pid).Data)
	if !ok || !strings.Contains(string(data), "sample 2 cout=1 sum=1") {
		t.Errorf("performance artifact wrong under blob-less cache: %.120q", string(data))
	}
}

func TestMemoFanOutWarm(t *testing.T) {
	// §4.1 fan-out: each (job, combo) unit is cached independently.
	r, o := memoRig(t)
	f, perf := r.perfFlow(t)
	stimN, _ := f.Node(perf).Dep("Stimuli")
	if err := f.Bind(stimN, r.ids["stim"], r.ids["stim2"]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.run(f, o); err != nil {
		t.Fatal(err)
	}
	oWarm, m := counted(o)
	if _, err := r.run(f, oWarm); err != nil {
		t.Fatal(err)
	}
	if hits := m.Snapshot().CacheHits; hits != 5 { // netlist, models, circuit, 2 sims
		t.Errorf("hits = %d, want 5", hits)
	}
}

func TestMemoRetraceHitsFlowEntries(t *testing.T) {
	// Cross-path memoization: a retrace whose substituted inputs land on
	// bytes a flow run already processed is served from the cache.
	r, o := memoRig(t)
	f, perf := r.perfFlow(t)
	res, err := r.run(f, o)
	if err != nil {
		t.Fatal(err)
	}
	pid, _ := res.One(perf)

	cctN, _ := f.Node(perf).Dep("Circuit")
	netN, _ := f.Node(cctN).Dep("Netlist")
	oldNet, _ := res.One(netN)
	oldData, _ := r.store.Get(r.db.Get(oldNet).Data)

	// Edit 1: genuinely new netlist bytes. The retrace must re-run the
	// simulation (miss) and publish the new derivation.
	rev2, err := r.db.Record(history.Instance{Type: "EditedNetlist", User: "rig",
		Tool:   r.ids["netEdCopy"],
		Inputs: []history.Input{{Key: "Netlist", Inst: oldNet}},
		Data:   r.store.Put(append(append([]byte(nil), oldData...), []byte("# rev2\n")...))})
	if err != nil {
		t.Fatal(err)
	}
	o1, m1 := counted(o)
	rr, err := r.retrace(pid, o1)
	if err != nil {
		t.Fatal(err)
	}
	if hits := m1.Snapshot().CacheHits; rr.Fresh || hits != 0 {
		t.Fatalf("changed-input retrace: fresh=%v hits=%d, want a full re-run", rr.Fresh, hits)
	}

	// Edit 2: a further version that restores the original bytes. The
	// retraced simulation's inputs are now byte-identical to the cold
	// run, so the cache serves it without running the simulator.
	if _, err := r.db.Record(history.Instance{Type: "EditedNetlist", User: "rig",
		Tool:   r.ids["netEdCopy"],
		Inputs: []history.Input{{Key: "Netlist", Inst: rev2.ID}},
		Data:   r.store.Put(oldData)}); err != nil {
		t.Fatal(err)
	}
	target := rr.NewTarget(pid)
	o2, m2 := counted(o)
	rr2, err := r.retrace(target, o2)
	if err != nil {
		t.Fatal(err)
	}
	if rr2.Fresh {
		t.Fatal("reverting edit should still be a (content-differing) supersession of rev2")
	}
	// The Circuit composition and the Performance simulation: a retrace
	// is a flow run, and a flow run's composites hit the cache too.
	if hits := m2.Snapshot().CacheHits; hits != 2 {
		t.Errorf("retrace cache hits = %d, want 2", hits)
	}
	// And the reverted result matches the original artifact.
	finalPerf := r.db.Get(rr2.NewTarget(target))
	origPerf := r.db.Get(pid)
	if finalPerf.Data != origPerf.Data {
		t.Error("reverted retrace should reproduce the original performance bytes")
	}
}

func TestMemoAgreesWithStaleness(t *testing.T) {
	// Satellite invariant: the consistency layer and the cache must
	// agree. A supersession with identical bytes is invisible to the
	// cache (same key), so OutOfDate must not report it; a supersession
	// with different bytes is a guaranteed miss, and OutOfDate must
	// report it.
	r, o := memoRig(t)
	f, perf := r.perfFlow(t)
	res, err := r.run(f, o)
	if err != nil {
		t.Fatal(err)
	}
	pid, _ := res.One(perf)
	cctN, _ := f.Node(perf).Dep("Circuit")
	netN, _ := f.Node(cctN).Dep("Netlist")
	netID, _ := res.One(netN)
	netData, _ := r.store.Get(r.db.Get(netID).Data)

	// Identical-bytes supersession: not stale, and a retrace is a no-op
	// — a memo hit would be guaranteed, so re-running would be absurd.
	if _, err := r.db.Record(history.Instance{Type: "EditedNetlist", User: "rig",
		Tool:   r.ids["netEdCopy"],
		Inputs: []history.Input{{Key: "Netlist", Inst: netID}},
		Data:   r.store.Put(netData)}); err != nil {
		t.Fatal(err)
	}
	ood, err := r.db.OutOfDate(pid)
	if err != nil {
		t.Fatal(err)
	}
	if ood {
		t.Error("byte-identical supersession reported out-of-date; cache and consistency disagree")
	}
	rr, err := r.retrace(pid, o)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Fresh {
		t.Error("byte-identical supersession triggered a retrace")
	}

	// Changed-bytes supersession: stale, and the retrace's key cannot
	// match any cached entry (fresh input ref), so zero hits.
	if _, err := r.db.Record(history.Instance{Type: "EditedNetlist", User: "rig",
		Tool:   r.ids["netEdCopy"],
		Inputs: []history.Input{{Key: "Netlist", Inst: netID}},
		Data:   r.store.Put(append(append([]byte(nil), netData...), []byte("# changed\n")...))}); err != nil {
		t.Fatal(err)
	}
	ood, err = r.db.OutOfDate(pid)
	if err != nil {
		t.Fatal(err)
	}
	if !ood {
		t.Fatal("changed-bytes supersession not reported out-of-date")
	}
	oStale, m := counted(o)
	rr, err = r.retrace(pid, oStale)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Fresh {
		t.Fatal("stale target retrace did nothing")
	}
	if hits := m.Snapshot().CacheHits; hits != 0 {
		t.Errorf("out-of-date retrace served %d cache hits; a hit is impossible when inputs changed", hits)
	}
}
