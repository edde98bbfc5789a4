package exec

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/encap"
	"repro/internal/flow"
	"repro/internal/history"
)

// chainPair builds two independent chains of EditedNetlist nodes of the
// given depth (each link feeding the next through the optional Netlist
// input) and returns the per-depth node IDs of both chains. Rebuilt on
// identical fresh rigs, the flows are node-for-node identical.
func chainPair(t *testing.T, r *rig, depth int) (*flow.Flow, [2][]flow.NodeID) {
	t.Helper()
	f := flow.New(r.s, r.db)
	var chains [2][]flow.NodeID
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < 2; c++ {
		base := f.MustAdd("EditedNetlist")
		must(f.ExpandDown(base, false))
		tn, _ := f.Node(base).Dep("fd")
		must(f.Bind(tn, r.ids["netEdGen"]))
		chains[c] = append(chains[c], base)
		prev := base
		for d := 1; d < depth; d++ {
			next, err := f.ExpandUp(prev, "EditedNetlist", "Netlist")
			must(err)
			must(f.ExpandDown(next, false))
			tn, _ := f.Node(next).Dep("fd")
			must(f.Bind(tn, r.ids["netEdCopy"]))
			chains[c] = append(chains[c], next)
			prev = next
		}
	}
	return f, chains
}

// unbalancedDelays assigns alternating slow/fast latencies so that every
// dependency level holds one slow and one fast task, but each chain's
// own sum is only half slow: a level-barrier schedule pays at least
// the sum of level maxima, depth×slow, a dataflow scheduler only
// max-branch ≈ depth×(slow+fast)/2.
func unbalancedDelays(chains [2][]flow.NodeID, slow, fast time.Duration) map[flow.NodeID]time.Duration {
	delays := make(map[flow.NodeID]time.Duration)
	for c, nodes := range chains {
		for d, id := range nodes {
			if (d+c)%2 == 0 {
				delays[id] = slow
			} else {
				delays[id] = fast
			}
		}
	}
	return delays
}

func runChainPair(t *testing.T, workers, depth int, slow, fast time.Duration) (*rig, *Result) {
	t.Helper()
	r := newRig(t)
	f, chains := chainPair(t, r, depth)
	delays := unbalancedDelays(chains, slow, fast)
	r.engine.SetWorkers(workers)
	r.engine.SetTaskDelayFunc(func(node flow.NodeID, goal string) time.Duration {
		return delays[node]
	})
	res, err := r.engine.RunFlow(f)
	if err != nil {
		t.Fatalf("w%d run: %v", workers, err)
	}
	return r, res
}

// sameRecords fails the test unless two databases hold identical
// instance IDs and derivations.
func sameRecords(t *testing.T, r1, r2 *rig) {
	t.Helper()
	all1, all2 := r1.db.All(), r2.db.All()
	if len(all1) != len(all2) {
		t.Fatalf("instance counts differ: %d vs %d", len(all1), len(all2))
	}
	for i := range all1 {
		a, b := all1[i], all2[i]
		if a.ID != b.ID || a.Type != b.Type || a.Tool != b.Tool {
			t.Fatalf("instance %d differs: %s (%s via %s) vs %s (%s via %s)",
				i, a.ID, a.Type, a.Tool, b.ID, b.Type, b.Tool)
		}
		if len(a.Inputs) != len(b.Inputs) {
			t.Fatalf("instance %s derivations differ in arity", a.ID)
		}
		for k := range a.Inputs {
			if a.Inputs[k] != b.Inputs[k] {
				t.Fatalf("instance %s input %q differs: %s vs %s",
					a.ID, a.Inputs[k].Key, a.Inputs[k].Inst, b.Inputs[k].Inst)
			}
		}
	}
}

func TestUnbalancedFlowDataflowBeatsBarrier(t *testing.T) {
	// The paper's Fig. 6 speedup claim, on a deliberately unbalanced
	// flow: two chains whose slow tasks interleave across levels. Any
	// level-barrier schedule drains every level, so it takes at least
	// the sum of level maxima (depth×slow) on any worker count; the
	// dataflow scheduler lets the fast chain run ahead
	// (≈ depth×(slow+fast)/2).
	const depth = 6
	slow, fast := 15*time.Millisecond, time.Millisecond
	rDat, resDat := runChainPair(t, 4, depth, slow, fast)

	sumLevelMaxima := time.Duration(depth) * slow
	if resDat.Stats.Elapsed*4 > sumLevelMaxima*3 {
		t.Errorf("dataflow elapsed %v, want at most 3/4 of the level-barrier bound %v",
			resDat.Stats.Elapsed, sumLevelMaxima)
	}

	// Determinism across dispatch orders: one worker records identical
	// instance IDs and derivations for the same flow.
	rSer, _ := runChainPair(t, 1, depth, slow, fast)
	sameRecords(t, rSer, rDat)
}

func TestSchedulerParityWithFanOut(t *testing.T) {
	// Fan-out over multi-instance bindings must also record identically
	// on one worker and on four.
	run := func(workers int) *rig {
		r := newRig(t)
		f, perf := r.perfFlow(t)
		stimN, _ := f.Node(perf).Dep("Stimuli")
		if err := f.Bind(stimN, r.ids["stim"], r.ids["stim2"]); err != nil {
			t.Fatal(err)
		}
		r.engine.SetWorkers(workers)
		if _, err := r.engine.RunFlow(f); err != nil {
			t.Fatalf("w%d run: %v", workers, err)
		}
		return r
	}
	sameRecords(t, run(1), run(4))
}

// countingEncap counts invocations (atomically — workers run
// concurrently) and succeeds.
type countingEncap struct{ calls atomic.Int64 }

func (c *countingEncap) Run(r *encap.Request) (encap.Outputs, error) {
	c.calls.Add(1)
	return encap.Outputs{r.Goal: []byte("ok " + r.Goal)}, nil
}

// alwaysFailEncap fails every run (atomically counting, for concurrent
// use).
type alwaysFailEncap struct{ calls atomic.Int64 }

func (c *alwaysFailEncap) Run(r *encap.Request) (encap.Outputs, error) {
	c.calls.Add(1)
	return nil, errInjected
}

func TestFailFastStopsDispatch(t *testing.T) {
	// Two independent branches: a failing netlist edit (first in plan
	// order) and a layout chain behind a counting tool. With one worker
	// the failure is observed before any layout unit dispatches; the
	// layout tool must never run even though its units were ready.
	r := newRig(t)
	r.engine.reg.Register("NetlistEditor", &alwaysFailEncap{})
	counter := &countingEncap{}
	r.engine.reg.Register("LayoutEditor", counter)
	f := flow.New(r.s, r.db)
	bad := f.MustAdd("EditedNetlist")
	if err := f.ExpandDown(bad, false); err != nil {
		t.Fatal(err)
	}
	badTool, _ := f.Node(bad).Dep("fd")
	if err := f.Bind(badTool, r.ids["netEdGen"]); err != nil {
		t.Fatal(err)
	}
	lay := f.MustAdd("EditedLayout")
	if err := f.ExpandDown(lay, false); err != nil {
		t.Fatal(err)
	}
	layTool, _ := f.Node(lay).Dep("fd")
	if err := f.Bind(layTool, r.ids["layEdGen"]); err != nil {
		t.Fatal(err)
	}
	r.engine.SetWorkers(1)
	res, err := r.engine.RunFlow(f)
	if err == nil || !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	if got := counter.calls.Load(); got != 0 {
		t.Errorf("fail-fast did not stop dispatch: layout tool ran %d time(s)", got)
	}
	if res == nil {
		t.Fatal("failed run returned nil result")
	}
	if res.Elapsed <= 0 {
		t.Error("failed run left Result.Elapsed zero")
	}
	if res.Stats == nil || res.Stats.UnitsRun != 1 {
		t.Errorf("stats of failed run = %+v, want 1 unit run", res.Stats)
	}
}

func TestAggregatedComboErrors(t *testing.T) {
	// Two stimuli fan the Performance task into two combos; both fail.
	// With two workers both units dispatch before either error lands,
	// and the joined error must name each failed (node, combo).
	r := newRig(t)
	r.engine.reg.Register("Simulator", &alwaysFailEncap{})
	f, perf := r.perfFlow(t)
	stimN, _ := f.Node(perf).Dep("Stimuli")
	if err := f.Bind(stimN, r.ids["stim"], r.ids["stim2"]); err != nil {
		t.Fatal(err)
	}
	r.engine.SetWorkers(2)
	r.engine.SetTaskDelay(20 * time.Millisecond)
	_, err := r.engine.RunFlow(f)
	if err == nil || !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "combo 1/2") || !strings.Contains(msg, "combo 2/2") {
		t.Errorf("joined error does not name both combos:\n%v", msg)
	}
	if n := strings.Count(msg, errInjected.Error()); n != 2 {
		t.Errorf("joined error carries %d failure(s), want 2:\n%v", n, msg)
	}
	if !strings.Contains(msg, string(r.ids["stim"])) || !strings.Contains(msg, string(r.ids["stim2"])) {
		t.Errorf("joined error does not identify the failing inputs:\n%v", msg)
	}
}

func TestMaxCombosCap(t *testing.T) {
	r := newRig(t)
	f, perf := r.perfFlow(t)
	stimN, _ := f.Node(perf).Dep("Stimuli")
	if err := f.Bind(stimN, r.ids["stim"], r.ids["stim2"]); err != nil {
		t.Fatal(err)
	}
	r.engine.SetMaxCombos(1)
	res, err := r.engine.RunFlow(f)
	if err == nil || !strings.Contains(err.Error(), "SetMaxCombos") {
		t.Fatalf("err = %v, want fan-out cap error", err)
	}
	if res == nil || r.db.InstancesOf("Performance") != nil {
		t.Error("capped run still executed")
	}
	// Values below 1 restore the (generous) default; the run passes.
	r.engine.SetMaxCombos(0)
	if _, err := r.engine.RunFlow(f); err != nil {
		t.Errorf("run after restoring default cap: %v", err)
	}
}

func TestPartialResultOnFailure(t *testing.T) {
	// A mid-flow failure still reports what did run: elapsed time, the
	// instances committed before the failure, and the partial schedule.
	r := newRig(t)
	r.engine.reg.Register("Extractor", &alwaysFailEncap{})
	f := flow.New(r.s, r.db)
	ver := f.MustAdd("Verification")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(f.ExpandDown(ver, false))
	verToolN, _ := f.Node(ver).Dep("fd")
	ref, _ := f.Node(ver).Dep("Netlist/reference")
	sub, _ := f.Node(ver).Dep("Netlist/subject")
	must(f.Specialize(ref, "EditedNetlist"))
	must(f.ExpandDown(ref, false))
	refToolN, _ := f.Node(ref).Dep("fd")
	must(f.Specialize(sub, "ExtractedNetlist"))
	must(f.ExpandDown(sub, false))
	subToolN, _ := f.Node(sub).Dep("fd")
	layN, _ := f.Node(sub).Dep("Layout")
	must(f.Specialize(layN, "EditedLayout"))
	must(f.ExpandDown(layN, false))
	layToolN, _ := f.Node(layN).Dep("fd")
	for n, key := range map[flow.NodeID]string{
		verToolN: "verifier", refToolN: "netEdGen", subToolN: "extractor", layToolN: "layEdGen",
	} {
		must(f.Bind(n, r.ids[key]))
	}
	res, err := r.engine.RunFlow(f)
	if err == nil {
		t.Fatal("expected failure")
	}
	if res == nil {
		t.Fatal("failed run returned nil result")
	}
	if res.Elapsed <= 0 {
		t.Error("failed run left Result.Elapsed zero")
	}
	if len(res.Created[ref]) == 0 {
		t.Error("result discarded the committed reference netlist")
	}
	if res.TasksRun == 0 {
		t.Error("TasksRun = 0, want the committed prefix counted")
	}
	if res.Stats == nil || res.Stats.UnitsRun == 0 || res.Stats.UnitsRun >= res.Stats.Units {
		t.Errorf("stats = %+v, want partial execution recorded", res.Stats)
	}
	// The committed prefix is real: the reference netlist is in history.
	if got := r.db.Get(res.Created[ref][0]); got == nil {
		t.Error("partial Created points at an unrecorded instance")
	}
}

func TestRunStatsPopulated(t *testing.T) {
	r := newRig(t)
	r.engine.SetWorkers(2)
	r.engine.SetTaskDelay(2 * time.Millisecond)
	f, _ := r.perfFlow(t)
	res, err := r.engine.RunFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st == nil {
		t.Fatal("successful run has no stats")
	}
	if st.Workers != 2 {
		t.Errorf("workers = %d, want 2", st.Workers)
	}
	if st.Jobs != 4 || st.Units != 4 || st.UnitsRun != 4 {
		t.Errorf("jobs/units/run = %d/%d/%d, want 4/4/4", st.Jobs, st.Units, st.UnitsRun)
	}
	if st.Busy < 8*time.Millisecond {
		t.Errorf("busy = %v, want ≥ 8ms (4 delayed units)", st.Busy)
	}
	// Netlist → Circuit → Performance is the longest chain.
	if st.CriticalPathJobs != 3 || st.CriticalPath < 6*time.Millisecond {
		t.Errorf("critical path = %v over %d jobs, want ≥6ms over 3", st.CriticalPath, st.CriticalPathJobs)
	}
	if st.Occupancy <= 0 || st.Occupancy > 1 {
		t.Errorf("occupancy = %v", st.Occupancy)
	}
	var waits int
	for _, c := range st.QueueWait.Counts {
		waits += c
	}
	if waits != st.UnitsRun {
		t.Errorf("queue-wait histogram counts %d units, ran %d", waits, st.UnitsRun)
	}
	if st.PerTask["Performance"].Runs != 1 {
		t.Errorf("per-task stats = %+v", st.PerTask)
	}
	if s := st.Summary(); !strings.Contains(s, "workers=2 jobs=4 units=4/4") {
		t.Errorf("summary lacks its header line:\n%s", s)
	}
}

func TestDanglingDependencyDecodeRejected(t *testing.T) {
	// A tampered persistence file whose dependency edge points at a
	// removed node must be rejected at the boundary with a clear error
	// (and the engine's reachable guard must never see it as a panic).
	r := newRig(t)
	tampered := `{"next":9,"nodes":[
	 {"id":1,"type":"EditedNetlist","deps":{"fd":2,"Netlist":7}},
	 {"id":2,"type":"NetlistEditor"}]}`
	_, err := flow.Decode(strings.NewReader(tampered), r.s, r.db)
	if err == nil {
		t.Fatal("Decode accepted a dangling dependency edge")
	}
	if !strings.Contains(err.Error(), "missing node") && !strings.Contains(err.Error(), "dangling") {
		t.Errorf("decode error lacks dangling context: %v", err)
	}
}

func TestReachableDanglingTarget(t *testing.T) {
	// The engine-level guard: asking for a node that is not in the flow
	// returns an error, never a nil-panic.
	r := newRig(t)
	f := flow.New(r.s, r.db)
	n := f.MustAdd("EditedNetlist")
	if _, err := reachable(f, []flow.NodeID{n + 99}); err == nil ||
		!strings.Contains(err.Error(), "dangling") {
		t.Errorf("reachable on missing target = %v, want dangling error", err)
	}
	if _, err := reachable(f, []flow.NodeID{n}); err != nil {
		t.Errorf("reachable on valid target: %v", err)
	}
}

func TestElapsedOnEarlyErrors(t *testing.T) {
	// Even validation-stage failures report how long they took and a
	// non-nil result.
	r := newRig(t)
	f := flow.New(r.s, r.db)
	f.MustAdd("Performance") // unexpanded: not executable
	res, err := r.engine.RunFlow(f)
	if err == nil || !strings.Contains(err.Error(), "not executable") {
		t.Fatalf("err = %v", err)
	}
	if res == nil {
		t.Fatal("early failure returned nil result")
	}
	if res.Elapsed <= 0 {
		t.Error("early failure left Result.Elapsed zero")
	}
}

// TestComboStringSortsKeys pins the combo rendering in unit errors:
// "k=inst" pairs in sorted key order, the tool's "fd" sorted among the
// data keys rather than first, as a combo is stored.
func TestComboStringSortsKeys(t *testing.T) {
	got := comboString([]string{"fd", "Circuit", "Stimuli"},
		[]history.ID{"Simulator:1", "Circuit:2", "Stimuli:3"})
	if want := "Circuit=Circuit:2 Stimuli=Stimuli:3 fd=Simulator:1"; got != want {
		t.Errorf("comboString = %q, want %q", got, want)
	}
}
