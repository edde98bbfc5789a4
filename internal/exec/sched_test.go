package exec

import (
	"errors"
	"fmt"
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
	res, err := r.run(f, RunOptions{TaskDelay: func(node flow.NodeID, goal string) time.Duration {
		return delays[node]
	}})
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
	if elapsed := time.Duration(resDat.Finished.ElapsedMicros) * time.Microsecond; elapsed*4 > sumLevelMaxima*3 {
		t.Errorf("dataflow elapsed %v, want at most 3/4 of the level-barrier bound %v",
			elapsed, sumLevelMaxima)
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
	o, m := counted(RunOptions{})
	res, err := r.run(f, o)
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
	if ran := m.Snapshot().Started; ran != 1 {
		t.Errorf("failed run ran %d units, want 1", ran)
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
	_, err := r.run(f, RunOptions{TaskDelay: fixedDelay(20 * time.Millisecond)})
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
	res, err := r.run(f, RunOptions{MaxCombos: 1})
	if err == nil || !strings.Contains(err.Error(), "MaxCombos") {
		t.Fatalf("err = %v, want fan-out cap error", err)
	}
	if res == nil || r.db.InstancesOf("Performance") != nil {
		t.Error("capped run still executed")
	}
	// Values below 1 leave the (generous) default; the run passes.
	if _, err := r.run(f, RunOptions{MaxCombos: -1}); err != nil {
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
	o, m := counted(RunOptions{})
	res, err := r.run(f, o)
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
	if ran := int(m.Snapshot().Started); res.Finished == nil || ran == 0 || ran >= res.Finished.Units {
		t.Errorf("ran %d units, RunFinished %+v; want partial execution recorded", ran, res.Finished)
	}
	// The committed prefix is real: the reference netlist is in history.
	if got := r.db.Get(res.Created[ref][0]); got == nil {
		t.Error("partial Created points at an unrecorded instance")
	}
}

// TestRunFinishedPopulated: a run's RunFinished summarizes its
// schedule, and the Metrics fold of its events counts the units it ran.
func TestRunFinishedPopulated(t *testing.T) {
	r := newRig(t)
	r.engine.SetWorkers(2)
	f, _ := r.perfFlow(t)
	o, m := counted(RunOptions{TaskDelay: fixedDelay(2 * time.Millisecond)})
	res, err := r.run(f, o)
	if err != nil {
		t.Fatal(err)
	}
	fin, snap := res.Finished, m.Snapshot()
	if fin == nil {
		t.Fatal("successful run has no RunFinished")
	}
	if fin.Workers != 2 {
		t.Errorf("workers = %d, want 2", fin.Workers)
	}
	if fin.Jobs != 4 || fin.Units != 4 || snap.Started != 4 {
		t.Errorf("jobs/units/run = %d/%d/%d, want 4/4/4", fin.Jobs, fin.Units, snap.Started)
	}
	if busy := time.Duration(fin.BusyMicros) * time.Microsecond; busy < 8*time.Millisecond {
		t.Errorf("busy = %v, want ≥ 8ms (4 delayed units)", busy)
	}
	// Netlist → Circuit → Performance is the longest chain.
	if cp := time.Duration(fin.CriticalMicros) * time.Microsecond; fin.CriticalJobs != 3 || cp < 6*time.Millisecond {
		t.Errorf("critical path = %v over %d jobs, want ≥6ms over 3", cp, fin.CriticalJobs)
	}
	if snap.Occupancy <= 0 || snap.Occupancy > 1 {
		t.Errorf("occupancy = %v", snap.Occupancy)
	}
	if want := fmt.Sprintf("flow_queue_wait_seconds_count %d\n", snap.Started); !strings.Contains(m.Expose(), want) {
		t.Errorf("queue-wait histogram does not count the %d units run:\n%s", snap.Started, m.Expose())
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
	// non-nil result, one without a RunFinished: the run never planned.
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
	if res.Finished != nil {
		t.Errorf("early failure has a RunFinished: %+v", res.Finished)
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
