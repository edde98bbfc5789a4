package exec

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/datastore"
	"repro/internal/encap"
	"repro/internal/flow"
	"repro/internal/history"
	"repro/internal/schema"
	"repro/internal/trace"
)

// ptr returns a pointer to a copy of v, for RunOptions' optional
// fields.
func ptr[T any](v T) *T { return &v }

// fixedDelay is a RunOptions.TaskDelay that sleeps d before every tool
// run.
func fixedDelay(d time.Duration) func(flow.NodeID, string) time.Duration {
	return func(flow.NodeID, string) time.Duration { return d }
}

// counted returns o with a trace.Metrics fold added to its sink, and
// the fold: a run's per-unit counts (units run, retries, timeouts,
// cache hits) are read from its events.
func counted(o RunOptions) (RunOptions, *trace.Metrics) {
	m := trace.NewMetrics()
	if o.Tracer != nil {
		o.Tracer = trace.Multi(o.Tracer, m)
	} else {
		o.Tracer = m
	}
	return o, m
}

// rig is the test bench: an engine over the full schema with standard
// tools installed and primitive data imported.
type rig struct {
	s      *schema.Schema
	db     *history.DB
	store  *datastore.Store
	engine *Engine
	ids    map[string]history.ID
}

// run executes f on the rig's engine with the given options.
func (r *rig) run(f *flow.Flow, o RunOptions) (*Result, error) {
	return r.engine.RunFlowOptions(context.Background(), f, &o)
}

// retrace retraces target on the rig's engine with the given options.
func (r *rig) retrace(target history.ID, o RunOptions) (*RetraceResult, error) {
	return r.engine.RetraceOptions(context.Background(), target, &o)
}

// newRig installs one instance of each standard tool plus stimuli and
// placement options.
func newRig(t *testing.T) *rig {
	t.Helper()
	return newRigClock(t, nil)
}

// newRigClock is newRig with a replaced history clock (installed before
// any instance is recorded), so two rigs built with the same frozen
// clock produce byte-comparable history dumps.
func newRigClock(t *testing.T, clock func() time.Time) *rig {
	t.Helper()
	return newRigStore(t, clock, datastore.NewStore())
}

// newRigStore is newRigClock over a caller-supplied datastore, so two
// rigs can share one content-addressed store — and, with it, a result
// cache whose entries reference blobs in that store. Re-importing the
// catalog into a shared store is idempotent (same bytes, same refs).
func newRigStore(t *testing.T, clock func() time.Time, store *datastore.Store) *rig {
	t.Helper()
	s := schema.Full()
	db := history.NewDB(s)
	if clock != nil {
		db.SetClock(clock)
	}
	r := &rig{s: s, db: db, store: store,
		engine: New(s, db, store, encap.StandardRegistry()),
		ids:    make(map[string]history.ID)}
	imp := func(key, typ, name string, data string) {
		t.Helper()
		rec := history.Instance{Type: typ, Name: name, User: "rig"}
		if data != "" {
			rec.Data = store.Put([]byte(data))
		}
		inst, err := db.Record(rec)
		if err != nil {
			t.Fatalf("import %s: %v", key, err)
		}
		r.ids[key] = inst.ID
	}
	imp("netEdGen", "NetlistEditor", "netlist generator", "generate fulladder")
	imp("netEdCopy", "NetlistEditor", "netlist copier", "retouch rev2")
	imp("layEdGen", "LayoutEditor", "layout generator", "generate fulladder")
	imp("layEdCopy", "LayoutEditor", "layout retoucher", "retouch fixup")
	imp("dmEd", "DeviceModelEditor", "model editor", "default")
	imp("dmEdFast", "DeviceModelEditor", "fast model editor", "fast")
	imp("extractor", "Extractor", "mextra", "")
	imp("sim", "InstalledSimulator", "hspice", "")
	imp("verifier", "Verifier", "lvs", "")
	imp("plotter", "Plotter", "xplot", "")
	imp("placer", "Placer", "row placer", "")
	imp("compiler", "SimulatorCompiler", "cosmos cc", "")
	imp("ropt", "RandomOptimizer", "rand opt", "")
	imp("dopt", "DescentOptimizer", "descent opt", "")
	imp("aopt", "AnnealOptimizer", "anneal opt", "")
	imp("stim", "Stimuli", "exhaustive 3", "stimuli exh\ninterval 10000000\ninputs a b cin\nvector 000\nvector 011\nvector 111\n")
	imp("stim2", "Stimuli", "walk", "stimuli walk\ninterval 10000000\ninputs a b cin\nvector 000\nvector 100\n")
	imp("popts", "PlacementOptions", "default placement", "seed=1 passes=2")
	imp("ogoal", "OptimizationGoal", "speed goal", "target=2000 budget=10 seed=1")
	return r
}

// perfFlow builds the canonical Performance flow and binds all leaves:
// Performance <- (sim, Circuit(DeviceModels<-dmEd, Netlist<-netEdGen), stim).
func (r *rig) perfFlow(t *testing.T) (*flow.Flow, flow.NodeID) {
	t.Helper()
	f := flow.New(r.s, r.db)
	perf := f.MustAdd("Performance")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(f.ExpandDown(perf, false))
	simN, _ := f.Node(perf).Dep("fd")
	cctN, _ := f.Node(perf).Dep("Circuit")
	stimN, _ := f.Node(perf).Dep("Stimuli")
	must(f.ExpandDown(cctN, false))
	dmN, _ := f.Node(cctN).Dep("DeviceModels")
	netN, _ := f.Node(cctN).Dep("Netlist")
	must(f.ExpandDown(dmN, false))
	dmToolN, _ := f.Node(dmN).Dep("fd")
	must(f.Specialize(netN, "EditedNetlist"))
	must(f.ExpandDown(netN, false))
	netToolN, _ := f.Node(netN).Dep("fd")
	must(f.Bind(simN, r.ids["sim"]))
	must(f.Bind(stimN, r.ids["stim"]))
	must(f.Bind(dmToolN, r.ids["dmEd"]))
	must(f.Bind(netToolN, r.ids["netEdGen"]))
	return f, perf
}

func TestRunFlowEndToEnd(t *testing.T) {
	r := newRig(t)
	f, perf := r.perfFlow(t)
	res, err := r.engine.RunFlow(f)
	if err != nil {
		t.Fatalf("RunFlow: %v", err)
	}
	// Netlist, DeviceModels, Circuit, Performance = 4 tasks.
	if res.TasksRun != 4 {
		t.Errorf("TasksRun = %d, want 4", res.TasksRun)
	}
	pid, err := res.One(perf)
	if err != nil {
		t.Fatal(err)
	}
	inst := r.db.Get(pid)
	if inst.Type != "Performance" || inst.Tool != r.ids["sim"] {
		t.Errorf("performance instance = %+v", inst)
	}
	// The artifact is a parseable performance report with correct adder
	// results for vector 111 (sum=1, cout=1).
	data, ok := r.store.Get(inst.Data)
	if !ok {
		t.Fatal("performance artifact missing")
	}
	text := string(data)
	if !strings.Contains(text, "performance fulladder") {
		t.Errorf("artifact = %.120q", text)
	}
	if !strings.Contains(text, "sample 2 cout=1 sum=1") {
		t.Errorf("adder result wrong:\n%s", text)
	}
	// Derivation is queryable: the netlist used is in the backchain.
	back, err := r.db.Backchain(pid, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Contains(r.ids["netEdGen"]) {
		t.Error("backchain should reach the netlist editor tool")
	}
}

func TestRunNodeSubflow(t *testing.T) {
	r := newRig(t)
	f, perf := r.perfFlow(t)
	cctN, _ := f.Node(perf).Dep("Circuit")
	netN, _ := f.Node(cctN).Dep("Netlist")
	res, err := r.engine.RunNodeOptions(context.Background(), f, netN, nil)
	if err != nil {
		t.Fatalf("RunNode: %v", err)
	}
	if res.TasksRun != 1 {
		t.Errorf("TasksRun = %d, want 1 (only the netlist)", res.TasksRun)
	}
	if _, ok := res.Created[perf]; ok {
		t.Error("sub-flow run must not execute the goal")
	}
}

func TestRunFlowRejectsUnexecutable(t *testing.T) {
	r := newRig(t)
	f := flow.New(r.s, r.db)
	perf := f.MustAdd("Performance")
	if err := f.ExpandDown(perf, false); err != nil {
		t.Fatal(err)
	}
	_, err := r.engine.RunFlow(f)
	if err == nil || !strings.Contains(err.Error(), "not executable") {
		t.Errorf("err = %v", err)
	}
}

func TestMultiOutputSharedTask(t *testing.T) {
	// Fig. 5: ExtractedNetlist and ExtractionStatistics share one
	// extractor run.
	r := newRig(t)
	f := flow.New(r.s, r.db)
	net := f.MustAdd("ExtractedNetlist")
	if err := f.ExpandDown(net, false); err != nil {
		t.Fatal(err)
	}
	extrN, _ := f.Node(net).Dep("fd")
	layN, _ := f.Node(net).Dep("Layout")
	stats := f.MustAdd("ExtractionStatistics")
	if err := f.Connect(stats, "fd", extrN); err != nil {
		t.Fatal(err)
	}
	if err := f.Connect(stats, "Layout", layN); err != nil {
		t.Fatal(err)
	}
	if err := f.Specialize(layN, "EditedLayout"); err != nil {
		t.Fatal(err)
	}
	if err := f.ExpandDown(layN, false); err != nil {
		t.Fatal(err)
	}
	layToolN, _ := f.Node(layN).Dep("fd")
	if err := f.Bind(extrN, r.ids["extractor"]); err != nil {
		t.Fatal(err)
	}
	if err := f.Bind(layToolN, r.ids["layEdGen"]); err != nil {
		t.Fatal(err)
	}
	res, err := r.engine.RunFlow(f)
	if err != nil {
		t.Fatalf("RunFlow: %v", err)
	}
	// Layout (1 task) + one shared extraction (1 task) = 2, even though
	// two entities were produced by the extraction.
	if res.TasksRun != 2 {
		t.Errorf("TasksRun = %d, want 2 (extraction shared)", res.TasksRun)
	}
	nid, err := res.One(net)
	if err != nil {
		t.Fatal(err)
	}
	sid, err := res.One(stats)
	if err != nil {
		t.Fatal(err)
	}
	nin, sin := r.db.Get(nid), r.db.Get(sid)
	if nin.Tool != sin.Tool {
		t.Error("siblings should share the tool instance")
	}
	if got, _ := nin.InputFor("Layout"); got != mustInput(t, sin, "Layout") {
		t.Error("siblings should share the layout input")
	}
	sb, _ := r.store.Get(sin.Data)
	if !strings.Contains(string(sb), "extraction statistics") {
		t.Errorf("stats artifact = %.80q", string(sb))
	}
}

func mustInput(t *testing.T, in *history.Instance, key string) history.ID {
	t.Helper()
	id, ok := in.InputFor(key)
	if !ok {
		t.Fatalf("instance %s lacks input %s", in.ID, key)
	}
	return id
}

func TestFanOutOverInstanceSets(t *testing.T) {
	// §4.1: selecting two stimuli instances runs the simulation twice.
	r := newRig(t)
	f, perf := r.perfFlow(t)
	var stimN flow.NodeID
	stimN, _ = f.Node(perf).Dep("Stimuli")
	if err := f.Bind(stimN, r.ids["stim"], r.ids["stim2"]); err != nil {
		t.Fatal(err)
	}
	res, err := r.engine.RunFlow(f)
	if err != nil {
		t.Fatalf("RunFlow: %v", err)
	}
	perfs := res.InstancesOf(perf)
	if len(perfs) != 2 {
		t.Fatalf("performances = %v, want 2", perfs)
	}
	// Each derivation records a different stimuli instance.
	s0, _ := r.db.Get(perfs[0]).InputFor("Stimuli")
	s1, _ := r.db.Get(perfs[1]).InputFor("Stimuli")
	if s0 == s1 {
		t.Error("fan-out should bind different stimuli instances")
	}
	if res.TasksRun != 5 { // netlist, models, circuit, 2 simulations
		t.Errorf("TasksRun = %d, want 5", res.TasksRun)
	}
}

func TestParallelBranchesFaster(t *testing.T) {
	// Fig. 6: disjoint branches on parallel "machines".
	r := newRig(t)
	build := func() *flow.Flow {
		f := flow.New(r.s, r.db)
		for i := 0; i < 4; i++ {
			n := f.MustAdd("EditedNetlist")
			if err := f.ExpandDown(n, false); err != nil {
				t.Fatal(err)
			}
			tn, _ := f.Node(n).Dep("fd")
			if err := f.Bind(tn, r.ids["netEdGen"]); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	delay := RunOptions{TaskDelay: fixedDelay(20 * time.Millisecond)}
	r.engine.SetWorkers(1)
	serial, err := r.run(build(), delay)
	if err != nil {
		t.Fatal(err)
	}
	r.engine.SetWorkers(4)
	parallel, err := r.run(build(), delay)
	if err != nil {
		t.Fatal(err)
	}
	if parallel.Elapsed*2 >= serial.Elapsed {
		t.Errorf("parallel %v should be well under serial %v", parallel.Elapsed, serial.Elapsed)
	}
	if serial.TasksRun != 4 || parallel.TasksRun != 4 {
		t.Errorf("tasks = %d / %d", serial.TasksRun, parallel.TasksRun)
	}
}

func TestCompositeCheckFailure(t *testing.T) {
	r := newRig(t)
	// A Circuit whose DeviceModels part is garbage must fail the
	// composite consistency check.
	bad, err := r.db.Record(history.Instance{Type: "Stimuli", User: "rig",
		Data: r.store.Put([]byte("not a library"))})
	if err != nil {
		t.Fatal(err)
	}
	_ = bad
	f := flow.New(r.s, r.db)
	cct := f.MustAdd("Circuit")
	if err := f.ExpandDown(cct, false); err != nil {
		t.Fatal(err)
	}
	dmN, _ := f.Node(cct).Dep("DeviceModels")
	netN, _ := f.Node(cct).Dep("Netlist")
	if err := f.Specialize(netN, "EditedNetlist"); err != nil {
		t.Fatal(err)
	}
	if err := f.ExpandDown(netN, false); err != nil {
		t.Fatal(err)
	}
	netToolN, _ := f.Node(netN).Dep("fd")
	if err := f.Bind(netToolN, r.ids["netEdGen"]); err != nil {
		t.Fatal(err)
	}
	// Bind a DeviceModels instance whose artifact is broken.
	dmBad, err := r.db.Record(history.Instance{Type: "DeviceModels", User: "rig",
		Tool: r.ids["dmEd"], Data: r.store.Put([]byte("garbage"))})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Bind(dmN, dmBad.ID); err != nil {
		t.Fatal(err)
	}
	_, err = r.engine.RunFlow(f)
	if err == nil || !strings.Contains(err.Error(), "consistency check failed") {
		t.Errorf("err = %v", err)
	}
}

func TestCompiledSimulatorToolCreatedInFlow(t *testing.T) {
	// Fig. 2 end to end, in ONE flow: the simulator that runs the
	// performance task is itself constructed by the flow (compiled for
	// the very netlist being simulated), and the netlist node is shared
	// between the compiler and the circuit.
	r := newRig(t)
	f := flow.New(r.s, r.db)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	perf := f.MustAdd("Performance")
	must(f.ExpandDown(perf, false))
	simN, _ := f.Node(perf).Dep("fd")
	cctN, _ := f.Node(perf).Dep("Circuit")
	stimN, _ := f.Node(perf).Dep("Stimuli")
	must(f.ExpandDown(cctN, false))
	dmN, _ := f.Node(cctN).Dep("DeviceModels")
	netN, _ := f.Node(cctN).Dep("Netlist")
	must(f.Specialize(netN, "EditedNetlist"))
	must(f.ExpandDown(netN, false))
	netToolN, _ := f.Node(netN).Dep("fd")
	must(f.ExpandDown(dmN, false))
	dmToolN, _ := f.Node(dmN).Dep("fd")
	// The simulator node: specialize to CompiledSimulator and expand —
	// its construction needs the SimulatorCompiler and a Netlist; share
	// the flow's netlist node.
	must(f.Specialize(simN, "CompiledSimulator"))
	must(f.Connect(simN, "Netlist", netN))
	must(f.ExpandDown(simN, false))
	compilerN, _ := f.Node(simN).Dep("fd")

	must(f.Bind(stimN, r.ids["stim"]))
	must(f.Bind(dmToolN, r.ids["dmEd"]))
	must(f.Bind(netToolN, r.ids["netEdGen"]))
	must(f.Bind(compilerN, r.ids["compiler"]))

	res, err := r.engine.RunFlow(f)
	if err != nil {
		t.Fatalf("RunFlow: %v", err)
	}
	pid, err := res.One(perf)
	if err != nil {
		t.Fatal(err)
	}
	// The performance derivation names the compiled simulator, whose own
	// derivation names the compiler and the shared netlist.
	pin := r.db.Get(pid)
	simInst := r.db.Get(pin.Tool)
	if simInst.Type != "CompiledSimulator" {
		t.Fatalf("tool = %s", simInst.Type)
	}
	if simInst.Tool != r.ids["compiler"] {
		t.Error("compiled simulator should derive from the compiler")
	}
	netUsedBySim, _ := simInst.InputFor("Netlist")
	cctInst := r.db.Get(mustInput(t, pin, "Circuit"))
	netUsedByCct := mustInput(t, cctInst, "Netlist")
	if netUsedBySim != netUsedByCct {
		t.Error("shared netlist node should yield one shared instance")
	}
	// Functional results: compiled run on the full adder.
	data, _ := r.store.Get(pin.Data)
	if !strings.Contains(string(data), "sample 2 cout=1 sum=1") {
		t.Errorf("compiled simulation wrong:\n%s", string(data))
	}
}

func TestPhysicalFlowFig8(t *testing.T) {
	// Fig. 8: (a) synthesize the physical view from the netlist via the
	// placer; (b) verify the physical view against the netlist by
	// extraction + LVS.
	r := newRig(t)
	f := flow.New(r.s, r.db)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Synthesis: PlacedLayout <- (Placer, Netlist, PlacementOptions).
	lay := f.MustAdd("PlacedLayout")
	must(f.ExpandDown(lay, false))
	placerN, _ := f.Node(lay).Dep("fd")
	netN, _ := f.Node(lay).Dep("Netlist")
	poptsN, _ := f.Node(lay).Dep("PlacementOptions")
	must(f.Specialize(netN, "EditedNetlist"))
	must(f.ExpandDown(netN, false))
	netToolN, _ := f.Node(netN).Dep("fd")
	// Verification: extract the layout and compare against the netlist.
	xnet, err := f.ExpandUp(lay, "ExtractedNetlist", "Layout")
	if err != nil {
		t.Fatal(err)
	}
	must(f.ExpandDown(xnet, false))
	extrN, _ := f.Node(xnet).Dep("fd")
	ver, err := f.ExpandUp(xnet, "Verification", "Netlist/subject")
	if err != nil {
		t.Fatal(err)
	}
	must(f.Connect(ver, "Netlist/reference", netN))
	must(f.ExpandDown(ver, false))
	verToolN, _ := f.Node(ver).Dep("fd")

	must(f.Bind(placerN, r.ids["placer"]))
	must(f.Bind(poptsN, r.ids["popts"]))
	must(f.Bind(netToolN, r.ids["netEdGen"]))
	must(f.Bind(extrN, r.ids["extractor"]))
	must(f.Bind(verToolN, r.ids["verifier"]))

	res, err := r.engine.RunFlow(f)
	if err != nil {
		t.Fatalf("RunFlow: %v", err)
	}
	vid, err := res.One(ver)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := r.store.Get(r.db.Get(vid).Data)
	if !strings.Contains(string(data), "MATCH") || strings.Contains(string(data), "MISMATCH") {
		t.Errorf("verification should match:\n%s", string(data))
	}
}

func TestOptimizerToolsAsData(t *testing.T) {
	r := newRig(t)
	f := flow.New(r.s, r.db)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	om := f.MustAdd("OptimizedModels")
	must(f.ExpandDown(om, false))
	optN, _ := f.Node(om).Dep("fd")
	cctN, _ := f.Node(om).Dep("Circuit")
	stimN, _ := f.Node(om).Dep("Stimuli")
	goalN, _ := f.Node(om).Dep("OptimizationGoal")
	engineN, _ := f.Node(om).Dep("Simulator/engine")
	must(f.ExpandDown(cctN, false))
	dmN, _ := f.Node(cctN).Dep("DeviceModels")
	netN, _ := f.Node(cctN).Dep("Netlist")
	must(f.ExpandDown(dmN, false))
	dmToolN, _ := f.Node(dmN).Dep("fd")
	must(f.Specialize(netN, "EditedNetlist"))
	must(f.ExpandDown(netN, false))
	netToolN, _ := f.Node(netN).Dep("fd")

	must(f.Bind(optN, r.ids["ropt"]))
	must(f.Bind(stimN, r.ids["stim"]))
	must(f.Bind(goalN, r.ids["ogoal"]))
	must(f.Bind(engineN, r.ids["sim"])) // a tool as a data input
	must(f.Bind(dmToolN, r.ids["dmEd"]))
	must(f.Bind(netToolN, r.ids["netEdGen"]))

	res, err := r.engine.RunFlow(f)
	if err != nil {
		t.Fatalf("RunFlow: %v", err)
	}
	oid, err := res.One(om)
	if err != nil {
		t.Fatal(err)
	}
	oin := r.db.Get(oid)
	// The optimized models are DeviceModels by subtype and record the
	// simulator among their inputs.
	if !r.s.IsSubtypeOf(oin.Type, "DeviceModels") {
		t.Errorf("type = %s", oin.Type)
	}
	if got, _ := oin.InputFor("Simulator/engine"); got != r.ids["sim"] {
		t.Error("simulator input not recorded")
	}
	data, _ := r.store.Get(oin.Data)
	if !strings.Contains(string(data), "library") || !strings.Contains(string(data), "random-search") {
		t.Errorf("optimized models artifact:\n%s", string(data))
	}
}

func TestRetraceAfterEdit(t *testing.T) {
	r := newRig(t)
	f, perf := r.perfFlow(t)
	res, err := r.engine.RunFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	pid, err := res.One(perf)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh: nothing to do.
	rr, err := r.engine.Retrace(pid)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Fresh {
		t.Fatalf("expected fresh, plan: %s", rr.Plan)
	}

	// Edit the netlist: a new version supersedes the one the circuit
	// used.
	cctN, _ := f.Node(perf).Dep("Circuit")
	netN, _ := f.Node(cctN).Dep("Netlist")
	oldNet, err := res.One(netN)
	if err != nil {
		t.Fatal(err)
	}
	oldNetIn := r.db.Get(oldNet)
	oldData, _ := r.store.Get(oldNetIn.Data)
	newNet, err := r.db.Record(history.Instance{Type: "EditedNetlist", User: "rig",
		Tool:   r.ids["netEdCopy"],
		Inputs: []history.Input{{Key: "Netlist", Inst: oldNet}},
		Data:   r.store.Put(append(append([]byte(nil), oldData...), []byte("# rev2\n")...))})
	if err != nil {
		t.Fatal(err)
	}
	_ = newNet

	ood, err := r.db.OutOfDate(pid)
	if err != nil {
		t.Fatal(err)
	}
	if !ood {
		t.Fatal("performance should be stale after the edit")
	}
	rr, err = r.engine.Retrace(pid)
	if err != nil {
		t.Fatalf("Retrace: %v", err)
	}
	if rr.Fresh || len(rr.Rebuilt) != 2 { // circuit + performance
		t.Fatalf("rebuilt = %v", rr.Rebuilt)
	}
	newPid := rr.NewTarget(pid)
	if newPid == pid {
		t.Fatal("target not rebuilt")
	}
	// The new performance derives from the new netlist version.
	nets, err := r.db.DerivedWith(newPid, "Netlist")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range nets {
		if n == newNet.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("new performance should derive from %s; derives from %v", newNet.ID, nets)
	}
	// And is itself up to date now.
	ood, err = r.db.OutOfDate(newPid)
	if err != nil {
		t.Fatal(err)
	}
	if ood {
		t.Error("retraced performance should be fresh")
	}
}

func TestResultHelpers(t *testing.T) {
	res := &Result{Created: map[flow.NodeID][]history.ID{1: {"A:1", "A:2"}}}
	if _, err := res.One(1); err == nil {
		t.Error("One on fan-out should fail")
	}
	if _, err := res.One(99); err == nil {
		t.Error("One on missing node should fail")
	}
	got := res.InstancesOf(1)
	got[0] = "X:9"
	if res.Created[1][0] == "X:9" {
		t.Error("InstancesOf returned live slice")
	}
}

func TestDeterministicInstanceOrder(t *testing.T) {
	// Even with parallel workers, recording order (and hence IDs) is
	// deterministic.
	run := func() string {
		r := newRig(t)
		r.engine.SetWorkers(4)
		f, perf := r.perfFlow(t)
		stimN, _ := f.Node(perf).Dep("Stimuli")
		if err := f.Bind(stimN, r.ids["stim"], r.ids["stim2"]); err != nil {
			t.Fatal(err)
		}
		res, err := r.engine.RunFlow(f)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(idStrings(res.InstancesOf(perf)), ",")
	}
	if run() != run() {
		t.Error("instance IDs differ across identical parallel runs")
	}
}

func idStrings(ids []history.ID) []string {
	out := make([]string, len(ids))
	for i, x := range ids {
		out[i] = string(x)
	}
	return out
}
