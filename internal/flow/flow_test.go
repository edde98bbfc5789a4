package flow

import (
	"strings"
	"testing"

	"repro/internal/history"
	"repro/internal/schema"
)

// simFlow builds the paper's running example flow goal-first:
//
//	Performance <- (Simulator, Circuit(DeviceModels, Netlist), Stimuli)
//
// and returns the flow plus the node IDs by role.
func simFlow(t *testing.T) (*Flow, map[string]NodeID) {
	t.Helper()
	f := New(schema.Fig1(), nil)
	ids := make(map[string]NodeID)
	var err error
	ids["perf"], err = f.Add("Performance")
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := f.ExpandDown(ids["perf"], false); err != nil {
		t.Fatalf("ExpandDown(perf): %v", err)
	}
	perf := f.Node(ids["perf"])
	ids["sim"], _ = perf.Dep("fd")
	ids["cct"], _ = perf.Dep("Circuit")
	ids["stim"], _ = perf.Dep("Stimuli")
	if err := f.ExpandDown(ids["cct"], false); err != nil {
		t.Fatalf("ExpandDown(cct): %v", err)
	}
	cct := f.Node(ids["cct"])
	ids["dm"], _ = cct.Dep("DeviceModels")
	ids["net"], _ = cct.Dep("Netlist")
	return f, ids
}

func TestAddUnknownType(t *testing.T) {
	f := New(schema.Fig1(), nil)
	if _, err := f.Add("Nope"); err == nil {
		t.Error("Add unknown type should fail")
	}
}

func TestGoalBasedConstruction(t *testing.T) {
	f, ids := simFlow(t)
	if f.Len() != 6 {
		t.Errorf("Len = %d, want 6", f.Len())
	}
	if err := f.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	roots := f.Roots()
	if len(roots) != 1 || roots[0] != ids["perf"] {
		t.Errorf("Roots = %v", roots)
	}
	leaves := f.Leaves()
	if len(leaves) != 4 { // sim, stim, dm, net
		t.Errorf("Leaves = %v", leaves)
	}
}

func TestExpandDownIdempotentPerDep(t *testing.T) {
	f, ids := simFlow(t)
	before := f.Len()
	if err := f.ExpandDown(ids["perf"], false); err != nil {
		t.Fatalf("second ExpandDown: %v", err)
	}
	if f.Len() != before {
		t.Error("re-expansion must not duplicate children")
	}
}

func TestExpandDownErrors(t *testing.T) {
	f := New(schema.Fig1(), nil)
	// Abstract type must be specialized first (Fig. 4).
	n := f.MustAdd("Netlist")
	err := f.ExpandDown(n, false)
	if err == nil || !strings.Contains(err.Error(), "specialize first") {
		t.Errorf("expand abstract: %v", err)
	}
	// Primitive sources don't expand.
	s := f.MustAdd("Stimuli")
	err = f.ExpandDown(s, false)
	if err == nil || !strings.Contains(err.Error(), "primitive source") {
		t.Errorf("expand primitive: %v", err)
	}
	if err := f.ExpandDown(999, false); err == nil {
		t.Error("expand missing node should fail")
	}
}

func TestSpecializeThenExpand(t *testing.T) {
	// Fig. 4(b): the netlist is specialized to an Extracted Netlist
	// before expansion.
	f, ids := simFlow(t)
	choices, err := f.SpecializationChoices(ids["net"])
	if err != nil {
		t.Fatalf("SpecializationChoices: %v", err)
	}
	if len(choices) != 2 {
		t.Fatalf("choices = %v", choices)
	}
	if err := f.Specialize(ids["net"], "ExtractedNetlist"); err != nil {
		t.Fatalf("Specialize: %v", err)
	}
	if err := f.ExpandDown(ids["net"], false); err != nil {
		t.Fatalf("ExpandDown after specialize: %v", err)
	}
	net := f.Node(ids["net"])
	if _, ok := net.Dep("fd"); !ok {
		t.Error("extractor child missing")
	}
	if _, ok := net.Dep("Layout"); !ok {
		t.Error("layout child missing")
	}
	if err := f.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestSpecializeErrors(t *testing.T) {
	f, ids := simFlow(t)
	if err := f.Specialize(ids["net"], "Layout"); err == nil {
		t.Error("cross-type specialization should fail")
	}
	if err := f.Specialize(ids["net"], "Nope"); err == nil {
		t.Error("unknown subtype should fail")
	}
	if err := f.Specialize(999, "ExtractedNetlist"); err == nil {
		t.Error("missing node should fail")
	}
	// No-op self-specialization.
	if err := f.Specialize(ids["net"], "Netlist"); err != nil {
		t.Errorf("self specialization: %v", err)
	}
	// Expanded node cannot be specialized.
	if err := f.Specialize(ids["cct"], "Circuit"); err != nil {
		t.Errorf("no-op on expanded: %v", err)
	}
	if err := f.Specialize(ids["net"], "ExtractedNetlist"); err != nil {
		t.Fatalf("Specialize: %v", err)
	}
	if err := f.ExpandDown(ids["net"], false); err != nil {
		t.Fatalf("ExpandDown: %v", err)
	}
	if err := f.Specialize(ids["net"], "EditedNetlist"); err == nil {
		t.Error("specializing an expanded node should fail")
	}
}

func TestExpandOptional(t *testing.T) {
	f := New(schema.Fig1(), nil)
	n := f.MustAdd("EditedNetlist")
	if err := f.ExpandDown(n, false); err != nil {
		t.Fatalf("ExpandDown: %v", err)
	}
	// Optional Netlist dd was skipped.
	if _, ok := f.Node(n).Dep("Netlist"); ok {
		t.Fatal("optional dep should be skipped by default")
	}
	if err := f.ExpandOptional(n, "Netlist"); err != nil {
		t.Fatalf("ExpandOptional: %v", err)
	}
	if _, ok := f.Node(n).Dep("Netlist"); !ok {
		t.Error("optional dep not added")
	}
	if err := f.ExpandOptional(n, "Netlist"); err == nil {
		t.Error("double ExpandOptional should fail")
	}
	if err := f.ExpandOptional(n, "Nope"); err == nil {
		t.Error("unknown key should fail")
	}
	// Required dep is rejected.
	f2, ids := simFlow(t)
	if err := f2.ExpandOptional(ids["perf"], "Circuit"); err == nil {
		t.Error("ExpandOptional on required dep should fail")
	}
}

func TestExpandDownWithOptional(t *testing.T) {
	f := New(schema.Fig1(), nil)
	n := f.MustAdd("EditedNetlist")
	if err := f.ExpandDown(n, true); err != nil {
		t.Fatalf("ExpandDown: %v", err)
	}
	if _, ok := f.Node(n).Dep("Netlist"); !ok {
		t.Error("withOptional should include optional deps")
	}
}

func TestDataBasedConstructionExpandUp(t *testing.T) {
	// §3.4 data-based approach: start from a netlist, ask what it can be
	// used for, and grow upward to a Verification.
	f := New(schema.Fig1(), nil)
	net := f.MustAdd("ExtractedNetlist")
	choices, err := f.UpChoices(net)
	if err != nil {
		t.Fatalf("UpChoices: %v", err)
	}
	found := false
	for _, c := range choices {
		if c.Consumer == "Verification" && c.DepKey == "Netlist/subject" {
			found = true
		}
	}
	if !found {
		t.Fatalf("UpChoices missing Verification subject: %v", choices)
	}
	ver, err := f.ExpandUp(net, "Verification", "Netlist/subject")
	if err != nil {
		t.Fatalf("ExpandUp: %v", err)
	}
	if got, _ := f.Node(ver).Dep("Netlist/subject"); got != net {
		t.Error("ExpandUp edge missing")
	}
	// Complete the verification task.
	if err := f.ExpandDown(ver, false); err != nil {
		t.Fatalf("ExpandDown(ver): %v", err)
	}
	if err := f.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if n := f.Node(ver); len(n.DepKeys()) != 3 { // fd + two netlists
		t.Errorf("verification deps = %v", n.DepKeys())
	}
}

func TestToolBasedConstructionExpandUpFd(t *testing.T) {
	// §3.4 tool-based approach: start from the simulator and grow to the
	// performance it produces.
	f := New(schema.Fig1(), nil)
	sim := f.MustAdd("InstalledSimulator")
	perf, err := f.ExpandUp(sim, "Performance", "fd")
	if err != nil {
		t.Fatalf("ExpandUp fd: %v", err)
	}
	if got, _ := f.Node(perf).Dep("fd"); got != sim {
		t.Error("fd edge missing")
	}
	if err := f.ExpandDown(perf, false); err != nil {
		t.Fatalf("ExpandDown: %v", err)
	}
	// The already-filled fd must not be duplicated.
	if len(f.Node(perf).DepKeys()) != 3 {
		t.Errorf("perf deps = %v", f.Node(perf).DepKeys())
	}
	if err := f.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestExpandUpErrors(t *testing.T) {
	f := New(schema.Fig1(), nil)
	net := f.MustAdd("ExtractedNetlist")
	if _, err := f.ExpandUp(net, "Nope", "Netlist"); err == nil {
		t.Error("unknown consumer should fail")
	}
	if _, err := f.ExpandUp(net, "Performance", "Stimuli"); err == nil {
		t.Error("type mismatch should fail")
	}
	if _, err := f.ExpandUp(net, "Performance", "Nope"); err == nil {
		t.Error("unknown dep should fail")
	}
	if _, err := f.ExpandUp(999, "Performance", "Circuit"); err == nil {
		t.Error("missing node should fail")
	}
	if _, err := f.ExpandUp(net, "Stimuli", "fd"); err == nil {
		t.Error("consumer without fd should fail")
	}
}

func TestConnectReuse(t *testing.T) {
	// Fig. 5: one netlist entity reused by several subtasks.
	f := New(schema.Fig1(), nil)
	net := f.MustAdd("ExtractedNetlist")
	ver, err := f.ExpandUp(net, "Verification", "Netlist/reference")
	if err != nil {
		t.Fatalf("ExpandUp: %v", err)
	}
	cct := f.MustAdd("Circuit")
	if err := f.Connect(cct, "Netlist", net); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	// net now has two parents.
	parents := f.Parents(net)
	if len(parents) != 2 {
		t.Fatalf("Parents = %v", parents)
	}
	_ = ver
	if err := f.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestConnectErrors(t *testing.T) {
	f, ids := simFlow(t)
	// Duplicate fill.
	if err := f.Connect(ids["cct"], "Netlist", ids["net"]); err == nil {
		t.Error("Connect on filled dep should fail")
	}
	// Type mismatch.
	extra := f.MustAdd("Verification")
	if err := f.Connect(extra, "Netlist/reference", ids["stim"]); err == nil {
		t.Error("Connect with wrong type should fail")
	}
	// Cycle: make the netlist (under cct) depend back up. EditedNetlist
	// could take a Netlist; connecting perf's ancestor under it isn't
	// type-legal, so build a legal-but-cyclic attempt:
	f2 := New(schema.Fig1(), nil)
	a := f2.MustAdd("EditedNetlist")
	if err := f2.ExpandOptional(a, "Netlist"); err != nil {
		t.Fatalf("ExpandOptional: %v", err)
	}
	child, _ := f2.Node(a).Dep("Netlist")
	if err := f2.Specialize(child, "EditedNetlist"); err != nil {
		t.Fatalf("Specialize: %v", err)
	}
	if err := f2.Connect(child, "Netlist", a); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle connect err = %v", err)
	}
	if err := f.Connect(999, "Netlist", ids["net"]); err == nil {
		t.Error("missing parent should fail")
	}
	if err := f.Connect(extra, "Netlist/subject", 999); err == nil {
		t.Error("missing child should fail")
	}
}

func TestUnexpandRemovesOrphans(t *testing.T) {
	f, ids := simFlow(t)
	if err := f.Unexpand(ids["cct"]); err != nil {
		t.Fatalf("Unexpand: %v", err)
	}
	if f.Node(ids["dm"]) != nil || f.Node(ids["net"]) != nil {
		t.Error("unexpanded children should be removed")
	}
	if f.Node(ids["cct"]) == nil {
		t.Error("unexpanded node itself must remain")
	}
	if f.Len() != 4 {
		t.Errorf("Len = %d, want 4", f.Len())
	}
	// Unexpanding the root removes everything except designer-placed
	// nodes.
	if err := f.Unexpand(ids["perf"]); err != nil {
		t.Fatalf("Unexpand(perf): %v", err)
	}
	if f.Len() != 1 {
		t.Errorf("Len = %d, want 1 (just the goal)", f.Len())
	}
	if err := f.Unexpand(999); err == nil {
		t.Error("Unexpand missing node should fail")
	}
}

func TestUnexpandKeepsSharedAndBound(t *testing.T) {
	f, ids := simFlow(t)
	// Share the netlist with a verification.
	ver, err := f.ExpandUp(ids["net"], "Verification", "Netlist/subject")
	if err != nil {
		t.Fatalf("ExpandUp: %v", err)
	}
	if err := f.Unexpand(ids["cct"]); err != nil {
		t.Fatalf("Unexpand: %v", err)
	}
	if f.Node(ids["net"]) == nil {
		t.Error("shared node must survive unexpand of one parent")
	}
	if f.Node(ids["dm"]) != nil {
		t.Error("unshared sibling should be removed")
	}
	_ = ver
}

func TestBindAndExecutable(t *testing.T) {
	dbs := schema.Fig1()
	db := history.NewDB(dbs)
	layoutEd := db.MustRecord(history.Instance{Type: "LayoutEditor"})
	l1 := db.MustRecord(history.Instance{Type: "EditedLayout", Tool: layoutEd.ID})
	sim := db.MustRecord(history.Instance{Type: "InstalledSimulator"})
	st := db.MustRecord(history.Instance{Type: "Stimuli"})
	dm := db.MustRecord(history.Instance{Type: "DeviceModels",
		Tool: db.MustRecord(history.Instance{Type: "DeviceModelEditor"}).ID})

	f := New(dbs, db)
	perf := f.MustAdd("Performance")
	if err := f.ExpandDown(perf, false); err != nil {
		t.Fatalf("ExpandDown: %v", err)
	}
	simN, _ := f.Node(perf).Dep("fd")
	cctN, _ := f.Node(perf).Dep("Circuit")
	stimN, _ := f.Node(perf).Dep("Stimuli")
	if ok, why := f.Executable(perf); ok || why == "" {
		t.Errorf("unbound flow should not be executable: %v %q", ok, why)
	}
	if err := f.ExpandDown(cctN, false); err != nil {
		t.Fatalf("ExpandDown(cct): %v", err)
	}
	dmN, _ := f.Node(cctN).Dep("DeviceModels")
	netN, _ := f.Node(cctN).Dep("Netlist")
	if err := f.Specialize(netN, "ExtractedNetlist"); err != nil {
		t.Fatalf("Specialize: %v", err)
	}
	if err := f.ExpandDown(netN, false); err != nil {
		t.Fatalf("ExpandDown(net): %v", err)
	}
	extrN, _ := f.Node(netN).Dep("fd")
	layN, _ := f.Node(netN).Dep("Layout")

	// Bind type checking.
	if err := f.Bind(simN, st.ID); err == nil {
		t.Error("binding stimuli to simulator node should fail")
	}
	if err := f.Bind(simN, "Nope:1"); err == nil {
		t.Error("binding unknown instance should fail")
	}
	if err := f.Bind(999, sim.ID); err == nil {
		t.Error("binding missing node should fail")
	}
	if err := f.Bind(simN); err == nil {
		t.Error("binding zero instances should fail")
	}

	// Bind all leaves.
	for n, inst := range map[NodeID]history.ID{
		simN: sim.ID, stimN: st.ID, dmN: dm.ID, layN: l1.ID,
	} {
		if err := f.Bind(n, inst); err != nil {
			t.Fatalf("Bind(%d): %v", n, err)
		}
	}
	// The extractor leaf is a tool node and still unbound, so the flow is
	// not yet executable.
	if ok, _ := f.Executable(extrN); ok {
		t.Error("unbound extractor should not be executable")
	}
	if ok, _ := f.Executable(perf); ok {
		t.Error("flow with unbound extractor should not be executable")
	}
	extr := db.MustRecord(history.Instance{Type: "Extractor"})
	if err := f.Bind(extrN, extr.ID); err != nil {
		t.Fatalf("Bind(extr): %v", err)
	}
	if ok, why := f.Executable(perf); !ok {
		t.Errorf("flow should now be executable: %s", why)
	}
	// Sub-flow executability (§4.1).
	if ok, why := f.Executable(netN); !ok {
		t.Errorf("netlist subflow should be executable: %s", why)
	}
	// Unbind breaks it again.
	if err := f.Unbind(layN); err != nil {
		t.Fatalf("Unbind: %v", err)
	}
	if ok, _ := f.Executable(perf); ok {
		t.Error("unbound layout should break executability")
	}
	if err := f.Unbind(999); err == nil {
		t.Error("Unbind missing node should fail")
	}
}

func TestExecutableChecksBeforeBindFix(t *testing.T) {
	f, ids := simFlow(t)
	// perf expanded but cct not expanded and nothing bound: cct is a
	// composite without its components.
	ok, why := f.Executable(ids["perf"])
	if ok {
		t.Error("should not be executable")
	}
	if why == "" {
		t.Error("want a reason")
	}
}
