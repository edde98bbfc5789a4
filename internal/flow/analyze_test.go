package flow

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/history"
	"repro/internal/schema"
)

// fig5Flow builds the complex flow of Fig. 5: a layout is extracted (two
// outputs: netlist + statistics from one extraction), the netlist is
// reused by a verification (against an edited reference netlist) and by a
// circuit that is simulated, and the performance is plotted. Multiple
// roots, shared nodes, multiple outputs of one subtask.
func fig5Flow(t *testing.T) (*Flow, map[string]NodeID) {
	t.Helper()
	f := New(schema.Fig1(), nil)
	ids := make(map[string]NodeID)

	ids["net"] = f.MustAdd("ExtractedNetlist")
	if err := f.ExpandDown(ids["net"], false); err != nil {
		t.Fatal(err)
	}
	ids["extr"], _ = f.Node(ids["net"]).Dep("fd")
	ids["lay"], _ = f.Node(ids["net"]).Dep("Layout")

	// Second output of the same extraction: statistics sharing tool and
	// layout.
	ids["stats"] = f.MustAdd("ExtractionStatistics")
	if err := f.Connect(ids["stats"], "fd", ids["extr"]); err != nil {
		t.Fatal(err)
	}
	if err := f.Connect(ids["stats"], "Layout", ids["lay"]); err != nil {
		t.Fatal(err)
	}

	// Verification reusing the netlist.
	var err error
	ids["ver"], err = f.ExpandUp(ids["net"], "Verification", "Netlist/subject")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ExpandDown(ids["ver"], false); err != nil {
		t.Fatal(err)
	}
	ids["verifier"], _ = f.Node(ids["ver"]).Dep("fd")
	ids["refnet"], _ = f.Node(ids["ver"]).Dep("Netlist/reference")

	// Circuit + simulation + plot, also reusing the netlist.
	ids["cct"] = f.MustAdd("Circuit")
	if err := f.ExpandDown(ids["cct"], false); err != nil {
		t.Fatal(err)
	}
	ids["dm"], _ = f.Node(ids["cct"]).Dep("DeviceModels")
	preNet, _ := f.Node(ids["cct"]).Dep("Netlist")
	// Replace the fresh netlist child with the shared one.
	if err := f.Unexpand(ids["cct"]); err != nil {
		t.Fatal(err)
	}
	if err := f.Connect(ids["cct"], "Netlist", ids["net"]); err != nil {
		t.Fatal(err)
	}
	dmNew := f.MustAdd("DeviceModels")
	if err := f.Connect(ids["cct"], "DeviceModels", dmNew); err != nil {
		t.Fatal(err)
	}
	ids["dm"] = dmNew
	_ = preNet

	ids["perf"], err = f.ExpandUp(ids["cct"], "Performance", "Circuit")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ExpandDown(ids["perf"], false); err != nil {
		t.Fatal(err)
	}
	ids["sim"], _ = f.Node(ids["perf"]).Dep("fd")
	ids["stim"], _ = f.Node(ids["perf"]).Dep("Stimuli")

	ids["plot"], err = f.ExpandUp(ids["perf"], "PerformancePlot", "Performance")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ExpandDown(ids["plot"], false); err != nil {
		t.Fatal(err)
	}
	ids["plotter"], _ = f.Node(ids["plot"]).Dep("fd")
	return f, ids
}

func TestFig5ComplexFlowShape(t *testing.T) {
	f, ids := fig5Flow(t)
	if err := f.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Multiple roots: stats, ver, plot.
	roots := f.Roots()
	want := map[NodeID]bool{ids["stats"]: true, ids["ver"]: true, ids["plot"]: true}
	if len(roots) != 3 {
		t.Fatalf("Roots = %v", roots)
	}
	for _, r := range roots {
		if !want[r] {
			t.Errorf("unexpected root %d", r)
		}
	}
	// Shared netlist has three parents: stats' sibling? No — net's
	// parents are ver (subject) and cct (Netlist). Extraction statistics
	// shares the extractor and layout, not the netlist.
	if got := len(f.Parents(ids["net"])); got != 2 {
		t.Errorf("net parents = %d, want 2", got)
	}
	// Shared extractor tool has two parents (net + stats).
	if got := len(f.Parents(ids["extr"])); got != 2 {
		t.Errorf("extractor parents = %d, want 2", got)
	}
	if got := len(f.Parents(ids["lay"])); got != 2 {
		t.Errorf("layout parents = %d, want 2", got)
	}
}

func TestOrderRespectsDependencies(t *testing.T) {
	f, _ := fig5Flow(t)
	order, err := f.Order()
	if err != nil {
		t.Fatalf("Order: %v", err)
	}
	pos := make(map[NodeID]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	for _, id := range f.NodeIDs() {
		n := f.Node(id)
		for _, k := range n.DepKeys() {
			c, _ := n.Dep(k)
			if pos[c] >= pos[id] {
				t.Errorf("node %d before its dependency %d", id, c)
			}
		}
	}
	if len(order) != f.Len() {
		t.Errorf("order len %d != %d", len(order), f.Len())
	}
}

func TestBranchesDisjoint(t *testing.T) {
	// Fig. 6: two separate branches in one flow.
	f := New(schema.Fig1(), nil)
	a := f.MustAdd("ExtractedNetlist")
	if err := f.ExpandDown(a, false); err != nil {
		t.Fatal(err)
	}
	b := f.MustAdd("Performance")
	if err := f.ExpandDown(b, false); err != nil {
		t.Fatal(err)
	}
	branches := f.Branches()
	if len(branches) != 2 {
		t.Fatalf("Branches = %v, want 2", branches)
	}
	sizes := map[int]bool{len(branches[0]): true, len(branches[1]): true}
	if !sizes[3] || !sizes[4] {
		t.Errorf("branch sizes = %d, %d; want 3 and 4", len(branches[0]), len(branches[1]))
	}
	// A connected flow is one branch.
	f2, _ := fig5Flow(t)
	if got := len(f2.Branches()); got != 1 {
		t.Errorf("fig5 branches = %d, want 1", got)
	}
}

func TestValidateCatchesHandMadeDamage(t *testing.T) {
	f, ids := simFlow(t)
	// Corrupt: point the Circuit dep at the Stimuli node.
	n := f.Node(ids["perf"])
	rewire(t, n, "Circuit", ids["stim"])
	err := f.Validate()
	if err == nil || !strings.Contains(err.Error(), "want Circuit") {
		t.Errorf("Validate err = %v", err)
	}
	// Dangling node reference.
	rewire(t, n, "Circuit", 999)
	if err := f.Validate(); err == nil || !strings.Contains(err.Error(), "missing node") {
		t.Errorf("Validate err = %v", err)
	}
	// Unknown dep key, filled through the one edge-insertion path so the
	// key lands at its DepKeys position.
	unwire(t, n, "Circuit")
	n.addDep("Bogus", ids["stim"])
	if err := f.Validate(); err == nil || !strings.Contains(err.Error(), "no data dependency") {
		t.Errorf("Validate err = %v", err)
	}
}

func TestRenderShowsStructure(t *testing.T) {
	f, ids := fig5Flow(t)
	out := f.Render()
	for _, want := range []string{"ExtractedNetlist", "Verification", "PerformancePlot", "(shared)", "fd:"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
	_ = ids
}

func TestBipartite(t *testing.T) {
	f, _ := simFlow(t)
	acts, err := f.Bipartite()
	if err != nil {
		t.Fatalf("Bipartite: %v", err)
	}
	if len(acts) != 2 { // circuit grouping + simulation
		t.Fatalf("activities = %v", acts)
	}
	// Execution order: circuit before performance.
	if acts[0].Output != "Circuit" || acts[1].Output != "Performance" {
		t.Errorf("activities = %v", acts)
	}
	if acts[0].Tool != "" || acts[1].Tool != "Simulator" {
		t.Errorf("tools = %q, %q", acts[0].Tool, acts[1].Tool)
	}
	if !strings.Contains(acts[0].String(), "compose") {
		t.Errorf("composite activity = %q", acts[0])
	}
	if got := acts[1].String(); !strings.Contains(got, "(Simulator):") || !strings.Contains(got, "-> Performance") {
		t.Errorf("activity string = %q", got)
	}
}

func TestLispForm(t *testing.T) {
	f, _ := simFlow(t)
	out := f.LispForm()
	// performance <- (simulator, (compose, device_models, netlist), stimuli)
	for _, want := range []string{"performance <- (", "simulator", "compose", "device_models", "netlist", "stimuli"} {
		if !strings.Contains(out, want) {
			t.Errorf("LispForm missing %q: %s", want, out)
		}
	}
	// A lone unexpanded node renders as its name.
	f2 := New(schema.Fig1(), nil)
	f2.MustAdd("EditedLayout")
	if got := f2.LispForm(); got != "edited_layout" {
		t.Errorf("LispForm = %q", got)
	}
}

func TestLispFormShowsBoundInstance(t *testing.T) {
	db := history.NewDB(schema.Fig1())
	st := db.MustRecord(history.Instance{Type: "Stimuli"})
	f := New(schema.Fig1(), db)
	perf := f.MustAdd("Performance")
	if err := f.ExpandDown(perf, false); err != nil {
		t.Fatal(err)
	}
	stim, _ := f.Node(perf).Dep("Stimuli")
	if err := f.Bind(stim, st.ID); err != nil {
		t.Fatal(err)
	}
	if out := f.LispForm(); !strings.Contains(out, string(st.ID)) {
		t.Errorf("LispForm should show bound instance: %s", out)
	}
}

func TestAsPattern(t *testing.T) {
	db := history.NewDB(schema.Fig1())
	db.SetClock(nil) // keep default; unused
	f, ids := simFlow(t)
	p := f.AsPattern()
	if len(p.Nodes) != f.Len() {
		t.Errorf("pattern nodes = %d", len(p.Nodes))
	}
	if len(p.Edges) != 5 { // perf(fd,Circuit,Stimuli) + cct(DeviceModels,Netlist)
		t.Errorf("pattern edges = %d: %v", len(p.Edges), p.Edges)
	}
	// fd edges carry the special key.
	foundFd := false
	for _, e := range p.Edges {
		if e.Key == "fd" {
			foundFd = true
		}
	}
	if !foundFd {
		t.Error("fd edge missing from pattern")
	}
	_ = ids
	_ = db
}

func TestCloneIndependence(t *testing.T) {
	f, ids := fig5Flow(t)
	c := f.Clone()
	if c.Len() != f.Len() {
		t.Fatalf("clone len %d != %d", c.Len(), f.Len())
	}
	if err := c.Unexpand(ids["perf"]); err != nil {
		t.Fatal(err)
	}
	if f.Len() != c.Len()+2 { // sim and stim removed in clone only
		t.Errorf("clone mutation leaked: f=%d c=%d", f.Len(), c.Len())
	}
	if err := f.Validate(); err != nil {
		t.Errorf("original corrupted: %v", err)
	}
}

func TestCatalog(t *testing.T) {
	cat := NewCatalog()
	f, _ := simFlow(t)
	if err := cat.Install("simulate", f); err != nil {
		t.Fatalf("Install: %v", err)
	}
	if err := cat.Install("", f); err == nil {
		t.Error("empty name should fail")
	}
	// Broken flow rejected.
	bad := New(schema.Fig1(), nil)
	n := bad.MustAdd("Performance")
	bad.Node(n).addDep("Bogus", 999)
	if err := cat.Install("bad", bad); err == nil {
		t.Error("invalid flow should be rejected")
	}
	got, err := cat.Checkout("simulate")
	if err != nil {
		t.Fatalf("Checkout: %v", err)
	}
	if got.Name != "simulate" || got.Len() != f.Len() {
		t.Errorf("checkout = %q len %d", got.Name, got.Len())
	}
	// Checkout is a copy.
	got.MustAdd("Stimuli")
	again, _ := cat.Checkout("simulate")
	if again.Len() != f.Len() {
		t.Error("catalog entry mutated by checkout user")
	}
	if _, err := cat.Checkout("nope"); err == nil {
		t.Error("unknown checkout should fail")
	}
	if names := cat.Names(); len(names) != 1 || names[0] != "simulate" {
		t.Errorf("Names = %v", names)
	}
	if cat.Len() != 1 {
		t.Errorf("Len = %d", cat.Len())
	}
	if err := cat.Remove("simulate"); err != nil {
		t.Errorf("Remove: %v", err)
	}
	if err := cat.Remove("simulate"); err == nil {
		t.Error("double remove should fail")
	}
}

// Property: any sequence of legal expansion operations keeps the flow
// valid and acyclic.
func TestQuickExpansionKeepsValid(t *testing.T) {
	s := schema.Fig2()
	starts := []string{"Performance", "Verification", "PerformancePlot", "Circuit", "ExtractedNetlist", "EditedLayout"}
	f := func(start uint8, ops []uint8) bool {
		fl := New(s, nil)
		root, err := fl.Add(starts[int(start)%len(starts)])
		if err != nil {
			return false
		}
		_ = root
		for _, op := range ops {
			nodes := fl.NodeIDs()
			id := nodes[int(op)%len(nodes)]
			switch op % 3 {
			case 0:
				// Expand (specializing abstract nodes to their first
				// concrete choice first).
				n := fl.Node(id)
				tt := s.Type(n.Type)
				if tt.Abstract {
					choices := s.ConcreteSubtypes(n.Type)
					if err := fl.Specialize(id, choices[0]); err != nil {
						continue
					}
				}
				_ = fl.ExpandDown(id, op%2 == 0) // errors fine; validity is what matters
			case 1:
				choices, err := fl.UpChoices(id)
				if err != nil || len(choices) == 0 {
					continue
				}
				c := choices[int(op/3)%len(choices)]
				_, _ = fl.ExpandUp(id, c.Consumer, c.DepKey)
			case 2:
				_ = fl.Unexpand(id)
			}
			if err := fl.Validate(); err != nil {
				t.Logf("invalid after op %d: %v\n%s", op, err, fl.Render())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Order is a permutation of the node set.
func TestQuickOrderPermutation(t *testing.T) {
	f, _ := fig5Flow(t)
	order, err := f.Order()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[NodeID]bool)
	for _, id := range order {
		if seen[id] {
			t.Fatalf("duplicate %d in order", id)
		}
		seen[id] = true
		if f.Node(id) == nil {
			t.Fatalf("unknown node %d in order", id)
		}
	}
	if len(order) != f.Len() {
		t.Fatalf("order incomplete")
	}
}
