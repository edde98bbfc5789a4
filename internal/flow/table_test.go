package flow

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"repro/internal/schema"
)

// These tests pin the node table's contracts: dependency slices handed
// out are snapshots that no later mutation rewrites, a clone shares
// them without sharing mutations, lookups outside the table miss, and a
// finished flow reads safely from many goroutines.

// depSnap is one node's dependency slices as DepKeys and Children
// handed them out, with copies of their contents at that moment.
type depSnap struct {
	id                 NodeID
	keys, keysWas      []string
	children, childWas []NodeID
}

func snapDeps(f *Flow) []depSnap {
	var out []depSnap
	for _, id := range f.NodeIDs() {
		n := f.Node(id)
		out = append(out, depSnap{id: id,
			keys: n.DepKeys(), keysWas: slices.Clone(n.DepKeys()),
			children: n.Children(), childWas: slices.Clone(n.Children())})
	}
	return out
}

func checkSnaps(t *testing.T, op string, snaps []depSnap) {
	t.Helper()
	for _, s := range snaps {
		if !slices.Equal(s.keys, s.keysWas) || !slices.Equal(s.children, s.childWas) {
			t.Errorf("%s rewrote node %d's earlier slices: keys %v children %v, were %v %v",
				op, s.id, s.keys, s.children, s.keysWas, s.childWas)
		}
	}
}

func TestDepSlicesAreSnapshots(t *testing.T) {
	f := New(schema.Full(), nil)
	ver := f.MustAdd("Verification")
	net := f.MustAdd("ExtractedNetlist")
	ref := f.MustAdd("ExtractedNetlist")
	ed := f.MustAdd("EditedNetlist")
	opt := f.MustAdd("OptimizedModels")
	connect := func(key, typ string) func() error {
		return func() error { return f.Connect(opt, key, f.MustAdd(typ)) }
	}
	steps := []struct {
		name string
		node NodeID // the node whose dependencies the step changes, 0 if none
		op   func() error
	}{
		{"Connect", ver, func() error { return f.Connect(ver, "Netlist/subject", net) }},
		// Inserts ahead of the existing key, shifting it.
		{"Connect before", ver, func() error { return f.Connect(ver, "Netlist/reference", ref) }},
		// Inserts "fd" at the front.
		{"ExpandDown", ver, func() error { return f.ExpandDown(ver, false) }},
		// One key at a time, into the middle, up to five keys.
		{"Connect", opt, connect("Stimuli", "Stimuli")},
		{"Connect before", opt, connect("Circuit", "Circuit")},
		{"Connect between", opt, connect("Simulator/engine", "InstalledSimulator")},
		{"Connect between", opt, connect("OptimizationGoal", "OptimizationGoal")},
		{"ExpandDown", opt, func() error { return f.ExpandDown(opt, false) }},
		{"ExpandDown", ed, func() error { return f.ExpandDown(ed, false) }},
		{"ExpandOptional", ed, func() error { return f.ExpandOptional(ed, "Netlist") }},
		{"ExpandUp", 0, func() error {
			_, err := f.ExpandUp(net, "Verification", "Netlist/subject")
			return err
		}},
		{"Unexpand", ver, func() error { return f.Unexpand(ver) }},
	}
	for _, st := range steps {
		snaps := snapDeps(f)
		var before []string
		if st.node != 0 {
			before = slices.Clone(f.Node(st.node).DepKeys())
		}
		if err := st.op(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		checkSnaps(t, st.name, snaps)
		if st.node != 0 && slices.Equal(f.Node(st.node).DepKeys(), before) {
			t.Errorf("%s left node %d's keys at %v; the step tests nothing", st.name, st.node, before)
		}
	}
	if got := f.Node(ver).DepKeys(); len(got) != 0 {
		t.Errorf("keys after Unexpand = %v", got)
	}
}

func TestDepKeysOrderAndChildrenAlign(t *testing.T) {
	f := New(schema.Fig1(), nil)
	ver := f.MustAdd("Verification")
	sub := f.MustAdd("ExtractedNetlist")
	ref := f.MustAdd("ExtractedNetlist")
	if err := f.Connect(ver, "Netlist/subject", sub); err != nil {
		t.Fatal(err)
	}
	if err := f.Connect(ver, "Netlist/reference", ref); err != nil {
		t.Fatal(err)
	}
	if err := f.ExpandDown(ver, false); err != nil {
		t.Fatal(err)
	}
	n := f.Node(ver)
	tool, _ := n.Dep("fd")
	if want := []string{"fd", "Netlist/reference", "Netlist/subject"}; !slices.Equal(n.DepKeys(), want) {
		t.Errorf("DepKeys = %v, want %v", n.DepKeys(), want)
	}
	if want := []NodeID{tool, ref, sub}; !slices.Equal(n.Children(), want) {
		t.Errorf("Children = %v, want %v", n.Children(), want)
	}
	if _, ok := n.Dep("Nope"); ok {
		t.Error("Dep found an unfilled key")
	}
	// Decode rebuilds the same order from the unordered "deps" object.
	d := encodeDecode(t, f, nil).Node(ver)
	if !slices.Equal(d.DepKeys(), n.DepKeys()) || !slices.Equal(d.Children(), n.Children()) {
		t.Errorf("decoded keys %v children %v, want %v %v", d.DepKeys(), d.Children(), n.DepKeys(), n.Children())
	}
}

func TestCloneMutationLeavesOriginal(t *testing.T) {
	f, ids := simFlow(t)
	var want bytes.Buffer
	if err := f.Encode(&want); err != nil {
		t.Fatal(err)
	}
	snaps := snapDeps(f)
	c := f.Clone()
	if err := c.Unexpand(ids["cct"]); err != nil {
		t.Fatal(err)
	}
	if err := c.ExpandDown(ids["cct"], false); err != nil {
		t.Fatal(err)
	}
	if err := c.Bind(ids["stim"], "Stimuli:1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Unexpand(ids["perf"]); err != nil {
		t.Fatal(err)
	}
	if err := c.ExpandDown(ids["perf"], false); err != nil {
		t.Fatal(err)
	}
	c.Node(ids["perf"]).Type = "Mutated"
	checkSnaps(t, "mutating a clone", snaps)
	for _, s := range snaps {
		n := f.Node(s.id)
		if !slices.Equal(n.DepKeys(), s.keysWas) || !slices.Equal(n.Children(), s.childWas) {
			t.Errorf("node %d now has keys %v children %v, had %v %v",
				s.id, n.DepKeys(), n.Children(), s.keysWas, s.childWas)
		}
	}
	var got bytes.Buffer
	if err := f.Encode(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("original re-encodes differently after its clone changed:\n%s\nwant:\n%s", got.Bytes(), want.Bytes())
	}
}

func TestNodeOutsideTableIsNil(t *testing.T) {
	if New(schema.Fig1(), nil).Node(1) != nil {
		t.Error("an empty flow returned a node")
	}
	f, ids := simFlow(t)
	for _, id := range []NodeID{0, -1, f.MaxID() + 1} {
		if n := f.Node(id); n != nil {
			t.Errorf("Node(%d) = %+v, want nil", id, n)
		}
	}
	if err := f.Unexpand(ids["cct"]); err != nil {
		t.Fatal(err)
	}
	if n := f.Node(ids["dm"]); n != nil {
		t.Errorf("removed Node(%d) = %+v, want nil", ids["dm"], n)
	}
}

// TestConcurrentAnalysesOnFinishedFlow reads one finished flow from
// several goroutines at once; run it under -race.
func TestConcurrentAnalysesOnFinishedFlow(t *testing.T) {
	f, ids := fig5Flow(t)
	for _, leaf := range f.Leaves() {
		if err := f.Bind(leaf, "X:1"); err != nil {
			t.Fatal(err)
		}
	}
	roots := f.Roots()
	wantOrder, err := f.Order()
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := f.ExecutableAll(roots); !ok {
		t.Fatalf("fixture not executable: %s", why)
	}
	wantRender := f.Render()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if got, err := f.Order(); err != nil || !slices.Equal(got, wantOrder) {
					t.Errorf("Order = %v, %v; want %v", got, err, wantOrder)
				}
				if ok, why := f.ExecutableAll(roots); !ok {
					t.Errorf("ExecutableAll: %s", why)
				}
				if got := f.Render(); got != wantRender {
					t.Errorf("Render differs:\n%s\nwant:\n%s", got, wantRender)
				}
				if _, ok := f.Node(ids["perf"]).Dep("fd"); !ok {
					t.Error("perf lost its tool")
				}
			}
		}()
	}
	wg.Wait()
}
