package exec

import (
	"context"
	"strings"
	"testing"

	"repro/internal/datastore"
	"repro/internal/encap"
	"repro/internal/flow"
	"repro/internal/history"
)

// A run that names no world runs over the one passed to New, and its
// options' user is the one recorded on what it creates.
func TestEngineAccessors(t *testing.T) {
	r := newRig(t)
	f := flow.New(r.s, r.db)
	n := f.MustAdd("EditedNetlist")
	if err := f.ExpandDown(n, false); err != nil {
		t.Fatal(err)
	}
	tn, _ := f.Node(n).Dep("fd")
	if err := f.Bind(tn, r.ids["netEdGen"]); err != nil {
		t.Fatal(err)
	}
	res, err := r.engine.RunFlowOptions(context.Background(), f, &RunOptions{User: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	id, err := res.One(n)
	if err != nil {
		t.Fatal(err)
	}
	in := r.db.Get(id)
	if in == nil {
		t.Fatalf("%s not recorded in the database passed to New", id)
	}
	if in.User != "alice" {
		t.Errorf("recorded user = %q", in.User)
	}
	if _, ok := r.store.Get(in.Data); !ok {
		t.Errorf("artifact %s not in the datastore passed to New", in.Data)
	}
}

func TestArchiveBackedArtifacts(t *testing.T) {
	r := newRig(t)
	// Without an archive source, archive-backed instances fail clearly.
	arch := datastore.NewArchives()
	rev := arch.Open("n.cct").Checkin("netlist fulladder\nin a b cin\nout sum cout\n" +
		"gate g1 xor2 a b -> t\ngate g2 xor2 t cin -> sum\n" +
		"gate a1 and2 a b -> p\ngate a2 and2 t cin -> q\ngate o1 or2 p q -> cout\n")
	inst := r.db.MustRecord(history.Instance{Type: "EditedNetlist", User: "rig",
		Tool: r.ids["netEdGen"], Archive: "n.cct", Revision: rev})

	buildSim := func() (*flow.Flow, flow.NodeID) {
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
		must(f.Bind(netN, inst.ID))
		must(f.Bind(simN, r.ids["sim"]))
		must(f.Bind(stimN, r.ids["stim"]))
		must(f.Bind(dmToolN, r.ids["dmEd"]))
		return f, perf
	}

	f, _ := buildSim()
	_, err := r.engine.RunFlow(f)
	if err == nil || !strings.Contains(err.Error(), "no archive source") {
		t.Fatalf("err = %v, want missing-archive-source", err)
	}

	// With the source configured, the flow runs off the archive.
	withArchives := &RunOptions{Archives: arch.Checkout}
	f2, perf := buildSim()
	res, err := r.engine.RunFlowOptions(context.Background(), f2, withArchives)
	if err != nil {
		t.Fatalf("RunFlow with archive source: %v", err)
	}
	if _, err := res.One(perf); err != nil {
		t.Fatal(err)
	}

	// A dangling revision fails at checkout time.
	bad := r.db.MustRecord(history.Instance{Type: "EditedNetlist", User: "rig",
		Tool: r.ids["netEdGen"], Archive: "ghost.cct", Revision: 3})
	f3, _ := buildSim()
	netN := findNodeByBinding(f3, inst.ID)
	if err := f3.Bind(netN, bad.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := r.engine.RunFlowOptions(context.Background(), f3, withArchives); err == nil || !strings.Contains(err.Error(), "checkout") {
		t.Errorf("dangling archive err = %v", err)
	}
}

func findNodeByBinding(f *flow.Flow, inst history.ID) flow.NodeID {
	for _, id := range f.NodeIDs() {
		for _, b := range f.Node(id).Bound() {
			if b == inst {
				return id
			}
		}
	}
	return 0
}

func TestOutputKeysInError(t *testing.T) {
	// An encapsulation producing the wrong output type yields an error
	// listing what it did produce.
	r := newRig(t)
	r.engine.reg.Register("NetlistEditor", encap.Func(func(req *encap.Request) (encap.Outputs, error) {
		return encap.Outputs{"SomethingElse": []byte("x"), "Another": []byte("y")}, nil
	}))
	f := flow.New(r.s, r.db)
	n := f.MustAdd("EditedNetlist")
	if err := f.ExpandDown(n, false); err != nil {
		t.Fatal(err)
	}
	tn, _ := f.Node(n).Dep("fd")
	if err := f.Bind(tn, r.ids["netEdGen"]); err != nil {
		t.Fatal(err)
	}
	_, err := r.engine.RunFlow(f)
	if err == nil || !strings.Contains(err.Error(), "Another, SomethingElse") {
		t.Errorf("err = %v, want produced-output listing", err)
	}
}
