package exec

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/encap"
	"repro/internal/flow"
	"repro/internal/history"
	"repro/internal/schema"
)

// failingEncap fails after a configurable number of successful runs.
type failingEncap struct {
	failAfter int
	calls     int
}

var errInjected = errors.New("injected tool failure")

func (f *failingEncap) Run(r *encap.Request) (encap.Outputs, error) {
	f.calls++
	if f.calls > f.failAfter {
		return nil, errInjected
	}
	return encap.Outputs{r.Goal: []byte("ok " + r.Goal)}, nil
}

func TestToolFailurePropagates(t *testing.T) {
	r := newRig(t)
	// Replace the netlist editor with a tool that always fails.
	r.engine.reg.Register("NetlistEditor", &failingEncap{failAfter: 0})
	f := flow.New(r.s, r.db)
	n := f.MustAdd("EditedNetlist")
	if err := f.ExpandDown(n, false); err != nil {
		t.Fatal(err)
	}
	tn, _ := f.Node(n).Dep("fd")
	if err := f.Bind(tn, r.ids["netEdGen"]); err != nil {
		t.Fatal(err)
	}
	before := r.db.Len()
	_, err := r.engine.RunFlow(f)
	if err == nil || !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	// Nothing half-recorded.
	if r.db.Len() != before {
		t.Errorf("failed run recorded %d instance(s)", r.db.Len()-before)
	}
}

func TestFailureMidLevelStopsDependents(t *testing.T) {
	// Level 1 has a failing task and a succeeding sibling; the parent
	// level must never run, and the error must carry the tool context.
	r := newRig(t)
	r.engine.reg.Register("Extractor", &failingEncap{failAfter: 0})
	f := flow.New(r.s, r.db)
	ver := f.MustAdd("Verification")
	if err := f.ExpandDown(ver, false); err != nil {
		t.Fatal(err)
	}
	verToolN, _ := f.Node(ver).Dep("fd")
	ref, _ := f.Node(ver).Dep("Netlist/reference")
	sub, _ := f.Node(ver).Dep("Netlist/subject")
	// Reference: a working edited netlist; subject: an extraction that
	// will fail.
	if err := f.Specialize(ref, "EditedNetlist"); err != nil {
		t.Fatal(err)
	}
	if err := f.ExpandDown(ref, false); err != nil {
		t.Fatal(err)
	}
	refToolN, _ := f.Node(ref).Dep("fd")
	if err := f.Specialize(sub, "ExtractedNetlist"); err != nil {
		t.Fatal(err)
	}
	if err := f.ExpandDown(sub, false); err != nil {
		t.Fatal(err)
	}
	subToolN, _ := f.Node(sub).Dep("fd")
	layN, _ := f.Node(sub).Dep("Layout")
	if err := f.Specialize(layN, "EditedLayout"); err != nil {
		t.Fatal(err)
	}
	if err := f.ExpandDown(layN, false); err != nil {
		t.Fatal(err)
	}
	layToolN, _ := f.Node(layN).Dep("fd")

	for n, key := range map[flow.NodeID]string{
		verToolN: "verifier", refToolN: "netEdGen", subToolN: "extractor", layToolN: "layEdGen",
	} {
		if err := f.Bind(n, r.ids[key]); err != nil {
			t.Fatal(err)
		}
	}
	r.engine.SetWorkers(4)
	_, err := r.engine.RunFlow(f)
	if err == nil {
		t.Fatal("expected failure")
	}
	if !strings.Contains(err.Error(), "ExtractedNetlist via Extractor") {
		t.Errorf("error lacks tool context: %v", err)
	}
	// No Verification instance was recorded.
	if got := r.db.InstancesOf("Verification"); len(got) != 0 {
		t.Errorf("dependent task ran despite failure: %v", got)
	}
}

func TestFanOutPartialFailure(t *testing.T) {
	// Two stimuli instances fan out into two simulations; the second
	// simulation fails. The whole run errors and neither performance is
	// recorded (level recording is atomic).
	r := newRig(t)
	r.engine.reg.Register("Simulator", &failingEncap{failAfter: 1})
	f, perf := r.perfFlow(t)
	stimN, _ := f.Node(perf).Dep("Stimuli")
	if err := f.Bind(stimN, r.ids["stim"], r.ids["stim2"]); err != nil {
		t.Fatal(err)
	}
	_, err := r.engine.RunFlow(f)
	if err == nil {
		t.Fatal("expected failure")
	}
	if got := r.db.InstancesOf("Performance"); len(got) != 0 {
		t.Errorf("partial fan-out recorded: %v", got)
	}
}

func TestMissingEncapsulation(t *testing.T) {
	// A schema extended with a tool that has no encapsulation fails at
	// run time with a clear message.
	s := schema.Full()
	s.MustAdd(&schema.EntityType{Name: "MysteryTool", Kind: schema.KindTool})
	s.MustAdd(&schema.EntityType{Name: "MysteryData", Kind: schema.KindData,
		FuncDep: &schema.Dep{Type: "MysteryTool"}})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	r := newRig(t) // rig has its own schema; build a fresh engine here
	db := history.NewDB(s)
	eng := New(s, db, r.store, encap.StandardRegistry())
	tool := db.MustRecord(history.Instance{Type: "MysteryTool"})
	f := flow.New(s, db)
	n := f.MustAdd("MysteryData")
	if err := f.ExpandDown(n, false); err != nil {
		t.Fatal(err)
	}
	tn, _ := f.Node(n).Dep("fd")
	if err := f.Bind(tn, tool.ID); err != nil {
		t.Fatal(err)
	}
	_, err := eng.RunFlow(f)
	if err == nil || !strings.Contains(err.Error(), "no encapsulation registered") {
		t.Errorf("err = %v", err)
	}
}

func TestNewToolIncorporation(t *testing.T) {
	// §3.3: "simplifying the incorporation of new tools". Adding a new
	// extractor is one schema type (a subtype of Extractor) and one
	// installed instance; every existing flow whose fd is Extractor
	// accepts it unchanged, and the encapsulation resolves through the
	// subtype chain — zero flow edits, zero registry edits.
	r := newRig(t)
	r.s.MustAdd(&schema.EntityType{Name: "TurboExtractor", Kind: schema.KindTool,
		Parent: "Extractor", Doc: "the new, faster extractor"})
	if err := r.s.Validate(); err != nil {
		t.Fatalf("schema after extension: %v", err)
	}
	turbo := r.db.MustRecord(history.Instance{Type: "TurboExtractor", Name: "mextra-2"})

	f := flow.New(r.s, r.db)
	net := f.MustAdd("ExtractedNetlist")
	if err := f.ExpandDown(net, false); err != nil {
		t.Fatal(err)
	}
	extrN, _ := f.Node(net).Dep("fd")
	layN, _ := f.Node(net).Dep("Layout")
	if err := f.Specialize(layN, "EditedLayout"); err != nil {
		t.Fatal(err)
	}
	if err := f.ExpandDown(layN, false); err != nil {
		t.Fatal(err)
	}
	layToolN, _ := f.Node(layN).Dep("fd")
	// The unchanged flow accepts the new tool instance.
	if err := f.Bind(extrN, turbo.ID); err != nil {
		t.Fatalf("new tool rejected by old flow: %v", err)
	}
	if err := f.Bind(layToolN, r.ids["layEdGen"]); err != nil {
		t.Fatal(err)
	}
	res, err := r.engine.RunFlow(f)
	if err != nil {
		t.Fatalf("run with new tool: %v", err)
	}
	id, err := res.One(net)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.db.Get(id).Tool; got != turbo.ID {
		t.Errorf("derivation tool = %s, want %s", got, turbo.ID)
	}
}

func TestTaskDelayOnlyAffectsToolRuns(t *testing.T) {
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
	res, err := r.run(f, RunOptions{TaskDelay: fixedDelay(5 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed < 5*time.Millisecond {
		t.Errorf("task delay not applied: %v", res.Elapsed)
	}
}

func TestSetWorkersClamp(t *testing.T) {
	r := newRig(t)
	r.engine.SetWorkers(-3)
	f, _ := r.perfFlow(t)
	if _, err := r.engine.RunFlow(f); err != nil {
		t.Errorf("run with clamped workers: %v", err)
	}
}
