// Package figures builds, once, the workloads that several of the
// paper's figures share: cmd/flowbench prints each figure from them, the
// root benchmarks time them, and examples/chipproject and
// examples/history run them. Every builder returns errors. Those that
// run tools work on a bootstrapped hercules session and bind the
// bootstrap tools by their short names (hercules.Session.Must); the
// flow-shape builders of Figs. 3 and 4 take the flow to build in, so a
// session's flow and a schema-only one share them. Each creates its
// flow nodes and history instances in one fixed order, so node and
// instance IDs, and every printed line that names them, are the same
// wherever it runs.
package figures

import (
	"fmt"
	"time"

	"repro/internal/cad/netlist"
	"repro/internal/cad/sim"
	"repro/internal/flow"
	"repro/internal/hercules"
	"repro/internal/history"
	"repro/internal/views"
)

// Vectors returns n stimulus vectors over nl's inputs (Fig. 2): vector
// v drives input i with bit i mod 8 of v.
func Vectors(nl *netlist.Netlist, n int) *sim.Stimuli {
	ins := nl.Inputs()
	st := sim.NewStimuli("bench", 100000000, ins...)
	for v := 0; v < n; v++ {
		bits := make([]bool, len(ins))
		for i := range bits {
			bits[i] = (v>>uint(i%8))&1 == 1
		}
		st.Vectors = append(st.Vectors, bits)
	}
	return st
}

// Branches builds n disjoint EditedNetlist branches (Fig. 6), branch i
// generated by the tool named tools[i mod len(tools)]. Alternating
// tools makes the branches distinct fault-injection sites: identical
// requests share a site and hence a fate.
func Branches(s *hercules.Session, n int, tools ...string) (*flow.Flow, error) {
	f := s.NewFlow()
	for i := 0; i < n; i++ {
		if _, err := produce(s, f, "EditedNetlist", tools[i%len(tools)]); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Placement builds Fig. 3's placement flow in f: a PlacedLayout whose
// netlist is specialized to EditedNetlist, both expanded.
func Placement(f *flow.Flow) error {
	lay, err := f.Add("PlacedLayout")
	if err != nil {
		return err
	}
	if err := f.ExpandDown(lay, false); err != nil {
		return err
	}
	net, _ := f.Node(lay).Dep("Netlist")
	if err := f.Specialize(net, "EditedNetlist"); err != nil {
		return err
	}
	return f.ExpandDown(net, false)
}

// Expansions builds Fig. 4's three flows from f: f itself, with a
// Performance goal expanded once; expansion (a), a clone of it with
// the circuit composite expanded; and expansion (b), a clone of (a)
// whose netlist is specialized to ExtractedNetlist (as in the paper),
// then expanded.
func Expansions(f *flow.Flow) (a, b *flow.Flow, err error) {
	perf, err := f.Add("Performance")
	if err != nil {
		return nil, nil, err
	}
	if err := f.ExpandDown(perf, false); err != nil {
		return nil, nil, err
	}
	a = f.Clone()
	cct, _ := a.Node(perf).Dep("Circuit")
	if err := a.ExpandDown(cct, false); err != nil {
		return nil, nil, err
	}
	b = a.Clone()
	net, _ := b.Node(cct).Dep("Netlist")
	if err := b.Specialize(net, "ExtractedNetlist"); err != nil {
		return nil, nil, err
	}
	if err := b.ExpandDown(net, false); err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// Netlist runs one EditedNetlist made by the named generator and
// returns it.
func Netlist(s *hercules.Session, tool string) (history.ID, error) {
	f, err := Branches(s, 1, tool)
	if err != nil {
		return "", err
	}
	return runOne(s, f, f.Roots()[0])
}

// Edit runs one edit of a netlist: editor applied to base. It returns
// the new version.
func Edit(s *hercules.Session, editor, base history.ID) (history.ID, error) {
	f := s.NewFlow()
	n, err := f.Add("EditedNetlist")
	if err != nil {
		return "", err
	}
	if err := f.ExpandDown(n, false); err != nil {
		return "", err
	}
	if err := f.ExpandOptional(n, "Netlist"); err != nil {
		return "", err
	}
	tn, _ := f.Node(n).Dep("fd")
	bn, _ := f.Node(n).Dep("Netlist")
	if err := f.Bind(tn, editor); err != nil {
		return "", err
	}
	if err := f.Bind(bn, base); err != nil {
		return "", err
	}
	return runOne(s, f, n)
}

// Unbalanced builds two independent EditedNetlist chains of depth tasks
// and sets s.Options.TaskDelay to their latencies, slow and fast
// alternating along each chain and opposite between the chains: every
// dependency level holds one slow and one fast task. A level-barrier
// schedule pays at least the sum of level maxima, depth×slow; the
// dataflow scheduler pays the longer chain, about depth×(slow+fast)/2.
func Unbalanced(s *hercules.Session, depth int, slow, fast time.Duration) (*flow.Flow, error) {
	f := s.NewFlow()
	delays := make(map[flow.NodeID]time.Duration)
	for c := 0; c < 2; c++ {
		prev, err := produce(s, f, "EditedNetlist", "netEd.fulladder")
		if err != nil {
			return nil, err
		}
		for d := 0; d < depth; d++ {
			if (d+c)%2 == 0 {
				delays[prev] = slow
			} else {
				delays[prev] = fast
			}
			if d == depth-1 {
				break
			}
			next, err := f.ExpandUp(prev, "EditedNetlist", "Netlist")
			if err != nil {
				return nil, err
			}
			if err := expandBind(s, f, next, "netEd.retouch"); err != nil {
				return nil, err
			}
			prev = next
		}
	}
	s.Options.TaskDelay = func(n flow.NodeID, goal string) time.Duration { return delays[n] }
	return f, nil
}

// Extracted are the nodes of the extraction flow.
type Extracted struct {
	Netlist   flow.NodeID // the ExtractedNetlist goal
	Extractor flow.NodeID // its bound extractor
	Layout    flow.NodeID // the EditedLayout it extracts
}

// Extraction adds the extraction flow to f: an ExtractedNetlist
// extracted from a generated full-adder layout, both tools bound.
func Extraction(s *hercules.Session, f *flow.Flow) (Extracted, error) {
	var e Extracted
	net, err := f.Add("ExtractedNetlist")
	if err != nil {
		return e, err
	}
	if err := f.ExpandDown(net, false); err != nil {
		return e, err
	}
	extr, _ := f.Node(net).Dep("fd")
	lay, _ := f.Node(net).Dep("Layout")
	if err := f.Specialize(lay, "EditedLayout"); err != nil {
		return e, err
	}
	if err := expandBind(s, f, lay, "layEd.fulladder"); err != nil {
		return e, err
	}
	if err := f.Bind(extr, s.Must("extractor")); err != nil {
		return e, err
	}
	return Extracted{Netlist: net, Extractor: extr, Layout: lay}, nil
}

// Fig5 builds the core of Fig. 5: the extraction flow, statistics that
// share its extraction task (a second output of one tool run), and a
// verification of the extracted netlist against itself, every tool
// bound. Running it runs three tasks.
func Fig5(s *hercules.Session) (*flow.Flow, Extracted, error) {
	f := s.NewFlow()
	e, err := Extraction(s, f)
	if err != nil {
		return nil, e, err
	}
	stats, err := f.Add("ExtractionStatistics")
	if err != nil {
		return nil, e, err
	}
	if err := f.Connect(stats, "fd", e.Extractor); err != nil {
		return nil, e, err
	}
	if err := f.Connect(stats, "Layout", e.Layout); err != nil {
		return nil, e, err
	}
	ver, err := f.ExpandUp(e.Netlist, "Verification", "Netlist/subject")
	if err != nil {
		return nil, e, err
	}
	if err := f.Connect(ver, "Netlist/reference", e.Netlist); err != nil {
		return nil, e, err
	}
	return f, e, expandBind(s, f, ver, "verifier")
}

// Simulation runs the catalog's simulate-netlist plan with its four
// leaves bound (simulator, exhaustive stimuli, full-adder generator,
// default device models) and returns the Performance it made.
func Simulation(s *hercules.Session) (history.ID, error) {
	f, err := s.Catalogs.StartFromPlan("simulate-netlist")
	if err != nil {
		return "", err
	}
	for _, leaf := range [][2]string{
		{"Simulator", "sim"}, {"Stimuli", "stim.exhaustive3"},
		{"NetlistEditor", "netEd.fulladder"}, {"DeviceModelEditor", "dmEd.default"},
	} {
		if err := bindLeaf(s, f, leaf[0], leaf[1]); err != nil {
			return "", err
		}
	}
	return runOne(s, f, f.Roots()[0])
}

// Synthesis runs Fig. 8(a), views.SynthesisFlow: the placer makes the
// physical view of net. It returns the PlacedLayout.
func Synthesis(s *hercules.Session, net history.ID) (history.ID, error) {
	n, err := views.SynthesisFlow(s.Schema, s.DB, net)
	if err != nil {
		return "", err
	}
	if err := n.Flow.Bind(n.Placer, s.Must("placer")); err != nil {
		return "", err
	}
	if err := n.Flow.Bind(n.Options, s.Must("popts.default")); err != nil {
		return "", err
	}
	return runOne(s, n.Flow, n.Layout)
}

// Verification runs Fig. 8(b), views.VerificationFlow: lay is extracted
// and verified against net. It returns the Verification.
func Verification(s *hercules.Session, lay, net history.ID) (history.ID, error) {
	n, err := views.VerificationFlow(s.Schema, s.DB, lay, net)
	if err != nil {
		return "", err
	}
	if err := n.Flow.Bind(n.Extractor, s.Must("extractor")); err != nil {
		return "", err
	}
	if err := n.Flow.Bind(n.Verifier, s.Must("verifier")); err != nil {
		return "", err
	}
	return runOne(s, n.Flow, n.Verification)
}

// produce adds a goal of the given type to f, expanded one level, its
// tool bound to the named instance.
func produce(s *hercules.Session, f *flow.Flow, goal, tool string) (flow.NodeID, error) {
	n, err := f.Add(goal)
	if err != nil {
		return 0, err
	}
	return n, expandBind(s, f, n, tool)
}

// expandBind expands n one level and binds its tool to the named
// instance.
func expandBind(s *hercules.Session, f *flow.Flow, n flow.NodeID, tool string) error {
	if err := f.ExpandDown(n, false); err != nil {
		return err
	}
	tn, _ := f.Node(n).Dep("fd")
	return f.Bind(tn, s.Must(tool))
}

// bindLeaf binds the first unbound leaf of the given type to the named
// instance.
func bindLeaf(s *hercules.Session, f *flow.Flow, typeName, key string) error {
	for _, id := range f.Leaves() {
		if f.Node(id).Type == typeName && !f.Node(id).IsBound() {
			return f.Bind(id, s.Must(key))
		}
	}
	return fmt.Errorf("figures: no unbound leaf of type %s", typeName)
}

// runOne runs f and returns the one instance node n made.
func runOne(s *hercules.Session, f *flow.Flow, n flow.NodeID) (history.ID, error) {
	res, err := s.Run(f)
	if err != nil {
		return "", err
	}
	return res.One(n)
}
