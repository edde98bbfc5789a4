// history: the design-history database at work (§3.3, §4.2, Figs. 10
// and 11).
//
// A netlist goes through several edits, forming a version tree with a
// branch; a simulation is run on one version. The example then shows:
//
//   - backward chaining (the History pop-up, Fig. 10);
//   - forward chaining ("find all the performances derived from this
//     netlist");
//   - a flow used as a query template;
//   - the classic version tree vs the flow trace (Fig. 11) — the trace
//     additionally names the tool that made each version;
//   - out-of-date detection and automatic retracing after a new version
//     appears.
//
// Run with: go run ./examples/history
package main

import (
	"fmt"
	"log"

	"repro/internal/figures"
	"repro/internal/hercules"
	"repro/internal/history"
)

func main() {
	s := hercules.NewSession("jbb")
	if err := s.Bootstrap(); err != nil {
		log.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}

	// Build c1, the original netlist, by flow.
	c1, err := figures.Netlist(s, "netEd.fulladder")
	must(err)
	must(s.Annotate(c1, "c1", "original full adder"))

	// Edit it twice in sequence and once on a branch (Fig. 11's shape),
	// each edit a one-node flow using a retouch editor.
	edit := func(editor, base history.ID, name string) history.ID {
		id, err := figures.Edit(s, editor, base)
		must(err)
		must(s.Annotate(id, name, "edit of "+string(base)))
		return id
	}
	retouch := s.Must("netEd.retouch")
	c2 := edit(retouch, c1, "c2")
	c3 := edit(retouch, c2, "c3")
	c4 := edit(retouch, c1, "c4") // branch
	_ = c3

	// Simulate c2.
	perf := simulate(s, c2)
	must(s.Annotate(perf, "perf of c2", "Low pass filter run"))

	fmt.Println("== Fig. 10: backward chaining from the performance ==")
	h, err := s.History(perf)
	must(err)
	fmt.Print(h)

	fmt.Println("== forward chaining: everything derived from c1 ==")
	deps, err := s.UseDependencies(c1)
	must(err)
	for _, d := range deps {
		fmt.Printf("  %s\n", s.DB.Get(d))
	}

	fmt.Println("\n== flow as query template: performances simulated from c2 ==")
	q := s.NewFlow()
	perfQ := q.MustAdd("Performance")
	cctQ := q.MustAdd("Circuit")
	netQ := q.MustAdd("Netlist")
	must(q.Connect(perfQ, "Circuit", cctQ))
	must(q.Connect(cctQ, "Netlist", netQ))
	must(q.Bind(netQ, c2))
	matches, err := s.Query(q)
	must(err)
	for _, m := range matches {
		fmt.Printf("  match: %v\n", m)
	}

	fmt.Println("\n== Fig. 11a: classic version tree ==")
	vt, err := s.VersionTree(c4)
	must(err)
	fmt.Print(vt)

	fmt.Println("== Fig. 11b: flow trace (shows the editing tool) ==")
	ft, err := s.FlowTrace(c4)
	must(err)
	fmt.Print(ft)

	// Consistency maintenance: a new version of c2 makes the
	// performance stale; retrace brings it up to date. The retoucher
	// that makes c5 writes its own note, so c5's bytes differ from c2's:
	// a version with identical bytes changes nothing, and the
	// performance would stay fresh.
	noted, err := s.Import("NetlistEditor", "netlist retoucher (c5 note)", "retouch c5")
	must(err)
	c5 := edit(noted, c2, "c5")
	_ = c5
	ood, err := s.OutOfDate(perf)
	must(err)
	fmt.Printf("\nperformance %s out of date after c5? %v\n", perf, ood)
	rr, err := s.Retrace(perf)
	must(err)
	fmt.Printf("retrace plan:\n%s\n", rr.Plan)
	fmt.Printf("new performance: %s\n", rr.NewTarget(perf))
	ood, err = s.OutOfDate(rr.NewTarget(perf))
	must(err)
	fmt.Printf("new performance out of date? %v\n", ood)
}

// simulate runs the standard simulation flow over the given netlist
// instance and returns the performance.
func simulate(s *hercules.Session, net history.ID) history.ID {
	f := s.NewFlow()
	perf := f.MustAdd("Performance")
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
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
	must(f.Bind(netN, net))
	must(f.Bind(simN, s.Must("sim")))
	must(f.Bind(stimN, s.Must("stim.exhaustive3")))
	must(f.Bind(dmToolN, s.Must("dmEd.default")))
	res, err := s.Run(f)
	must(err)
	id, err := res.One(perf)
	must(err)
	return id
}
