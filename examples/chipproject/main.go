// chipproject: the Design Process Level above the flow manager.
//
// The paper (§3.1) delegates hierarchical design decomposition — "a
// hierarchy of cells within a design" — to the Minerva Design Process
// Manager. This example runs that layer: a small chip is decomposed into
// cells, each cell declares goals (entity types that must exist and stay
// fresh), flows produce the instances, and the process manager rolls
// status up the hierarchy, regressing goals automatically when the
// history database says their instances went stale.
//
// Run with: go run ./examples/chipproject
package main

import (
	"fmt"
	"log"

	"repro/internal/figures"
	"repro/internal/hercules"
	"repro/internal/history"
	"repro/internal/process"
)

func main() {
	s := hercules.NewSession("pm")
	if err := s.Bootstrap(); err != nil {
		log.Fatal(err)
	}

	// The design hierarchy.
	chip := &process.Cell{Name: "chip"}
	alu := chip.AddChild("alu")
	alu.AddGoal("netlist", "Netlist")
	alu.AddGoal("layout", "Layout")
	alu.AddGoal("signoff", "Verification")
	io := chip.AddChild("iopad")
	io.AddGoal("netlist", "Netlist")
	m, err := process.NewManager(s.DB, chip)
	if err != nil {
		log.Fatal(err)
	}

	show := func(title string) {
		fmt.Printf("== %s ==\n", title)
		out, err := m.Render()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(out)
		agenda, err := m.Agenda()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("agenda: %d item(s)\n\n", len(agenda))
	}
	show("project start")

	// Work the alu: netlist, then layout, then signoff — each a flow.
	net := check(figures.Netlist(s, "netEd.fulladder"))
	must(m.Assign("chip/alu", "netlist", net))
	lay := check(figures.Synthesis(s, net))
	must(m.Assign("chip/alu", "layout", lay))
	must(m.Assign("chip/alu", "signoff", check(figures.Verification(s, lay, net))))
	show("after alu flows")

	// Edit the alu netlist: the process level notices that layout and
	// signoff regressed without being told.
	check(figures.Edit(s, s.Must("netEd.retouch"), net))
	show("after an engineering change (netlist edited)")

	// The iopad is still pending; finish it.
	must(m.Assign("chip/iopad", "netlist", check(figures.Netlist(s, "netEd.ripple4"))))
	show("after iopad")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// check returns a run's instance, or ends the program on its error.
func check(id history.ID, err error) history.ID {
	must(err)
	return id
}
