// parallel: parallel execution of disjoint branches (Fig. 6).
//
// Because tool and data dependencies are explicit in the task graph, the
// engine knows which work is independent: disjoint branches can run on
// different machines. This example builds one flow containing four
// independent extraction branches, adds a simulated per-task machine
// latency, and runs it with 1 worker and then 4.
//
// Run with: go run ./examples/parallel
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/flow"
	"repro/internal/hercules"
)

func main() {
	s := hercules.NewSession("parallel")
	if err := s.Bootstrap(); err != nil {
		log.Fatal(err)
	}

	build := func() *flow.Flow {
		f := s.NewFlow()
		kinds := []string{"generate fulladder", "generate mux2", "generate invchain 6", "generate parity 4"}
		for _, kind := range kinds {
			tool, err := s.Import("LayoutEditor", "gen: "+kind, kind)
			if err != nil {
				log.Fatal(err)
			}
			net := f.MustAdd("ExtractedNetlist")
			if err := f.ExpandDown(net, false); err != nil {
				log.Fatal(err)
			}
			extrN, _ := f.Node(net).Dep("fd")
			layN, _ := f.Node(net).Dep("Layout")
			if err := f.Specialize(layN, "EditedLayout"); err != nil {
				log.Fatal(err)
			}
			if err := f.ExpandDown(layN, false); err != nil {
				log.Fatal(err)
			}
			layToolN, _ := f.Node(layN).Dep("fd")
			if err := f.Bind(extrN, s.Must("extractor")); err != nil {
				log.Fatal(err)
			}
			if err := f.Bind(layToolN, tool); err != nil {
				log.Fatal(err)
			}
		}
		return f
	}

	f := build()
	branches := f.Branches()
	fmt.Printf("one flow, %d nodes, %d disjoint branches\n", f.Len(), len(branches))

	const delay = 25 * time.Millisecond
	s.Options.TaskDelay = func(flow.NodeID, string) time.Duration { return delay }

	s.Engine.SetWorkers(1)
	serial, err := s.Run(build())
	if err != nil {
		log.Fatal(err)
	}
	s.Engine.SetWorkers(4)
	parallel, err := s.Run(build())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated per-task machine latency: %v\n", delay)
	fmt.Printf("  1 machine : %d tasks in %v\n", serial.TasksRun, serial.Elapsed.Round(time.Millisecond))
	fmt.Printf("  4 machines: %d tasks in %v\n", parallel.TasksRun, parallel.Elapsed.Round(time.Millisecond))
	fmt.Printf("  speedup   : %.1fx\n", float64(serial.Elapsed)/float64(parallel.Elapsed))
}
