// Quickstart: the five-minute tour of dynamically defined flows.
//
// A designer wants the simulated performance of a full adder. The whole
// session — goal-based start, expand operations, catalog bindings, the
// run and its expectations — is declared in one scenario file
// (testdata/scenarios/quickstart.json) and executed by the conformance
// harness: the same differential sweep (worker counts) and
// golden-trace comparison the test suite runs.
//
// Run with: go run ./examples/quickstart   (from the repository root)
package main

import (
	"fmt"
	"log"
	"path/filepath"
	"strings"

	"repro/internal/harness"
	"repro/internal/scenario"
)

func main() {
	dir := filepath.Join("testdata", "scenarios")
	sc, err := scenario.Load(filepath.Join(dir, "quickstart.json"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario %s: %s\n\n", sc.Name, sc.Doc)

	// The flow the scenario's ops construct (Fig. 4's expansion).
	fmt.Println("== task graph ==")
	graph, err := harness.Describe(sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(graph)

	// Run the full conformance check: every worker count must produce
	// the same masked trace, byte-identical to the checked-in golden.
	rep, err := harness.Run(sc, harness.Options{
		GoldenDir: filepath.Join(dir, "golden"),
		Logf: func(format string, args ...any) {
			fmt.Printf("  "+format+"\n", args...)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== conformance ok: %d tasks per run, identical across %s ==\n",
		rep.TasksRun, strings.Join(rep.Configs, ", "))
	fmt.Printf("golden trace: %s\n", rep.GoldenPath)
}
