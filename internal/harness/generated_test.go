package harness

import (
	"fmt"
	"testing"

	"repro/internal/flowgen"
	"repro/internal/scenario"
)

// TestConformanceGeneratedProperty is the property-based leg of the
// conformance suite (the name keeps it inside `make conformance`'s run
// filter): across 24 seeds spread over every flowgen shape, a generated
// scenario — golden-free by design — must still satisfy the
// differential contract: byte-identical masked traces and final
// history dumps across the worker sweep, with the expected task and
// instance counts.
func TestConformanceGeneratedProperty(t *testing.T) {
	shapes := flowgen.Shapes()
	for seed := int64(1); seed <= 24; seed++ {
		shape := shapes[int(seed)%len(shapes)]
		cells := 10 + int(seed%5)*6
		doc := fmt.Sprintf(`{
		  "name": "gen-prop-%s-%d",
		  "generate": {"cells": %d, "shape": %q, "seed": %d},
		  "expect": {"tasksRun": %d, "instances": {"Cell": %d, "GenTool": %d}}
		}`, shape, seed, cells, shape, seed, cells, cells, cells)
		sc, err := scenario.Decode([]byte(doc))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rep, err := Run(sc, Options{})
		if err != nil {
			t.Fatalf("seed %d (%s, %d cells): %v", seed, shape, cells, err)
		}
		if rep.TasksRun != cells {
			t.Fatalf("seed %d: TasksRun = %d, want %d", seed, rep.TasksRun, cells)
		}
		if rep.GoldenPath != "" {
			t.Fatalf("seed %d: generated scenario resolved a golden path %q", seed, rep.GoldenPath)
		}
	}
}

// TestConformanceGeneratedTarget runs a sub-flow of a generated world:
// cell names resolve for run.target, and the target's dependency cone
// is exactly what executes.
func TestConformanceGeneratedTarget(t *testing.T) {
	// Chain shape, 12 cells over 8 interleaved chains: cell9 sits in
	// chain 1 at depth 1 and consumes only cell1 — a two-task cone.
	sc, err := scenario.Decode([]byte(`{
	  "name": "gen-target",
	  "generate": {"cells": 12, "shape": "chain", "seed": 4},
	  "run": {"target": "cell9"},
	  "expect": {"tasksRun": 2}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TasksRun != 2 {
		t.Fatalf("TasksRun = %d, want 2", rep.TasksRun)
	}
}

// TestGeneratedUnknownShape pins the error path through buildWorld.
func TestGeneratedUnknownShape(t *testing.T) {
	_, err := scenario.Decode([]byte(`{
	  "name": "gen-bad",
	  "generate": {"cells": 5, "shape": "moebius"}
	}`))
	if err == nil {
		t.Fatal("validation accepted an unknown generator shape")
	}
}
