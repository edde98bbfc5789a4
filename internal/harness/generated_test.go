package harness

import (
	"fmt"
	"strings"
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

// TestConformanceGeneratedFaults: a generated world takes the one world
// path, so a fault plan composes with it: GenTool transient faults,
// retried to success, leave the masked trace and the history
// byte-identical across w1, w2 and w8.
func TestConformanceGeneratedFaults(t *testing.T) {
	sc, err := scenario.Decode([]byte(`{
	  "name": "gen-faults",
	  "generate": {"cells": 24, "shape": "layered", "seed": 7},
	  "faults": {"seed": 3, "byTool": {"GenTool": {"transientRate": 0.5}}},
	  "run": {"retry": {"attempts": 3, "baseMicros": 50, "seed": 1}},
	  "expect": {"tasksRun": 24, "retries": 11}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rep.Configs, " "); got != "w1 w2 w8" {
		t.Fatalf("swept %s, want w1 w2 w8", got)
	}
}

// TestConformanceGeneratedKillResume: a generated world, differential
// without a golden, sweeps kill-and-resume over every WAL record
// boundary; each resumed run ends with the uninterrupted run's log and
// history.
func TestConformanceGeneratedKillResume(t *testing.T) {
	sc, err := scenario.Decode([]byte(`{
	  "name": "gen-kill-resume",
	  "generate": {"cells": 12, "shape": "fanout", "seed": 5},
	  "run": {"workers": [2]},
	  "expect": {"tasksRun": 12, "killResume": true}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.KillPoints != 38 {
		t.Fatalf("swept %d kill points, want 38", rep.KillPoints)
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
