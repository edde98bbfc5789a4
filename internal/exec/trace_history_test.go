package exec

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/flow"
	"repro/internal/history"
	"repro/internal/trace"
)

// TestTraceHistoryCommittedBijection is the trace↔history consistency
// property: over random flows (the random_test.go generator), with and
// without fault injection, every instance the run records in the
// design history corresponds to exactly one UnitCommitted event and
// vice versa — the trace never invents a commit and never misses one.
// Skipped nodes (ContinueOnError) must likewise match Result.Skipped.
func TestTraceHistoryCommittedBijection(t *testing.T) {
	goals := []string{
		"Performance", "PerformancePlot", "Verification",
		"ExtractedNetlist", "ExtractionStatistics", "PlacedLayout",
		"EditedNetlist", "EditedLayout", "OptimizedModels",
	}
	for seed := int64(0); seed < 18; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(t)
		r.engine.SetWorkers(1 + rng.Intn(4))
		// Rotate failure regimes: clean, degraded (ContinueOnError with
		// permanently poisoned sites), and fail-fast with poisoned sites.
		regime := seed % 3
		buf := trace.NewBuffer()
		o := RunOptions{Tracer: buf}
		if regime != 0 {
			inj := faults.New(seed, faults.Config{PermanentRate: 0.3})
			inj.Instrument(r.engine.reg)
			if regime == 1 {
				o.Policy = ptr(ContinueOnError)
			}
		}

		goal := goals[rng.Intn(len(goals))]
		f := flow.New(r.s, r.db)
		root := f.MustAdd(goal)
		if err := buildRandom(t, r, f, root, rng, 0, "", goal); err != nil {
			t.Fatalf("seed %d goal %s: build: %v", seed, goal, err)
		}
		pre := r.db.Len()
		res, err := r.run(f, o)
		if regime == 0 && err != nil {
			t.Fatalf("seed %d goal %s: clean run: %v", seed, goal, err)
		}

		committed := make(map[history.ID]int)
		skippedNodes := make(map[flow.NodeID]bool)
		for _, ev := range buf.Events() {
			switch ev.Kind {
			case trace.KindUnitCommitted:
				for _, s := range ev.Insts {
					committed[history.ID(s)]++
				}
			case trace.KindUnitSkipped:
				for _, n := range ev.Nodes {
					skippedNodes[flow.NodeID(n)] = true
				}
			}
		}

		recorded := r.db.All()[pre:]
		for _, in := range recorded {
			if committed[in.ID] != 1 {
				t.Errorf("seed %d: instance %s recorded in history but has %d UnitCommitted events, want 1",
					seed, in.ID, committed[in.ID])
			}
			delete(committed, in.ID)
		}
		for id, n := range committed {
			t.Errorf("seed %d: UnitCommitted ×%d for %s, which history never recorded", seed, n, id)
		}

		resSkipped := make(map[flow.NodeID]bool)
		for _, n := range res.Skipped {
			resSkipped[n] = true
		}
		if len(skippedNodes) != len(resSkipped) {
			t.Errorf("seed %d: UnitSkipped nodes %v != Result.Skipped %v", seed, skippedNodes, res.Skipped)
		}
		for n := range resSkipped {
			if !skippedNodes[n] {
				t.Errorf("seed %d: node %d in Result.Skipped has no UnitSkipped event", seed, n)
			}
		}
	}
}

// TestTraceHistoryRetrace: a retrace is one traced run. The engine's
// tracer sees one PlanBuilt and one RunFinished, which counts as many
// committed units as the retrace rebuilt, and every committed instance
// is one the retrace reports.
func TestTraceHistoryRetrace(t *testing.T) {
	r := newRig(t)
	f, perfN := r.perfFlow(t)
	res, err := r.engine.RunFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	pid, err := res.One(perfN)
	if err != nil {
		t.Fatal(err)
	}
	cctN, _ := f.Node(perfN).Dep("Circuit")
	netN, _ := f.Node(cctN).Dep("Netlist")
	net, err := res.One(netN)
	if err != nil {
		t.Fatal(err)
	}
	r.editNetlist(t, net)

	buf := trace.NewBuffer()
	rr, err := r.retrace(pid, RunOptions{Tracer: buf})
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := make(map[history.ID]bool, len(rr.Rebuilt))
	for _, id := range rr.Rebuilt {
		rebuilt[id] = true
	}
	plans, finishes := 0, 0
	for _, ev := range buf.Events() {
		switch ev.Kind {
		case trace.KindPlanBuilt:
			plans++
		case trace.KindRunFinished:
			finishes++
			if ev.Committed != len(rr.Rebuilt) {
				t.Errorf("RunFinished.Committed = %d, retrace rebuilt %d", ev.Committed, len(rr.Rebuilt))
			}
		case trace.KindUnitCommitted:
			for _, s := range ev.Insts {
				if !rebuilt[history.ID(s)] {
					t.Errorf("UnitCommitted %s is not among the rebuilt instances %v", s, rr.Rebuilt)
				}
			}
		}
	}
	if plans != 1 || finishes != 1 {
		t.Errorf("tracer saw %d PlanBuilt and %d RunFinished events, want one run", plans, finishes)
	}
	if len(rr.Rebuilt) != 2 {
		t.Errorf("rebuilt = %v, want the circuit and the performance", rr.Rebuilt)
	}
}
