package flowgen

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/flow"
	runtrace "repro/internal/trace"
)

func TestGenerateDeterministic(t *testing.T) {
	for _, shape := range Shapes() {
		spec := Spec{Cells: 500, Shape: shape, Seed: 42}
		a, err := Generate(spec)
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		b, err := Generate(spec)
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same spec generated different graphs", shape)
		}
	}
	// Different seeds must move the randomized shapes.
	a, _ := Generate(Spec{Cells: 500, Shape: Layered, Seed: 1})
	b, _ := Generate(Spec{Cells: 500, Shape: Layered, Seed: 2})
	if reflect.DeepEqual(a, b) {
		t.Error("layered: different seeds generated identical graphs")
	}
}

func TestGenerateShapeInvariants(t *testing.T) {
	for _, shape := range Shapes() {
		g, err := Generate(Spec{Cells: 700, Shape: shape, Seed: 7, FanIn: 3})
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		if len(g.Cells) != 700 {
			t.Errorf("%s: got %d cells, want 700", shape, len(g.Cells))
		}
		for i, c := range g.Cells {
			if len(c.Ins) > MaxFanIn {
				t.Fatalf("%s: cell %d has %d inputs, max %d", shape, i, len(c.Ins), MaxFanIn)
			}
			for _, in := range c.Ins {
				if in >= i {
					t.Fatalf("%s: cell %d consumes cell %d (inputs must have smaller indices)", shape, i, in)
				}
				if g.Cells[in].Level >= c.Level {
					t.Fatalf("%s: cell %d (level %d) consumes cell %d (level %d)",
						shape, i, c.Level, in, g.Cells[in].Level)
				}
			}
			if c.Level == 0 && len(c.Ins) != 0 {
				t.Fatalf("%s: level-0 cell %d has inputs", shape, i)
			}
		}
		if g.Depth() < 2 {
			t.Errorf("%s: depth %d, want >= 2", shape, g.Depth())
		}
		if shape == Diamond && g.Edges() < 700 {
			t.Errorf("diamond: %d edges, want dense sharing", g.Edges())
		}
	}
}

func TestBuildFlowValidates(t *testing.T) {
	for _, shape := range Shapes() {
		b, err := Build(Spec{Cells: 300, Shape: shape, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		if got, want := b.Flow.Len(), 2*300; got != want {
			t.Errorf("%s: flow has %d nodes, want %d (cell + tool each)", shape, got, want)
		}
		if err := b.Flow.Validate(); err != nil {
			t.Errorf("%s: generated flow invalid: %v", shape, err)
		}
		if ok, why := b.Flow.ExecutableAll(b.Flow.Roots()); !ok {
			t.Errorf("%s: generated flow not executable: %s", shape, why)
		}
	}
}

func TestExecuteSmallRun(t *testing.T) {
	const cells = 120
	run := func(workers int) *Bench {
		b, err := Build(Spec{Cells: cells, Shape: Layered, Seed: 11, Levels: 12})
		if err != nil {
			t.Fatal(err)
		}
		eng := exec.New(b.Schema, b.DB, b.Store, b.Reg)
		eng.SetWorkers(workers)
		res, err := eng.RunFlow(b.Flow)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.TasksRun != cells {
			t.Fatalf("workers=%d: ran %d tasks, want %d", workers, res.TasksRun, cells)
		}
		for i, n := range b.CellNodes {
			if len(res.Created[n]) != 1 {
				t.Fatalf("workers=%d: cell %d realized %d instances, want 1", workers, i, len(res.Created[n]))
			}
		}
		return b
	}
	b1, b8 := run(1), run(8)
	// Same world, same flow => byte-identical artifacts regardless of
	// worker count: the generator function is pure.
	r1, r8 := b1.Store.Refs(), b8.Store.Refs()
	if !reflect.DeepEqual(r1, r8) {
		t.Errorf("store contents differ across worker counts: %d vs %d refs", len(r1), len(r8))
	}
}

// TestMaskedTraceIdenticalAcrossWorkers pins the determinism contract on
// a generated graph: two fresh worlds, workers=1 vs workers=8, must emit
// byte-identical masked traces (ISSUE 7 acceptance criterion — the
// sharded/batched hot paths must not reorder observable events).
func TestMaskedTraceIdenticalAcrossWorkers(t *testing.T) {
	collect := func(workers int, shape Shape) []byte {
		b, err := Build(Spec{Cells: 200, Shape: shape, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		eng := exec.New(b.Schema, b.DB, b.Store, b.Reg)
		eng.SetWorkers(workers)
		buf := runtrace.NewBuffer()
		if _, err := eng.RunFlowOptions(context.Background(), b.Flow, &exec.RunOptions{Tracer: buf}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return runtrace.MaskedJSONL(buf.Events())
	}
	for _, shape := range []Shape{Layered, Diamond} {
		a, b := collect(1, shape), collect(8, shape)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: masked traces differ between workers=1 and workers=8", shape)
		}
	}
}

func TestPopulateHistory(t *testing.T) {
	g, err := Generate(Spec{Cells: 400, Shape: FanOutIn, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, cells, err := g.Populate()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 400 {
		t.Fatalf("got %d cell instances, want 400", len(cells))
	}
	if got, want := b.DB.Len(), 2*400; got != want {
		t.Fatalf("db holds %d instances, want %d (tool + cell each)", got, want)
	}
	// Spot-check a derivation: recorded inputs mirror the graph.
	for _, i := range []int{0, 17, 399} {
		in := b.DB.Get(cells[i])
		if in == nil {
			t.Fatalf("cell %d instance missing", i)
		}
		if in.Tool != b.Tools[i] {
			t.Errorf("cell %d recorded tool %s, want %s", i, in.Tool, b.Tools[i])
		}
		if len(in.Inputs) != len(g.Cells[i].Ins) {
			t.Errorf("cell %d recorded %d inputs, want %d", i, len(in.Inputs), len(g.Cells[i].Ins))
		}
		for k, x := range in.Inputs {
			if x.Inst != cells[g.Cells[i].Ins[k]] {
				t.Errorf("cell %d input %d is %s, want %s", i, k, x.Inst, cells[g.Cells[i].Ins[k]])
			}
		}
	}
}

func TestSpecErrors(t *testing.T) {
	if _, err := Generate(Spec{Cells: 0}); err == nil {
		t.Error("Cells=0 accepted")
	}
	if _, err := Generate(Spec{Cells: 10, Shape: "moebius"}); err == nil {
		t.Error("unknown shape accepted")
	}
}

func TestToolArtifactRoundTrip(t *testing.T) {
	b := toolArtifact(123, 4096)
	if string(b) != "gen 123 4096" {
		t.Fatalf("toolArtifact = %q", b)
	}
	n, err := payloadOf(b)
	if err != nil || n != 4096 {
		t.Fatalf("payloadOf = %d, %v", n, err)
	}
	if _, err := payloadOf([]byte("nonsense")); err == nil {
		t.Error("malformed artifact accepted")
	}
}

func TestFlowNodeCount(t *testing.T) {
	// NodeCount contract used by bench sizing: 2 nodes per cell.
	b, err := Build(Spec{Cells: 50, Shape: Chain, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var tools int
	for _, id := range b.Flow.NodeIDs() {
		if b.Flow.Node(id).Type == "GenTool" {
			if !b.Flow.Node(id).IsBound() {
				t.Fatalf("tool node %d unbound", id)
			}
			tools++
		}
	}
	if tools != 50 {
		t.Fatalf("%d bound tool nodes, want 50", tools)
	}
	_ = flow.NodeID(0)
}

// TestBuildFlowAllocs ratchets the allocations of building a generated
// 2,000-cell layered world and its flow. With a node map and a key map
// per node, re-sorting a node's keys on every edge, Build made 50,232
// allocations here; with the slice node table and positional
// dependencies, 40,232; with instance IDs, refs and dependency keys
// built without intermediate strings it makes 34,059, and the bound
// leaves about 5% for toolchain drift.
func TestBuildFlowAllocs(t *testing.T) {
	spec := Spec{Cells: 2000, Shape: Layered, Seed: 1993}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Build(spec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 35_800 {
		t.Fatalf("Build made %.0f allocations, want at most 35,800", allocs)
	}
}
