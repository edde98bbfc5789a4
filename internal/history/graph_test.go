package history_test

import (
	"reflect"
	"testing"

	"repro/internal/flowgen"
	"repro/internal/history"
)

// diffWorld builds a populated synthetic world; its database fed its
// graph at every commit.
func diffWorld(t *testing.T, spec flowgen.Spec) (*flowgen.Bench, []history.ID) {
	t.Helper()
	g, err := flowgen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, cells, err := g.Populate()
	if err != nil {
		t.Fatal(err)
	}
	return b, cells
}

// assertMatchesOracle requires the database's answer (from its graph)
// to equal the oracle's exactly: root, node order, edge order, every
// field.
func assertMatchesOracle(t *testing.T, label string, oracle, graph *history.Derivation, err1, err2 error) {
	t.Helper()
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("%s: oracle err=%v, graph err=%v", label, err1, err2)
	}
	if err1 != nil {
		return
	}
	if !reflect.DeepEqual(oracle, graph) {
		t.Fatalf("%s: derivations diverge\noracle: %+v\ngraph:  %+v", label, oracle, graph)
	}
}

// checkChains compares Backchain and Forwardchain of root at depth with
// the oracle's.
func checkChains(t *testing.T, db *history.DB, root history.ID, depth int) {
	t.Helper()
	nb, e1 := history.NaiveBackchain(db, root, depth)
	gb, e2 := db.Backchain(root, depth)
	assertMatchesOracle(t, "backchain of "+string(root), nb, gb, e1, e2)
	nf, e3 := history.NaiveForwardchain(db, root, depth)
	gf, e4 := db.Forwardchain(root, depth)
	assertMatchesOracle(t, "forwardchain of "+string(root), nf, gf, e3, e4)
}

// TestGraphDifferentialSeeds is the differential gate of the graph:
// over 24 random seeds spread across every generator shape, the
// database's Backchain/Forwardchain must reproduce the oracle's output
// exactly — roots sampled across the graph, bounded and unbounded
// depths both.
func TestGraphDifferentialSeeds(t *testing.T) {
	shapes := flowgen.Shapes()
	for seed := int64(1); seed <= 24; seed++ {
		spec := flowgen.Spec{
			Cells: 40 + int(seed%5)*23,
			Shape: shapes[int(seed)%len(shapes)],
			Seed:  seed,
		}
		b, cells := diffWorld(t, spec)
		if got, want := b.DB.Graph().Len(), len(cells)+len(b.Tools); got != want {
			t.Fatalf("seed %d: graph has %d instances, db recorded %d", seed, got, want)
		}
		roots := []history.ID{
			cells[0], cells[len(cells)/2], cells[len(cells)-1], b.Tools[0],
		}
		for _, root := range roots {
			for _, depth := range []int{-1, 0, 1, 2, 5} {
				checkChains(t, b.DB, root, depth)
			}
		}
	}
}

// TestGraphLiveCommits records a generated derivation into a fresh
// database one commit at a time, then requires the same differential
// equality, and an observer graph attached before the commits to hold
// the same arcs.
func TestGraphLiveCommits(t *testing.T) {
	db := history.NewDB(flowgen.Schema())
	observer := history.NewGraph()
	db.Observe(observer)

	g, err := flowgen.Generate(flowgen.Spec{Cells: 50, Shape: flowgen.Diamond, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Re-record the generated derivation into the fresh database.
	b, cells, err := g.Populate()
	if err != nil {
		t.Fatal(err)
	}
	remap := make(map[history.ID]history.ID)
	for _, in := range b.DB.All() {
		rec := history.Instance{Type: in.Type, User: in.User, Data: in.Data}
		if in.Tool != "" {
			rec.Tool = remap[in.Tool]
		}
		for _, x := range in.Inputs {
			rec.Inputs = append(rec.Inputs, history.Input{Key: x.Key, Inst: remap[x.Inst]})
		}
		id, err := db.RecordID(rec)
		if err != nil {
			t.Fatal(err)
		}
		remap[in.ID] = id
	}
	if db.Graph().Len() != len(remap) || observer.Len() != len(remap) {
		t.Fatalf("graph has %d instances, observer %d, %d recorded", db.Graph().Len(), observer.Len(), len(remap))
	}
	if observer.Edges() != db.Graph().Edges() {
		t.Fatalf("observer has %d arcs, the database's graph %d", observer.Edges(), db.Graph().Edges())
	}
	for _, c := range []history.ID{remap[cells[0]], remap[cells[len(cells)-1]]} {
		checkChains(t, db, c, -1)
	}
}

// TestGraphUnknownRoot pins the error for a root the graph has never
// seen.
func TestGraphUnknownRoot(t *testing.T) {
	db := history.NewDB(flowgen.Schema())
	for name, chain := range map[string]func(history.ID, int) (*history.Derivation, error){
		"DB.Backchain": db.Backchain, "DB.Forwardchain": db.Forwardchain,
		"Graph.Backchain": history.NewGraph().Backchain, "Graph.Forwardchain": history.NewGraph().Forwardchain,
	} {
		if _, err := chain("Nope:1", -1); err == nil || err.Error() != "history: no instance Nope:1" {
			t.Errorf("%s error = %v", name, err)
		}
	}
}

// TestGraphDeepChainMatchesOracle compares a deep unbounded backchain
// (over 10k nodes) and the forward chain from the first cell with the
// oracle's, every field, on a chain-shaped world.
func TestGraphDeepChainMatchesOracle(t *testing.T) {
	b, cells := diffWorld(t, flowgen.Spec{Cells: 48000, Shape: flowgen.Chain, Seed: 1993})
	deep := cells[len(cells)-1]
	d, err := b.DB.Backchain(deep, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Nodes) < 10000 {
		t.Fatalf("deep backchain has %d nodes, want at least 10000", len(d.Nodes))
	}
	checkChains(t, b.DB, deep, -1)
	checkChains(t, b.DB, cells[0], -1)
}
