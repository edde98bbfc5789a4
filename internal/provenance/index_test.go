package provenance

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/flowgen"
	"repro/internal/history"
)

// diffWorld builds a populated synthetic world and an index observing
// its database (backfill path: the instances exist before Observe).
func diffWorld(t *testing.T, spec flowgen.Spec) (*flowgen.Bench, []history.ID, *Index) {
	t.Helper()
	g, err := flowgen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, cells, err := g.Populate()
	if err != nil {
		t.Fatal(err)
	}
	idx := NewIndex()
	b.DB.Observe(idx)
	return b, cells, idx
}

// assertSameDerivation requires the indexed and naive answers to agree
// exactly: root, node order, edge order, every field.
func assertSameDerivation(t *testing.T, label string, naive, indexed *history.Derivation, err1, err2 error) {
	t.Helper()
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("%s: naive err=%v, indexed err=%v", label, err1, err2)
	}
	if err1 != nil {
		return
	}
	if !reflect.DeepEqual(naive, indexed) {
		t.Fatalf("%s: derivations diverge\nnaive:   %+v\nindexed: %+v", label, naive, indexed)
	}
}

// TestIndexDifferentialSeeds is the differential gate of the tentpole:
// over 24 random seeds spread across every generator shape, the indexed
// Backchain/Forwardchain must reproduce the naive walkers' output
// exactly — all roots sampled across the graph, bounded and unbounded
// depths both.
func TestIndexDifferentialSeeds(t *testing.T) {
	shapes := flowgen.Shapes()
	for seed := int64(1); seed <= 24; seed++ {
		spec := flowgen.Spec{
			Cells: 40 + int(seed%5)*23,
			Shape: shapes[int(seed)%len(shapes)],
			Seed:  seed,
		}
		b, cells, idx := diffWorld(t, spec)
		if idx.Len() != b.DB.Len() {
			t.Fatalf("seed %d: index has %d instances, db has %d", seed, idx.Len(), b.DB.Len())
		}
		roots := []history.ID{
			cells[0], cells[len(cells)/2], cells[len(cells)-1], b.Tools[0],
		}
		for _, root := range roots {
			for _, depth := range []int{-1, 0, 1, 2, 5} {
				nb, e1 := b.DB.Backchain(root, depth)
				ib, e2 := idx.Backchain(root, depth)
				assertSameDerivation(t, "backchain", nb, ib, e1, e2)
				nf, e3 := b.DB.Forwardchain(root, depth)
				iff, e4 := idx.Forwardchain(root, depth)
				assertSameDerivation(t, "forwardchain", nf, iff, e3, e4)
			}
		}
	}
}

// TestIndexLiveCommits attaches the observer to an empty database and
// records through it — the commit-time update path rather than the
// Observe backfill — and requires the same differential equality.
func TestIndexLiveCommits(t *testing.T) {
	db := history.NewDB(flowgen.Schema())
	idx := NewIndex()
	db.Observe(idx)

	g, err := flowgen.Generate(flowgen.Spec{Cells: 50, Shape: flowgen.Diamond, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Re-record the generated derivation into the observed database.
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
	if idx.Len() != db.Len() {
		t.Fatalf("index has %d instances, db has %d", idx.Len(), db.Len())
	}
	for _, c := range []history.ID{remap[cells[0]], remap[cells[len(cells)-1]]} {
		nb, e1 := db.Backchain(c, -1)
		ib, e2 := idx.Backchain(c, -1)
		assertSameDerivation(t, "backchain", nb, ib, e1, e2)
		nf, e3 := db.Forwardchain(c, -1)
		iff, e4 := idx.Forwardchain(c, -1)
		assertSameDerivation(t, "forwardchain", nf, iff, e3, e4)
	}
}

// TestIndexUnknownRoot pins the error for a root the index has never
// seen.
func TestIndexUnknownRoot(t *testing.T) {
	idx := NewIndex()
	if _, err := idx.Backchain("Nope:1", -1); err == nil || !strings.Contains(err.Error(), "no instance Nope:1") {
		t.Fatalf("backchain error = %v", err)
	}
	if _, err := idx.Forwardchain("Nope:1", -1); err == nil || !strings.Contains(err.Error(), "no instance Nope:1") {
		t.Fatalf("forwardchain error = %v", err)
	}
}

// TestIndexReobserveIdempotent checks that observing the same commit
// twice (as a second Observe backfill would) indexes it once.
func TestIndexReobserveIdempotent(t *testing.T) {
	b, _, idx := diffWorld(t, flowgen.Spec{Cells: 10, Shape: flowgen.Chain, Seed: 1})
	n, e := idx.Len(), idx.Edges()
	b.DB.Observe(idx) // replays everything again
	if idx.Len() != n || idx.Edges() != e {
		t.Fatalf("re-observe changed the index: %d/%d -> %d/%d nodes/edges", n, e, idx.Len(), idx.Edges())
	}
}

// TestIndexMissingChildPanics pins the invariant violation: an observer
// fed a commit whose inputs it never saw must fail loudly, not build a
// silently incomplete index.
func TestIndexMissingChildPanics(t *testing.T) {
	idx := NewIndex()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic for unindexed child")
		}
	}()
	idx.OnCommit(&history.Instance{ID: "Cell:2", Type: "Cell", Tool: "GenTool:1"})
}
