package provenance

// These tests drive the derivation graph through the Index alias, the
// way the benchmark module builds its query oracle: an observer copy
// fed by db.Observe and OnCommit rather than by the database itself.
// The differential tests against the reference walkers are in
// internal/history.

import (
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

// TestIndexRefusesForeignIDs pins the seq table's invariants: an index
// observes one database, so an ID without a sequence number, or one
// whose sequence number an indexed instance already holds, panics
// instead of shadowing that instance.
func TestIndexRefusesForeignIDs(t *testing.T) {
	for name, ids := range map[string][]history.ID{
		"no sequence number": {"Cell"},
		"reused seq":         {"GenTool:1", "Cell:1"},
	} {
		t.Run(name, func(t *testing.T) {
			idx := NewIndex()
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("indexing %v did not panic", ids)
				}
			}()
			for _, id := range ids {
				idx.OnCommit(&history.Instance{ID: id, Type: "GenTool"})
			}
		})
	}
}

// TestIndexLookupConfirmsID: a root whose sequence number is indexed
// under another ID, or that spells the number differently, misses.
func TestIndexLookupConfirmsID(t *testing.T) {
	idx := NewIndex()
	idx.OnCommit(&history.Instance{ID: "GenTool:7", Type: "GenTool"})
	for _, id := range []history.ID{"Cell:7", "GenTool:07", "GenTool:8", "GenTool", "GenTool:99999999999999999999"} {
		if _, err := idx.Backchain(id, -1); err == nil {
			t.Errorf("Backchain(%s) answered", id)
		}
	}
	if d, err := idx.Forwardchain("GenTool:7", -1); err != nil || d.Root != "GenTool:7" {
		t.Fatalf("Forwardchain(GenTool:7) = %+v, %v", d, err)
	}
}
