// Package provenance is the indexed, tamper-evident provenance layer
// over the design-history database. The paper's central claim
// (§3.3/§4.2) is that flow traces subsume version trees: backward and
// forward chaining over per-instance derivation records *is* the
// design-history query. history.Backchain/Forwardchain answer it by
// walking the database's maps under its lock; this package keeps the
// same queries answerable as walks over append-only adjacency indexes
// (index.go) and makes the committed derivation records themselves
// trustworthy with a hash chain persisted through internal/storage
// (chain.go).
//
// Both pieces attach to a history.DB as commit observers
// (db.Observe(...)): the database replays its existing records into the
// observer and then feeds it every commit, in commit order, under the
// commit lock — so the index and the chain are complete and gap-free no
// matter when they attach.
package provenance

import (
	"fmt"
	"sync"

	"repro/internal/history"
)

// backEdge is one derivation arc of a committed instance: the dense
// number of the tool or input instance it was created from, and the
// arc's label (an index into Index.arcs).
type backEdge struct {
	child int32
	arc   int32
}

// arcLabel is what an arc says besides its endpoints: its kind and, for
// an input arc, its dependency key.
type arcLabel struct {
	kind history.EdgeKind
	key  string
}

// fwdRec is one use-dependency arc, stored as a per-target linked list
// threaded through one flat slice: record fwdRecs[fwdHead[c]] is the
// most recent use of instance c, and prev chains to the previous one
// (-1 terminates). Forward adjacency grows as later commits use an
// instance, so it cannot be a CSR slice like the backward index; the
// chained layout keeps appends O(1) with no per-instance slice headers.
type fwdRec struct {
	parent int32 // the dependent (the instance that used the target)
	prev   int32 // previous fwdRec of the same target, -1 at the end
	arc    int32 // the arc's label, an index into Index.arcs
}

// Index is the in-memory provenance index: derivation (backward) and
// use-dependency (forward) adjacency over every committed instance,
// maintained incrementally at commit time via history.DB.Observe. Both
// chaining queries become array walks — O(nodes+edges in the answer)
// after an O(1) root lookup — independent of database size, and they
// run under the index's own read lock, off the database's.
//
// The backward index is a classic CSR layout: an instance's derivation
// arcs (tool first, then inputs in input order — the exact emission
// order of history.Backchain) occupy backEdges[backStart[i]:backStart[i+1]].
// Commits are append-only and an instance's derivation never changes
// after commit, which is what makes the CSR form maintainable online.
//
// Arcs carry a label number instead of a kind and a key: arcs[0] is the
// tool arc, and every later label an input arc with its key, numbered
// on the key's first use. An arc is then 8 bytes backward and 12
// forward, and each distinct key is held once.
//
// An instance ID is turned into its dense number through a table
// indexed by the ID's sequence number (history.SeqOf), and each hit is
// confirmed against ids — 4 bytes per sequence number, where a map
// keyed by ID strings would hash every lookup and hold a string header
// per entry.
type Index struct {
	mu    sync.RWMutex
	ids   []history.ID     // dense number -> instance ID, in commit order
	numOf []int32          // sequence number -> dense number, confirmed against ids
	arcs  []arcLabel       // label number -> label; 0 is the tool arc
	arcOf map[string]int32 // input key -> its label number

	backStart []int32 // len(ids)+1; CSR row starts into backEdges
	backEdges []backEdge

	fwdHead []int32 // per instance: index of most recent fwdRec, or -1
	fwdRecs []fwdRec
}

// NewIndex returns an empty index. Attach it with db.Observe(idx).
func NewIndex() *Index {
	return &Index{
		arcs:      []arcLabel{{kind: history.EdgeTool}},
		arcOf:     make(map[string]int32),
		backStart: []int32{0},
	}
}

// Len returns the number of indexed instances.
func (x *Index) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.ids)
}

// Edges returns the number of derivation arcs indexed.
func (x *Index) Edges() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.backEdges)
}

// num returns the dense number of an indexed instance. An ID without a
// sequence number, one beyond the table, and one whose table entry
// names another instance all miss.
func (x *Index) num(id history.ID) (int32, bool) {
	s := history.SeqOf(id)
	if s <= 0 || s >= len(x.numOf) {
		return 0, false
	}
	n := x.numOf[s]
	return n, x.ids[n] == id
}

// inputArc returns the label number of the input arc with key k,
// numbering it on first use.
func (x *Index) inputArc(k string) int32 {
	a, ok := x.arcOf[k]
	if !ok {
		a = int32(len(x.arcs))
		x.arcs = append(x.arcs, arcLabel{kind: history.EdgeInput, key: k})
		x.arcOf[k] = a
	}
	return a
}

// OnCommit indexes one committed instance. It implements
// history.CommitObserver and is called under the database's commit
// lock, in commit order — so every tool/input the instance references
// is already indexed (the database validated their existence at
// commit). Re-observing an already-indexed instance is a no-op. An
// edge to an unindexed instance is an invariant violation (the index
// missed a commit) and panics, as does an ID without a sequence number
// or one whose sequence number another indexed instance holds: an
// index observes one database, whose IDs are history.MakeID's.
func (x *Index) OnCommit(inst *history.Instance) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if _, ok := x.num(inst.ID); ok {
		return
	}
	s := history.SeqOf(inst.ID)
	if s <= 0 {
		panic(fmt.Sprintf("provenance: %s has no sequence number", inst.ID))
	}
	if s < len(x.numOf) && history.SeqOf(x.ids[x.numOf[s]]) == s {
		panic(fmt.Sprintf("provenance: %s reuses the sequence number of %s", inst.ID, x.ids[x.numOf[s]]))
	}
	n := int32(len(x.ids))
	x.ids = append(x.ids, inst.ID)
	for len(x.numOf) <= s {
		x.numOf = append(x.numOf, 0)
	}
	x.numOf[s] = n
	x.fwdHead = append(x.fwdHead, -1)

	link := func(child history.ID, arc int32) {
		c, ok := x.num(child)
		if !ok {
			panic(fmt.Sprintf("provenance: %s references unindexed instance %s (observer attached without Observe backfill?)", inst.ID, child))
		}
		x.backEdges = append(x.backEdges, backEdge{child: c, arc: arc})
		x.fwdRecs = append(x.fwdRecs, fwdRec{parent: n, prev: x.fwdHead[c], arc: arc})
		x.fwdHead[c] = int32(len(x.fwdRecs) - 1)
	}
	if inst.Tool != "" {
		link(inst.Tool, 0)
	}
	for _, in := range inst.Inputs {
		link(in.Inst, x.inputArc(in.Key))
	}
	x.backStart = append(x.backStart, int32(len(x.backEdges)))
}

// Backchain computes the derivation history of id from the index:
// everything transitively used to create it, following tool and input
// arcs, up to depth levels (depth < 0 means unbounded). The result is
// identical — node order, edge order, every field — to
// history.DB.Backchain over the same database.
func (x *Index) Backchain(id history.ID, depth int) (*history.Derivation, error) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	root, ok := x.num(id)
	if !ok {
		return nil, fmt.Errorf("provenance: no instance %s in index", id)
	}
	// Two passes over the CSR rows: a counting pass in pure int32s, then
	// emission into exactly-sized slices. The count pass is nearly free
	// next to the emission (no string writes, no allocation), and it buys
	// the emission pass single-allocation output — no append growth
	// copies, which otherwise dominate a large answer. The naive walker
	// has no cheap counting pass to run: its per-hop cost *is* the
	// expensive part. visited doubles across the passes: 1 = seen by the
	// count, 2 = emitted.
	visited := make([]uint8, len(x.ids))
	// Swap buffers for the BFS levels: a deep chain visits one node per
	// level, so allocating a fresh frontier per level would cost an
	// allocation per answer node.
	frontier, next := append(make([]int32, 0, 64), root), make([]int32, 0, 64)
	visited[root] = 1
	nodes, edges := 1, 0
	for level := 0; len(frontier) > 0 && (depth < 0 || level < depth); level++ {
		next = next[:0]
		for _, cur := range frontier {
			for _, e := range x.backEdges[x.backStart[cur]:x.backStart[cur+1]] {
				edges++
				if visited[e.child] != 1 {
					visited[e.child] = 1
					nodes++
					next = append(next, e.child)
				}
			}
		}
		frontier, next = next, frontier
	}

	d := &history.Derivation{Root: id, Nodes: append(make([]history.ID, 0, nodes), id)}
	if edges > 0 {
		d.Edges = make([]history.Edge, 0, edges)
	}
	frontier = append(frontier[:0], root)
	visited[root] = 2
	for level := 0; len(frontier) > 0 && (depth < 0 || level < depth); level++ {
		next = next[:0]
		for _, cur := range frontier {
			for _, e := range x.backEdges[x.backStart[cur]:x.backStart[cur+1]] {
				l := &x.arcs[e.arc]
				d.Edges = append(d.Edges, history.Edge{
					Parent: x.ids[cur], Child: x.ids[e.child], Kind: l.kind, Key: l.key,
				})
				if visited[e.child] != 2 {
					visited[e.child] = 2
					d.Nodes = append(d.Nodes, x.ids[e.child])
					next = append(next, e.child)
				}
			}
		}
		frontier, next = next, frontier
	}
	return d, nil
}

// Forwardchain computes the use-dependencies of id from the index:
// everything transitively created from it, up to depth levels
// (depth < 0 means unbounded). Edges point from dependent to used
// instance, matching history.DB.Forwardchain.
//
// One documented divergence from the naive walker: when a dependent
// uses the same instance under several dependency keys, the naive
// walker re-derives the key as the first match for every occurrence,
// while the index reports each arc's actual key. For every corpus and
// generated world in this repository (one role per use) the outputs
// are byte-identical; the differential tests pin that.
func (x *Index) Forwardchain(id history.ID, depth int) (*history.Derivation, error) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	root, ok := x.num(id)
	if !ok {
		return nil, fmt.Errorf("provenance: no instance %s in index", id)
	}
	d := &history.Derivation{Root: id, Nodes: []history.ID{id}}
	visited := make([]bool, len(x.ids))
	visited[root] = true
	// Swap buffers, as in Backchain: one allocation per query, not one
	// per BFS level.
	frontier, next := append(make([]int32, 0, 64), root), make([]int32, 0, 64)
	var uses []int32 // scratch: fwdRec indexes of the current node, reversed to commit order
	for level := 0; len(frontier) > 0 && (depth < 0 || level < depth); level++ {
		next = next[:0]
		for _, cur := range frontier {
			// The chain threads newest-first; the naive walker emits
			// dependents in commit order, so reverse.
			uses = uses[:0]
			for r := x.fwdHead[cur]; r != -1; r = x.fwdRecs[r].prev {
				uses = append(uses, r)
			}
			for i := len(uses) - 1; i >= 0; i-- {
				rec := &x.fwdRecs[uses[i]]
				l := &x.arcs[rec.arc]
				d.Edges = append(d.Edges, history.Edge{
					Parent: x.ids[rec.parent], Child: x.ids[cur], Kind: l.kind, Key: l.key,
				})
				if !visited[rec.parent] {
					visited[rec.parent] = true
					d.Nodes = append(d.Nodes, x.ids[rec.parent])
					next = append(next, rec.parent)
				}
			}
		}
		frontier, next = next, frontier
	}
	return d, nil
}
