package history

import (
	"fmt"
	"sync"
)

// backEdge is one derivation arc of a committed instance: the dense
// number of the tool or input instance it was created from, and the
// arc's label (an index into Graph.arcs).
type backEdge struct {
	child int32
	arc   int32
}

// arcLabel is what an arc says besides its endpoints: its kind and, for
// an input arc, its dependency key.
type arcLabel struct {
	kind EdgeKind
	key  string
}

// fwdRec is one use of a target instance: the dense number of the
// dependent that used it, the arc's label, and the next use of the same
// target — after the target's last use, its first.
type fwdRec struct {
	user int32
	arc  int32
	next int32
}

// Graph is the derivation graph of one database: derivation (backward)
// and use-dependency (forward) adjacency over every committed instance,
// in commit order. The database feeds it each instance it records or
// restores (DB.Graph returns it), and both chaining queries are array
// walks over it — O(nodes+edges in the answer) after an O(1) root
// lookup, independent of database size — under the graph's own read
// lock, never the database's. A graph holds IDs and arcs only, no
// instance, so it outlives the database that fed it.
//
// The backward adjacency is a classic CSR layout: an instance's
// derivation arcs (tool first, then inputs in input order) occupy
// backEdges[backStart[i]:backStart[i+1]]. Commits are append-only and
// an instance's derivation never changes after commit, which is what
// makes the CSR form maintainable online. The forward adjacency grows
// as later commits use an instance, so it is a per-target ring of
// records threaded through one flat slice, one record per use (a
// dependent using an instance under two keys appears twice):
// fwdLast[i] is the last use of instance i, and the ring runs from its
// successor, the first use, oldest first back to it. Keeping only the
// last use costs one int32 per instance, and a walk still visits uses
// in commit order with no reversal.
//
// Arcs carry a label number instead of a kind and a key: arcs[0] is the
// tool arc, and every later label an input arc with its key, numbered
// on the key's first use. An arc is then 8 bytes backward and 12
// forward, and each distinct key is held once.
//
// An instance ID is turned into its dense number through a table
// indexed by the ID's sequence number (SeqOf), and each hit is
// confirmed against ids — 4 bytes per sequence number, where a map
// keyed by ID strings would hash every lookup and hold a string header
// per entry.
type Graph struct {
	mu    sync.RWMutex
	ids   []ID             // dense number -> instance ID, in commit order
	numOf []int32          // sequence number -> dense number, confirmed against ids
	arcs  []arcLabel       // label number -> label; 0 is the tool arc
	arcOf map[string]int32 // input key -> its label number

	backStart []int32 // len(ids)+1; CSR row starts into backEdges
	backEdges []backEdge

	fwdLast []int32  // per instance: its last fwdRec, 0 when unused
	fwdRecs []fwdRec // entry 0 is unused, so 0 is no record
}

// NewGraph returns an empty graph. Every database carries its own
// (NewDB); a graph created here builds a second copy of a database's
// when attached with db.Observe(g).
func NewGraph() *Graph {
	return &Graph{
		arcs:      []arcLabel{{kind: EdgeTool}},
		arcOf:     make(map[string]int32),
		backStart: []int32{0},
		fwdRecs:   make([]fwdRec, 1),
	}
}

// Len returns the number of instances in the graph.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.ids)
}

// Edges returns the number of derivation arcs in the graph.
func (g *Graph) Edges() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.backEdges)
}

// order returns the IDs of every instance in commit order. The graph
// only appends, so the slice is a snapshot the caller may read at any
// time and must not modify.
func (g *Graph) order() []ID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.ids[:len(g.ids):len(g.ids)]
}

// num returns the dense number of an instance in the graph. An ID
// without a sequence number, one beyond the table, and one whose table
// entry names another instance all miss.
func (g *Graph) num(id ID) (int32, bool) {
	s := SeqOf(id)
	if s <= 0 || s >= len(g.numOf) {
		return 0, false
	}
	n := g.numOf[s]
	return n, g.ids[n] == id
}

// inputArc returns the label number of the input arc with key k,
// numbering it on first use.
func (g *Graph) inputArc(k string) int32 {
	a, ok := g.arcOf[k]
	if !ok {
		a = int32(len(g.arcs))
		g.arcs = append(g.arcs, arcLabel{kind: EdgeInput, key: k})
		g.arcOf[k] = a
	}
	return a
}

// OnCommit adds one committed instance to the graph; it implements
// CommitObserver, so db.Observe(g) builds a copy of a database's own
// graph. See add.
func (g *Graph) OnCommit(inst *Instance) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.add(inst)
}

// add adds one committed instance to the graph. It is called for every
// instance, in commit order, under the database's commit lock and the
// graph's write lock — so every tool and input the instance references
// is already in the graph (the database checked they exist). Adding an
// instance already in the graph is a no-op. An edge to an instance not
// in the graph is an invariant violation (the graph missed a commit)
// and panics, as does an ID without a sequence number or one whose
// sequence number another instance in the graph holds: a graph follows
// one database, whose IDs are MakeID's.
func (g *Graph) add(inst *Instance) {
	if _, ok := g.num(inst.ID); ok {
		return
	}
	s := SeqOf(inst.ID)
	if s <= 0 {
		panic(fmt.Sprintf("history: %s has no sequence number", inst.ID))
	}
	if s < len(g.numOf) && SeqOf(g.ids[g.numOf[s]]) == s {
		panic(fmt.Sprintf("history: %s reuses the sequence number of %s", inst.ID, g.ids[g.numOf[s]]))
	}
	n := int32(len(g.ids))
	g.ids = append(g.ids, inst.ID)
	for len(g.numOf) <= s {
		g.numOf = append(g.numOf, 0)
	}
	g.numOf[s] = n
	g.fwdLast = append(g.fwdLast, 0)

	link := func(child ID, arc int32) {
		c, ok := g.num(child)
		if !ok {
			panic(fmt.Sprintf("history: %s references unindexed instance %s (observer attached without Observe backfill?)", inst.ID, child))
		}
		g.backEdges = append(g.backEdges, backEdge{child: c, arc: arc})
		r := int32(len(g.fwdRecs))
		rec := fwdRec{user: n, arc: arc, next: r} // a ring of one
		if last := g.fwdLast[c]; last != 0 {
			rec.next = g.fwdRecs[last].next // close the ring on the first use
			g.fwdRecs[last].next = r
		}
		g.fwdRecs = append(g.fwdRecs, rec)
		g.fwdLast[c] = r
	}
	if inst.Tool != "" {
		link(inst.Tool, 0)
	}
	for _, in := range inst.Inputs {
		link(in.Inst, g.inputArc(in.Key))
	}
	g.backStart = append(g.backStart, int32(len(g.backEdges)))
}

// uses calls fn with each use of id, oldest first, once per arc: the
// dependent and the kind and key of the arc it used id by. It calls fn
// under the graph's read lock, so fn must not call back into the graph.
func (g *Graph) uses(id ID, fn func(user ID, kind EdgeKind, key string)) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	c, ok := g.num(id)
	if !ok || g.fwdLast[c] == 0 {
		return
	}
	last := g.fwdLast[c]
	for r := g.fwdRecs[last].next; ; r = g.fwdRecs[r].next {
		rec := &g.fwdRecs[r]
		l := &g.arcs[rec.arc]
		fn(g.ids[rec.user], l.kind, l.key)
		if r == last {
			return
		}
	}
}

// Backchain computes the derivation history of id: everything
// transitively used to create it, following tool and input arcs, up to
// depth levels (depth < 0 means unbounded). Nodes are in BFS order from
// id, and each node's arcs in derivation order: tool first, then inputs
// in input order.
func (g *Graph) Backchain(id ID, depth int) (*Derivation, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	root, ok := g.num(id)
	if !ok {
		return nil, fmt.Errorf("history: no instance %s", id)
	}
	// Two passes over the CSR rows: a counting pass in pure int32s, then
	// emission into exactly-sized slices. The count pass is nearly free
	// next to the emission (no string writes, no allocation), and it buys
	// the emission pass single-allocation output — no append growth
	// copies, which otherwise dominate a large answer. visited doubles
	// across the passes: 1 = seen by the count, 2 = emitted.
	visited := make([]uint8, len(g.ids))
	// Swap buffers for the BFS levels: a deep chain visits one node per
	// level, so allocating a fresh frontier per level would cost an
	// allocation per answer node.
	frontier, next := append(make([]int32, 0, 64), root), make([]int32, 0, 64)
	visited[root] = 1
	nodes, edges := 1, 0
	for level := 0; len(frontier) > 0 && (depth < 0 || level < depth); level++ {
		next = next[:0]
		for _, cur := range frontier {
			for _, e := range g.backEdges[g.backStart[cur]:g.backStart[cur+1]] {
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

	d := &Derivation{Root: id, Nodes: append(make([]ID, 0, nodes), id)}
	if edges > 0 {
		d.Edges = make([]Edge, 0, edges)
	}
	frontier = append(frontier[:0], root)
	visited[root] = 2
	for level := 0; len(frontier) > 0 && (depth < 0 || level < depth); level++ {
		next = next[:0]
		for _, cur := range frontier {
			for _, e := range g.backEdges[g.backStart[cur]:g.backStart[cur+1]] {
				l := &g.arcs[e.arc]
				d.Edges = append(d.Edges, Edge{
					Parent: g.ids[cur], Child: g.ids[e.child], Kind: l.kind, Key: l.key,
				})
				if visited[e.child] != 2 {
					visited[e.child] = 2
					d.Nodes = append(d.Nodes, g.ids[e.child])
					next = append(next, e.child)
				}
			}
		}
		frontier, next = next, frontier
	}
	return d, nil
}

// Forwardchain computes the use-dependencies of id: everything
// transitively created from it, up to depth levels (depth < 0 means
// unbounded). Nodes are in BFS order from id, and each node's uses in
// commit order, one edge per use, labelled with the kind and key of
// that use. Edges point from dependent to used instance, the
// orientation of Backchain's.
func (g *Graph) Forwardchain(id ID, depth int) (*Derivation, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	root, ok := g.num(id)
	if !ok {
		return nil, fmt.Errorf("history: no instance %s", id)
	}
	d := &Derivation{Root: id, Nodes: []ID{id}}
	visited := make([]bool, len(g.ids))
	visited[root] = true
	// Swap buffers, as in Backchain: one allocation per query, not one
	// per BFS level.
	frontier, next := append(make([]int32, 0, 64), root), make([]int32, 0, 64)
	for level := 0; len(frontier) > 0 && (depth < 0 || level < depth); level++ {
		next = next[:0]
		for _, cur := range frontier {
			last := g.fwdLast[cur]
			if last == 0 {
				continue
			}
			for r := g.fwdRecs[last].next; ; r = g.fwdRecs[r].next {
				rec := &g.fwdRecs[r]
				l := &g.arcs[rec.arc]
				d.Edges = append(d.Edges, Edge{
					Parent: g.ids[rec.user], Child: g.ids[cur], Kind: l.kind, Key: l.key,
				})
				if !visited[rec.user] {
					visited[rec.user] = true
					d.Nodes = append(d.Nodes, g.ids[rec.user])
					next = append(next, rec.user)
				}
				if r == last {
					break
				}
			}
		}
		frontier, next = next, frontier
	}
	return d, nil
}
