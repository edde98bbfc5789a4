// Package flow implements dynamically defined flows — the central
// contribution of Sutton, Brockman and Director (DAC 1993), section 3.2.
//
// A dynamically defined flow is represented by a task graph: a directed
// acyclic graph in which every node corresponds to an entity in the task
// schema (tools and data alike) and every edge to a dependency. The flow
// is a temporary structure built up on demand by the designer — starting
// from any entity (goal-, tool-, or data-based, §3.4) and grown by expand
// operations in either direction, subject only to the construction rules
// of the schema. Nodes of abstract type are specialized to a concrete
// subtype before downward expansion; leaf nodes are instantiated by
// binding them to instances from the design-history database; entity
// nodes may be reused by several subtasks and one subtask may produce
// multiple outputs (Fig. 5).
//
// The same task graph doubles as a query template over the history
// database (AsPattern) and as the record — the flow trace — of what was
// executed.
package flow

import (
	"fmt"

	"repro/internal/history"
	"repro/internal/schema"
)

// NodeID identifies a node within one Flow.
type NodeID int

// maxNodeID is the ceiling on node IDs: addNode issues none above it
// and Decode rejects a document naming one, before any table is sized
// from it. It admits the largest accepted world (scenario.MaxGenerateCells
// cells, two nodes each) with room to spare.
const maxNodeID NodeID = 1 << 20

// Node is one entity node of a task graph.
type Node struct {
	ID NodeID
	// Type is the node's current entity type. It starts as whatever the
	// designer selected (possibly abstract) and may be narrowed by
	// Specialize.
	Type string
	// depKeys and depIDs are the node's dependency edges as two
	// parallel slices in DepKeys order: depIDs[i] is the child filling
	// key depKeys[i] (schema.Dep.Key, or "fd" for the functional
	// dependency). An edge mutation never writes into them; it replaces
	// both with fresh slices, so slices handed out by DepKeys and
	// Children (or shared by Clone) stay valid snapshots, and analyses
	// may read a finished flow concurrently.
	depKeys []string
	depIDs  []NodeID
	// bound holds the instances selected for this node in the browser.
	// Several instances may be selected, causing the task to be run once
	// per instance (§4.1).
	bound []history.ID
	// original marks a designer-placed node (created by Add/ExpandUp, as
	// opposed to an expansion child); Unexpand's garbage collection never
	// removes it.
	original bool
}

// Bound returns the instances bound to the node.
func (n *Node) Bound() []history.ID {
	return append([]history.ID(nil), n.bound...)
}

// IsBound reports whether at least one instance is bound.
func (n *Node) IsBound() bool { return len(n.bound) > 0 }

// DepKeys returns the node's filled dependency keys in order: "fd"
// first, then data keys ascending. The slice is the node's own —
// callers must not modify it — and later edge mutations leave it as it
// was when returned.
func (n *Node) DepKeys() []string { return n.depKeys }

// Children returns the nodes filling the node's dependencies, aligned
// with DepKeys: Children()[i] fills DepKeys()[i]. The same ownership
// and snapshot rules apply.
func (n *Node) Children() []NodeID { return n.depIDs }

// Dep returns the child filling the given dependency key, if any.
func (n *Node) Dep(key string) (NodeID, bool) {
	for i, k := range n.depKeys {
		if k == key {
			return n.depIDs[i], true
		}
	}
	return 0, false
}

// hasDep reports whether the dependency key is filled.
func (n *Node) hasDep(key string) bool {
	_, ok := n.Dep(key)
	return ok
}

// addDep fills an unfilled dependency key with child, inserting it at
// its DepKeys position into fresh slices (see depKeys).
func (n *Node) addDep(key string, child NodeID) {
	i := 0
	if key != "fd" {
		if len(n.depKeys) > 0 && n.depKeys[0] == "fd" {
			i = 1
		}
		for i < len(n.depKeys) && n.depKeys[i] < key {
			i++
		}
	}
	n.depKeys = insertAt(n.depKeys, i, key)
	n.depIDs = insertAt(n.depIDs, i, child)
}

// insertAt returns a fresh copy of s with v inserted at index i.
func insertAt[E any](s []E, i int, v E) []E {
	out := make([]E, len(s)+1)
	copy(out, s[:i])
	out[i] = v
	copy(out[i+1:], s[i:])
	return out
}

// Resolver supplies the concrete type of a history instance so bindings
// can be type-checked. *history.DB satisfies it.
type Resolver interface {
	TypeOf(id history.ID) (string, bool)
}

// Flow is a dynamically defined flow under construction or execution.
// Flows are not safe for concurrent mutation; they are per-designer
// scratch structures (execution, which is concurrent, reads them only).
type Flow struct {
	Name    string
	schema  *schema.Schema
	resolve Resolver // may be nil: bindings then go unchecked until execution
	// nodes is the node table, indexed by NodeID; entry 0 and removed
	// nodes are nil.
	nodes []*Node
	order []NodeID // creation order, for deterministic iteration
	next  NodeID
}

// New creates an empty flow over the given schema. resolver may be nil.
func New(s *schema.Schema, resolver Resolver) *Flow {
	return &Flow{schema: s, resolve: resolver}
}

// Schema returns the schema the flow is built against.
func (f *Flow) Schema() *schema.Schema { return f.schema }

// Node returns the node with the given ID, or nil.
func (f *Flow) Node(id NodeID) *Node {
	if id < 0 || int(id) >= len(f.nodes) {
		return nil
	}
	return f.nodes[id]
}

// Len returns the number of nodes.
func (f *Flow) Len() int { return len(f.order) }

// MaxID returns the largest node ID the flow has issued. Node IDs are
// small dense integers in 1..MaxID, so a table over a flow's nodes is a
// slice of MaxID()+1 entries indexed by ID — as the flow's own node
// table is.
func (f *Flow) MaxID() NodeID { return f.next }

// NodeIDs returns all node IDs in creation order.
func (f *Flow) NodeIDs() []NodeID {
	return append([]NodeID(nil), f.order...)
}

// typeOf returns the entity type of a node (helper with existence check).
func (f *Flow) typeOf(id NodeID) (*schema.EntityType, error) {
	n := f.Node(id)
	if n == nil {
		return nil, fmt.Errorf("flow: no node %d", id)
	}
	t := f.schema.Type(n.Type)
	if t == nil {
		return nil, fmt.Errorf("flow: node %d has unknown type %q", id, n.Type)
	}
	return t, nil
}

// Add creates a detached node of the given entity type — the designer
// picking an entity from the entity-catalog (or a tool from the
// tool-catalog, etc.) and dropping its icon in the task window.
func (f *Flow) Add(typeName string) (NodeID, error) {
	id, err := f.addNode(typeName)
	if err != nil {
		return 0, err
	}
	f.nodes[id].original = true
	return id, nil
}

// addNode creates a node without marking it designer-placed; expansion
// operations use it for the children they synthesize.
func (f *Flow) addNode(typeName string) (NodeID, error) {
	if !f.schema.Has(typeName) {
		return 0, fmt.Errorf("flow: unknown entity type %q", typeName)
	}
	if f.next >= maxNodeID {
		return 0, fmt.Errorf("flow: node IDs exhausted (at most %d)", maxNodeID)
	}
	f.next++
	f.put(&Node{ID: f.next, Type: typeName})
	return f.next, nil
}

// put enters a node into the table, growing it to cover the node's ID,
// and appends it to the creation order.
func (f *Flow) put(n *Node) {
	for len(f.nodes) <= int(n.ID) {
		f.nodes = append(f.nodes, nil)
	}
	f.nodes[n.ID] = n
	f.order = append(f.order, n.ID)
}

// MustAdd is Add but panics on error; for fixtures and examples.
func (f *Flow) MustAdd(typeName string) NodeID {
	id, err := f.Add(typeName)
	if err != nil {
		panic(err)
	}
	return id
}

// Parents returns every (parent node, dependency key) pair pointing at
// id, in parent-creation order.
func (f *Flow) Parents(id NodeID) []ParentRef {
	var out []ParentRef
	for _, pid := range f.order {
		p := f.nodes[pid]
		for i, c := range p.depIDs {
			if c == id {
				out = append(out, ParentRef{Parent: pid, Key: p.depKeys[i]})
			}
		}
	}
	return out
}

// ParentRef names one incoming edge of a node.
type ParentRef struct {
	Parent NodeID
	Key    string
}

// Roots returns the nodes with no parents — the goals/outputs of the
// flow. A flow may have several (Fig. 5: multiple outputs).
func (f *Flow) Roots() []NodeID {
	hasParent := make([]bool, f.MaxID()+1)
	for _, pid := range f.order {
		for _, cid := range f.nodes[pid].depIDs {
			hasParent[cid] = true
		}
	}
	var out []NodeID
	for _, id := range f.order {
		if !hasParent[id] {
			out = append(out, id)
		}
	}
	return out
}

// Leaves returns the nodes with no children — the entities that must be
// instantiated (bound) before the flow can run.
func (f *Flow) Leaves() []NodeID {
	var out []NodeID
	for _, id := range f.order {
		if len(f.nodes[id].depIDs) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// reaches reports whether from can reach to by following dependency
// edges — used to keep the graph acyclic under Connect.
func (f *Flow) reaches(from, to NodeID) bool {
	if from == to {
		return true
	}
	if len(f.nodes[from].depIDs) == 0 {
		return false // a childless node reaches only itself
	}
	seen := make(map[NodeID]bool)
	stack := []NodeID{from}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == to {
			return true
		}
		if seen[cur] {
			continue
		}
		seen[cur] = true
		stack = append(stack, f.nodes[cur].depIDs...)
	}
	return false
}

// Clone returns a deep copy of the flow (used by the flow catalog: a
// plan-based designer checks out a copy and adapts it). The copy shares
// each node's dependency slices, which no mutation writes into.
func (f *Flow) Clone() *Flow {
	out := New(f.schema, f.resolve)
	out.Name = f.Name
	out.next = f.next
	out.order = append([]NodeID(nil), f.order...)
	out.nodes = make([]*Node, len(f.nodes))
	for id, n := range f.nodes {
		if n == nil {
			continue
		}
		cp := *n
		cp.bound = append([]history.ID(nil), n.bound...)
		out.nodes[id] = &cp
	}
	return out
}
