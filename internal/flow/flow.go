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
	"sort"

	"repro/internal/history"
	"repro/internal/schema"
)

// NodeID identifies a node within one Flow.
type NodeID int

// Node is one entity node of a task graph.
type Node struct {
	ID NodeID
	// Type is the node's current entity type. It starts as whatever the
	// designer selected (possibly abstract) and may be narrowed by
	// Specialize.
	Type string
	// deps maps dependency keys (schema.Dep.Key, or "fd" for the
	// functional dependency) to child nodes.
	deps map[string]NodeID
	// depKeys caches the sorted key list DepKeys returns. It is rebuilt
	// eagerly by refreshDepKeys at every edge mutation (construction is
	// single-threaded), never lazily — analyses run concurrently over a
	// finished flow, and a lazy fill would race.
	depKeys []string
	// bound holds the instances selected for this node in the browser.
	// Several instances may be selected, causing the task to be run once
	// per instance (§4.1).
	bound []history.ID
}

// Bound returns the instances bound to the node.
func (n *Node) Bound() []history.ID {
	return append([]history.ID(nil), n.bound...)
}

// IsBound reports whether at least one instance is bound.
func (n *Node) IsBound() bool { return len(n.bound) > 0 }

// DepKeys returns the node's filled dependency keys in sorted order
// ("fd" first, then data keys). The slice is the node's cached copy —
// callers must not modify it. (Before the cache, every analysis pass
// paid an allocation and a sort per node per call; at 20k-node
// generated flows DepKeys was ~10% of a full run's CPU.)
func (n *Node) DepKeys() []string { return n.depKeys }

// refreshDepKeys rebuilds the cached sorted key list. Every edge
// mutation must call it. It always builds a fresh slice, so previously
// returned (or clone-shared) slices stay valid snapshots.
func (n *Node) refreshDepKeys() {
	keys := make([]string, 0, len(n.deps))
	for k := range n.deps {
		if k != "fd" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if _, ok := n.deps["fd"]; ok {
		keys = append([]string{"fd"}, keys...)
	}
	n.depKeys = keys
}

// Dep returns the child filling the given dependency key, if any.
func (n *Node) Dep(key string) (NodeID, bool) {
	id, ok := n.deps[key]
	return id, ok
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
	nodes   map[NodeID]*Node
	order   []NodeID // creation order, for deterministic iteration
	next    NodeID
	// original marks designer-placed nodes (created by Add/ExpandUp, as
	// opposed to expansion children); Unexpand's garbage collection never
	// removes them.
	original map[NodeID]bool
}

// New creates an empty flow over the given schema. resolver may be nil.
func New(s *schema.Schema, resolver Resolver) *Flow {
	return &Flow{schema: s, resolve: resolver,
		nodes: make(map[NodeID]*Node), original: make(map[NodeID]bool)}
}

// Schema returns the schema the flow is built against.
func (f *Flow) Schema() *schema.Schema { return f.schema }

// Node returns the node with the given ID, or nil.
func (f *Flow) Node(id NodeID) *Node { return f.nodes[id] }

// Len returns the number of nodes.
func (f *Flow) Len() int { return len(f.order) }

// MaxID returns the largest node ID the flow has issued. Node IDs are
// small dense integers in 1..MaxID, so a table over a flow's nodes is a
// slice of MaxID()+1 entries indexed by ID.
func (f *Flow) MaxID() NodeID { return f.next }

// NodeIDs returns all node IDs in creation order.
func (f *Flow) NodeIDs() []NodeID {
	return append([]NodeID(nil), f.order...)
}

// typeOf returns the entity type of a node (helper with existence check).
func (f *Flow) typeOf(id NodeID) (*schema.EntityType, error) {
	n := f.nodes[id]
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
	f.original[id] = true
	return id, nil
}

// addNode creates a node without marking it designer-placed; expansion
// operations use it for the children they synthesize.
func (f *Flow) addNode(typeName string) (NodeID, error) {
	if !f.schema.Has(typeName) {
		return 0, fmt.Errorf("flow: unknown entity type %q", typeName)
	}
	f.next++
	id := f.next
	f.nodes[id] = &Node{ID: id, Type: typeName, deps: make(map[string]NodeID)}
	f.order = append(f.order, id)
	return id, nil
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
		for _, k := range p.DepKeys() {
			if p.deps[k] == id {
				out = append(out, ParentRef{Parent: pid, Key: k})
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
		for _, cid := range f.nodes[pid].deps {
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
		if len(f.nodes[id].deps) == 0 {
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
		for _, c := range f.nodes[cur].deps {
			stack = append(stack, c)
		}
	}
	return false
}

// Clone returns a deep copy of the flow (used by the flow catalog: a
// plan-based designer checks out a copy and adapts it).
func (f *Flow) Clone() *Flow {
	out := New(f.schema, f.resolve)
	out.Name = f.Name
	out.next = f.next
	out.order = append([]NodeID(nil), f.order...)
	for id, orig := range f.original {
		out.original[id] = orig
	}
	for id, n := range f.nodes {
		cp := &Node{ID: n.ID, Type: n.Type, deps: make(map[string]NodeID, len(n.deps)), depKeys: n.depKeys}
		for k, v := range n.deps {
			cp.deps[k] = v
		}
		cp.bound = append([]history.ID(nil), n.bound...)
		out.nodes[id] = cp
	}
	return out
}
