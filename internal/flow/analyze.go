package flow

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/history"
)

// This file implements structural analyses over task graphs: validation
// against the schema, topological execution order, executability (§3.2:
// "once instances have been selected for the leaf nodes, the non-leaf
// nodes become executable"), disjoint-branch detection for parallel
// execution (Fig. 6), and conversion into a history query template
// (§4.2).

// Validate checks the whole flow for structural soundness against its
// schema: every node type exists; every edge names a real dependency of
// the parent's type and its child's type satisfies it; at most the
// schema-declared dependencies are filled; the graph is acyclic.
func (f *Flow) Validate() error {
	_, err := f.Check()
	return err
}

// Check is Validate returning the execution order (Order) it computes
// on the way, so a caller that validates and then plans sorts the graph
// once. The order is nil whenever the error is not.
func (f *Flow) Check() ([]NodeID, error) {
	var errs []string
	for _, id := range f.order {
		n := f.nodes[id]
		t := f.schema.Type(n.Type)
		if t == nil {
			errs = append(errs, fmt.Sprintf("node %d: unknown type %q", id, n.Type))
			continue
		}
		for i, key := range n.depKeys {
			cid := n.depIDs[i]
			c := f.Node(cid)
			if c == nil {
				errs = append(errs, fmt.Sprintf("node %d: dependency %q points at missing node %d", id, key, cid))
				continue
			}
			var wantType string
			if key == "fd" {
				if t.FuncDep == nil {
					errs = append(errs, fmt.Sprintf("node %d (%s): has fd edge but type declares none", id, n.Type))
					continue
				}
				wantType = t.FuncDep.Type
			} else {
				d, ok := t.DepByKey(key)
				if !ok || (t.FuncDep != nil && key == t.FuncDep.Key()) {
					errs = append(errs, fmt.Sprintf("node %d (%s): type has no data dependency %q", id, n.Type, key))
					continue
				}
				wantType = d.Type
			}
			if !f.schema.Satisfies(c.Type, wantType) {
				errs = append(errs, fmt.Sprintf("node %d (%s): dependency %q filled by node %d of type %s, want %s",
					id, n.Type, key, cid, c.Type, wantType))
			}
		}
	}
	order, err := f.Order()
	if err != nil {
		errs = append(errs, err.Error())
	}
	if len(errs) > 0 {
		sort.Strings(errs)
		return nil, fmt.Errorf("flow invalid:\n  %s", strings.Join(errs, "\n  "))
	}
	return order, nil
}

// danglingDeps reports the first dependency edge that references a node no
// longer in the flow (possible only in hand-assembled or corrupted flows;
// the construction operations never produce one).
func (f *Flow) danglingDep() error {
	for _, id := range f.order {
		n := f.nodes[id]
		for i, cid := range n.depIDs {
			if f.Node(cid) == nil {
				return fmt.Errorf("flow: node %d (%s): dependency %q is a dangling reference to removed node %d",
					id, n.Type, n.depKeys[i], cid)
			}
		}
	}
	return nil
}

// nodeHeap is a min-heap of node IDs — the ready queue of Order. A
// hand-rolled heap (rather than container/heap) keeps the hot loop free
// of interface calls and allocations.
type nodeHeap []NodeID

func (h *nodeHeap) push(x NodeID) {
	*h = append(*h, x)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *nodeHeap) pop() NodeID {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && s[l] < s[small] {
			small = l
		}
		if r < n && s[r] < s[small] {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	*h = s
	return top
}

// Order returns the nodes in execution order: every node after all of its
// dependencies, ties broken by smallest ID first (a min-heap over the
// ready set — the same order the original sort-per-pop implementation
// produced, at O(E log V) instead of O(V² log V); at 20k-node generated
// flows the difference is seconds versus milliseconds). It fails if the
// graph has a cycle or a dangling dependency edge (which the
// construction operations prevent, but a hand-assembled flow might not).
func (f *Flow) Order() ([]NodeID, error) {
	if err := f.danglingDep(); err != nil {
		return nil, err
	}
	// Node IDs are small dense integers (see MaxID), so in-degrees and
	// the reverse adjacency index by ID into flat slices (the reverse
	// edges in CSR layout: one bucket array, no per-node slice).
	n := int(f.MaxID()) + 1
	indeg := make([]int32, n)
	for _, id := range f.order {
		indeg[id] = int32(len(f.nodes[id].depIDs))
	}
	// CSR reverse adjacency: parents of c are edges[start[c]:cur[c]].
	start := make([]int32, n+1)
	for _, id := range f.order {
		for _, c := range f.nodes[id].depIDs {
			start[c+1]++
		}
	}
	for i := 1; i <= n; i++ {
		start[i] += start[i-1]
	}
	edges := make([]NodeID, start[n])
	cur := make([]int32, n)
	copy(cur, start[:n])
	for _, id := range f.order {
		for _, c := range f.nodes[id].depIDs {
			edges[cur[c]] = id
			cur[c]++
		}
	}
	// Process children before parents: start from nodes with no deps.
	ready := make(nodeHeap, 0, len(f.order))
	for _, id := range f.order {
		if indeg[id] == 0 {
			ready.push(id)
		}
	}
	out := make([]NodeID, 0, len(f.order))
	for len(ready) > 0 {
		c := ready.pop()
		out = append(out, c)
		for _, p := range edges[start[c]:cur[c]] {
			indeg[p]--
			if indeg[p] == 0 {
				ready.push(p)
			}
		}
	}
	if len(out) != len(f.order) {
		return nil, fmt.Errorf("flow: dependency cycle among %d node(s)", len(f.order)-len(out))
	}
	return out, nil
}

// Branches partitions the flow into its connected components (treating
// edges as undirected): fully disjoint branches that share no entity and
// can execute on different machines (Fig. 6).
func (f *Flow) Branches() [][]NodeID {
	parent := make([]NodeID, f.MaxID()+1)
	var find func(x NodeID) NodeID
	find = func(x NodeID) NodeID {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b NodeID) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, id := range f.order {
		parent[id] = id
	}
	for _, id := range f.order {
		for _, cid := range f.nodes[id].depIDs {
			union(id, cid)
		}
	}
	groups := make(map[NodeID][]NodeID)
	for _, id := range f.order {
		r := find(id)
		groups[r] = append(groups[r], id)
	}
	var roots []NodeID
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return groups[roots[i]][0] < groups[roots[j]][0] })
	out := make([][]NodeID, 0, len(groups))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out
}

// Executable reports whether the node can be run now or is already
// satisfied: a node is satisfied when it is bound to instances, and
// runnable when its type has a construction (task or composite) and every
// required dependency edge is present and leads to an executable node.
// Missing explanations are returned as a reason string when not
// executable.
//
// Shared sub-DAGs are visited once: without the memo, a diamond-heavy
// graph makes the walk exponential in the number of dependency paths
// (2^depth on stacked diamonds), which at generator scale never
// terminates.
func (f *Flow) Executable(id NodeID) (bool, string) {
	return f.ExecutableAll([]NodeID{id})
}

// ExecutableAll is Executable over several targets sharing one visited
// set, so a multi-root flow is walked O(V+E) total instead of once per
// root. It reports the first non-executable target's reason.
func (f *Flow) ExecutableAll(ids []NodeID) (bool, string) {
	seen := make([]bool, f.MaxID()+1)
	for _, id := range ids {
		if ok, why := f.executable(id, seen); !ok {
			return false, why
		}
	}
	return true, ""
}

// executable is Executable's body; seen memoizes nodes already proven
// executable (failures return immediately, so only successes recur).
// The node lookup comes first: it rejects an ID not in the flow before
// seen, which covers only the flow's IDs, is indexed.
func (f *Flow) executable(id NodeID, seen []bool) (bool, string) {
	n := f.Node(id)
	if n == nil {
		return false, fmt.Sprintf("no node %d", id)
	}
	if seen[id] {
		return true, ""
	}
	if n.IsBound() {
		seen[id] = true
		return true, ""
	}
	t := f.schema.Type(n.Type)
	if t == nil {
		return false, fmt.Sprintf("unknown type %q", n.Type)
	}
	if t.Abstract {
		return false, fmt.Sprintf("node %d: type %s is abstract and unbound", id, n.Type)
	}
	if t.IsPrimitiveSource() {
		return false, fmt.Sprintf("node %d: primitive %s must be bound to an instance", id, n.Type)
	}
	if t.FuncDep != nil && !n.hasDep("fd") {
		return false, fmt.Sprintf("node %d: tool dependency (%s) not expanded", id, t.FuncDep.Type)
	}
	for _, d := range t.RequiredDeps() {
		if !n.hasDep(d.Key()) {
			return false, fmt.Sprintf("node %d: required dependency %q not filled", id, d.Key())
		}
	}
	for _, c := range n.depIDs {
		if ok, why := f.executable(c, seen); !ok {
			return false, why
		}
	}
	seen[id] = true
	return true, ""
}

// AsPattern converts the flow into a history query template (§4.2: "the
// task graph can be used to formulate ... queries into the design history
// database"). Node refs are "n<id>"; bound nodes with exactly one
// instance pin the pattern node; multi-bound nodes contribute their type
// only.
func (f *Flow) AsPattern() history.Pattern {
	var p history.Pattern
	for _, id := range f.order {
		n := f.nodes[id]
		pn := history.PatternNode{Ref: fmt.Sprintf("n%d", id), Type: n.Type}
		if len(n.bound) == 1 {
			pn.Bound = n.bound[0]
		}
		p.Nodes = append(p.Nodes, pn)
	}
	for _, id := range f.order {
		n := f.nodes[id]
		for i, key := range n.depKeys {
			p.Edges = append(p.Edges, history.PatternEdge{
				Parent: fmt.Sprintf("n%d", id),
				Child:  fmt.Sprintf("n%d", n.depIDs[i]),
				Key:    key,
			})
		}
	}
	return p
}
