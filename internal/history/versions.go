package history

import (
	"fmt"
	"slices"
	"strings"
)

// This file implements §4.2's versioning story and Fig. 11: versioning is
// not a separate subsystem but a view over the derivation history.
// Editing tasks are recognized structurally — an entity type whose data
// dependency's source and target share a root type (EditedNetlist --dd-->
// Netlist) — and version trees are the projection of the derivation graph
// onto those edges. A *flow trace* is the semantically richer superset
// that also shows the tool used to create each version.

// IsEditType reports whether the named entity type is an editing task: it
// has a data dependency on its own root type. (§4.2: "editing tasks ...
// are characterized by having a data dependency whose source and target
// are of the same entity type".)
func (db *DB) IsEditType(typeName string) bool {
	t := db.schema.Type(typeName)
	if t == nil {
		return false
	}
	root := db.schema.Root(typeName)
	for _, d := range t.DataDeps {
		if db.schema.Root(d.Type) == root {
			return true
		}
	}
	return false
}

// versionChildren returns the direct version successors of id: dependents
// whose type is an edit type over the same root and that consumed id on
// the self-typed dependency, once per such use, in creation order.
func (db *DB) versionChildren(id ID) []ID {
	in := db.look(id)
	if in == nil {
		return nil
	}
	root := db.schema.Root(in.Type)
	var out []ID
	db.graph.uses(id, func(user ID, kind EdgeKind, key string) {
		if kind != EdgeInput {
			return
		}
		ut, _ := db.TypeOf(user)
		if db.schema.Root(ut) != root {
			return
		}
		if d, ok := db.schema.Type(ut).DepByKey(key); ok && db.schema.Root(d.Type) == root {
			out = append(out, user)
		}
	})
	return out
}

// versionParent returns the version predecessor of id, or "".
func (db *DB) versionParent(id ID) ID {
	in := db.look(id)
	if in == nil {
		return ""
	}
	root := db.schema.Root(in.Type)
	t := db.schema.Type(in.Type)
	for _, x := range in.Inputs {
		if d, ok := t.DepByKey(x.Key); ok && db.schema.Root(d.Type) == root {
			parent := db.look(x.Inst)
			if parent != nil && db.schema.Root(parent.Type) == root {
				return x.Inst
			}
		}
	}
	return ""
}

// VersionNode is one node of a classic version tree (Fig. 11a): data
// instances connected by edit derivations, tools elided.
type VersionNode struct {
	Inst     ID
	Children []*VersionNode
}

// Count returns the number of versions in the tree.
func (v *VersionNode) Count() int {
	n := 1
	for _, c := range v.Children {
		n += c.Count()
	}
	return n
}

// Render prints the tree with two-space indentation.
func (v *VersionNode) Render() string {
	var b strings.Builder
	var walk func(n *VersionNode, depth int)
	walk = func(n *VersionNode, depth int) {
		fmt.Fprintf(&b, "%s%s\n", strings.Repeat("  ", depth), n.Inst)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(v, 0)
	return b.String()
}

// LineageRoot walks version-parent edges from id back to the original
// version.
func (db *DB) LineageRoot(id ID) (ID, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.look(id) == nil {
		return "", fmt.Errorf("history: no instance %s", id)
	}
	cur := id
	for {
		p := db.versionParent(cur)
		if p == "" {
			return cur, nil
		}
		cur = p
	}
}

// VersionTree builds the classic version tree rooted at the lineage root
// of id (so any version of the design yields the same tree).
func (db *DB) VersionTree(id ID) (*VersionNode, error) {
	root, err := db.LineageRoot(id)
	if err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	var build func(cur ID) *VersionNode
	build = func(cur ID) *VersionNode {
		n := &VersionNode{Inst: cur}
		for _, c := range db.versionChildren(cur) {
			n.Children = append(n.Children, build(c))
		}
		return n
	}
	return build(root), nil
}

// TraceNode is one node of a flow trace (Fig. 11b): like a version tree,
// but each derivation also names the tool instance that performed the
// edit and any other inputs it consumed — the information a version tree
// discards.
type TraceNode struct {
	Inst        ID
	Tool        ID   // tool that created Inst ("" for the original)
	OtherInputs []ID // non-version inputs of the edit
	Children    []*TraceNode
}

// Count returns the number of versions in the trace.
func (tn *TraceNode) Count() int {
	n := 1
	for _, c := range tn.Children {
		n += c.Count()
	}
	return n
}

// Render prints the trace; each child line shows the tool that produced
// it, mirroring Fig. 11(b)'s tool-labelled arcs.
func (tn *TraceNode) Render() string {
	var b strings.Builder
	var walk func(n *TraceNode, depth int)
	walk = func(n *TraceNode, depth int) {
		indent := strings.Repeat("  ", depth)
		if n.Tool == "" {
			fmt.Fprintf(&b, "%s%s\n", indent, n.Inst)
		} else {
			fmt.Fprintf(&b, "%s%s  [via %s]\n", indent, n.Inst, n.Tool)
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(tn, 0)
	return b.String()
}

// FlowTrace builds the flow trace over the version lineage of id: the
// version tree augmented with the tool used for each edit (Fig. 11b). It
// is constructed with the same forward-chaining machinery as any other
// history query — the paper's point that a flow trace is just a view of
// the derivation database.
func (db *DB) FlowTrace(id ID) (*TraceNode, error) {
	root, err := db.LineageRoot(id)
	if err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	var build func(cur ID, tool ID, others []ID) *TraceNode
	build = func(cur ID, tool ID, others []ID) *TraceNode {
		n := &TraceNode{Inst: cur, Tool: tool, OtherInputs: others}
		for _, c := range db.versionChildren(cur) {
			cin := db.look(c)
			var extra []ID
			for _, x := range cin.Inputs {
				if x.Inst != cur {
					extra = append(extra, x.Inst)
				}
			}
			n.Children = append(n.Children, build(c, cin.Tool, extra))
		}
		return n
	}
	return build(root, "", nil), nil
}

// VersionsOf returns every version in id's lineage in creation order —
// the flat list a browser would show next to the version tree.
func (db *DB) VersionsOf(id ID) ([]ID, error) {
	tree, err := db.VersionTree(id)
	if err != nil {
		return nil, err
	}
	var out []ID
	var walk func(n *VersionNode)
	walk = func(n *VersionNode) {
		out = append(out, n.Inst)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree)
	slices.SortFunc(out, func(a, b ID) int { return compareCreation(db.look(a), db.look(b)) })
	return out, nil
}
