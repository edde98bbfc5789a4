package flow

import (
	"fmt"
	"sort"
	"strings"
)

// This file implements the three renderings of a flow discussed around
// Fig. 3 of the paper:
//
//   - the task graph itself (the Hercules task-window view, Fig. 9);
//   - the traditional bipartite flow diagram, in which tool boxes
//     alternate with data boxes;
//   - the Lisp-like functional form of footnote 2, which treats the tool
//     as just another parameter:
//     placement <- (placer, (circuit_editor, circuit), placement_options).

// Render prints the task graph as an indented tree from each root.
// Dependency keys label the edges; bound nodes show their instances;
// nodes reached twice (entity reuse, Fig. 5) are marked and not
// re-expanded.
func (f *Flow) Render() string {
	var b strings.Builder
	seen := make(map[NodeID]bool)
	var walk func(id NodeID, key string, depth int)
	walk = func(id NodeID, key string, depth int) {
		n := f.nodes[id]
		indent := strings.Repeat("  ", depth)
		label := fmt.Sprintf("%s%s", indent, n.Type)
		if key != "" {
			label = fmt.Sprintf("%s%s: %s", indent, key, n.Type)
		}
		if n.IsBound() {
			var insts []string
			for _, x := range n.bound {
				insts = append(insts, string(x))
			}
			label += fmt.Sprintf(" = {%s}", strings.Join(insts, ", "))
		}
		if seen[id] {
			fmt.Fprintf(&b, "%s (shared)\n", label)
			return
		}
		seen[id] = true
		fmt.Fprintln(&b, label)
		for i, k := range n.depKeys {
			walk(n.depIDs[i], k, depth+1)
		}
	}
	for _, r := range f.Roots() {
		walk(r, "", 0)
	}
	return b.String()
}

// Activity is one line of the bipartite flow-diagram view: a tool box
// with its input and output data boxes. Entities that are themselves
// tools appear in Inputs when used as data (tools-as-data, §3.3).
type Activity struct {
	Output string   // entity type produced
	Tool   string   // tool type ("" for composite grouping)
	Inputs []string // input entity types, in dependency-key order
}

// String renders "tool: inputs -> output" in the JESSI flowmap style.
func (a Activity) String() string {
	tool := a.Tool
	if tool == "" {
		tool = "compose"
	}
	return fmt.Sprintf("(%s): %s -> %s", tool, strings.Join(a.Inputs, ", "), a.Output)
}

// Bipartite converts the task graph into the traditional bipartite flow
// diagram: one activity per constructed node, in execution order. Leaf
// and bound nodes contribute no activity (they are pure data boxes).
func (f *Flow) Bipartite() ([]Activity, error) {
	order, err := f.Order()
	if err != nil {
		return nil, err
	}
	var out []Activity
	for _, id := range order {
		n := f.nodes[id]
		if len(n.depKeys) == 0 {
			continue
		}
		a := Activity{Output: n.Type}
		for i, k := range n.depKeys {
			c := f.nodes[n.depIDs[i]]
			if k == "fd" {
				a.Tool = c.Type
			} else {
				a.Inputs = append(a.Inputs, c.Type)
			}
		}
		out = append(out, a)
	}
	return out, nil
}

// LispForm renders the flow in footnote 2's functional notation, one
// expression per root. A constructed node becomes
// "(tool, dep, dep, ...)"; a leaf renders as its type name, lowercased
// with underscores, or its bound instance; a shared node is rendered in
// full the first time and by reference afterwards.
func (f *Flow) LispForm() string {
	var exprs []string
	seen := make(map[NodeID]bool)
	var render func(id NodeID) string
	render = func(id NodeID) string {
		n := f.nodes[id]
		if len(n.bound) == 1 {
			return string(n.bound[0])
		}
		if len(n.depKeys) == 0 || seen[id] {
			return lispName(n.Type)
		}
		seen[id] = true
		parts := make([]string, 0, len(n.depKeys))
		children := n.depIDs
		if n.depKeys[0] == "fd" {
			parts = append(parts, render(children[0]))
			children = children[1:]
		} else {
			parts = append(parts, "compose")
		}
		for _, c := range children {
			parts = append(parts, render(c))
		}
		return "(" + strings.Join(parts, ", ") + ")"
	}
	roots := f.Roots()
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	for _, r := range roots {
		n := f.nodes[r]
		if len(n.depKeys) == 0 {
			exprs = append(exprs, lispName(n.Type))
			continue
		}
		exprs = append(exprs, fmt.Sprintf("%s <- %s", lispName(n.Type), render(r)))
	}
	return strings.Join(exprs, "\n")
}

// lispName converts CamelCase type names to lower_snake, matching the
// paper's circuit_editor style.
func lispName(s string) string {
	var b strings.Builder
	for i, r := range s {
		if r >= 'A' && r <= 'Z' {
			if i > 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r - 'A' + 'a')
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}
