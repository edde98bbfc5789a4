package history

import (
	"fmt"
	"sort"
	"strings"
)

// This file implements the backward- and forward-chaining queries of §4.2:
// derivation history ("what was this made from, with what tools?") and
// use-dependencies ("what was made from this?"). Both return the relevant
// slice of the derivation graph so callers (the Hercules browser, the
// consistency maintainer, flow traces) can walk or render it.

// EdgeKind distinguishes the two arc kinds of a derivation, mirroring the
// schema's functional and data dependencies.
type EdgeKind int

const (
	// EdgeTool marks "parent was produced by running tool child".
	EdgeTool EdgeKind = iota
	// EdgeInput marks "parent was produced using data child".
	EdgeInput
)

// String returns "fd" or "dd", the paper's arc labels.
func (k EdgeKind) String() string {
	if k == EdgeTool {
		return "fd"
	}
	return "dd"
}

// Edge is one arc of the derivation graph: Parent was created using Child.
type Edge struct {
	Parent ID
	Child  ID
	Kind   EdgeKind
	Key    string // dependency key for EdgeInput edges
}

// String renders "parent -fd-> child" / "parent -dd[key]-> child".
func (e Edge) String() string {
	if e.Kind == EdgeTool {
		return fmt.Sprintf("%s -fd-> %s", e.Parent, e.Child)
	}
	return fmt.Sprintf("%s -dd[%s]-> %s", e.Parent, e.Key, e.Child)
}

// Derivation is a slice of the derivation graph rooted at Root: the
// instances and arcs reachable by backward (or forward) chaining.
type Derivation struct {
	Root  ID
	Nodes []ID // BFS order from Root; Root first
	Edges []Edge
}

// Contains reports whether the derivation includes the given instance.
func (d *Derivation) Contains(id ID) bool {
	for _, n := range d.Nodes {
		if n == id {
			return true
		}
	}
	return false
}

// Render prints the derivation as an indented tree (sharing shown by
// repeating the node with an ellipsis), for terminal display.
func (d *Derivation) Render(db *DB) string {
	children := make(map[ID][]Edge)
	for _, e := range d.Edges {
		children[e.Parent] = append(children[e.Parent], e)
	}
	var b strings.Builder
	seen := make(map[ID]bool)
	var walk func(id ID, depth int)
	walk = func(id ID, depth int) {
		indent := strings.Repeat("  ", depth)
		label := string(id)
		if in := db.Get(id); in != nil && in.Name != "" {
			label += " (" + in.Name + ")"
		}
		if seen[id] && len(children[id]) > 0 {
			fmt.Fprintf(&b, "%s%s ...\n", indent, label)
			return
		}
		seen[id] = true
		fmt.Fprintf(&b, "%s%s\n", indent, label)
		for _, e := range children[id] {
			walk(e.Child, depth+1)
		}
	}
	walk(d.Root, 0)
	return b.String()
}

// Backchain computes the derivation history of id: everything (transitively)
// used to create it, following both tool and input arcs, up to the given
// depth (depth < 0 means unbounded). This is the History pop-up of Fig. 10.
func (db *DB) Backchain(id ID, depth int) (*Derivation, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.backchainLocked(id, depth)
}

// backchainLocked is Backchain's body; the caller holds the lock.
func (db *DB) backchainLocked(id ID, depth int) (*Derivation, error) {
	if db.look(id) == nil {
		return nil, fmt.Errorf("history: no instance %s", id)
	}
	d := &Derivation{Root: id}
	visited := map[ID]bool{id: true}
	frontier := []ID{id}
	d.Nodes = append(d.Nodes, id)
	for level := 0; len(frontier) > 0 && (depth < 0 || level < depth); level++ {
		var next []ID
		for _, cur := range frontier {
			in := db.look(cur)
			if in.Tool != "" {
				d.Edges = append(d.Edges, Edge{Parent: cur, Child: in.Tool, Kind: EdgeTool})
				if !visited[in.Tool] {
					visited[in.Tool] = true
					d.Nodes = append(d.Nodes, in.Tool)
					next = append(next, in.Tool)
				}
			}
			for _, x := range in.Inputs {
				d.Edges = append(d.Edges, Edge{Parent: cur, Child: x.Inst, Kind: EdgeInput, Key: x.Key})
				if !visited[x.Inst] {
					visited[x.Inst] = true
					d.Nodes = append(d.Nodes, x.Inst)
					next = append(next, x.Inst)
				}
			}
		}
		frontier = next
	}
	return d, nil
}

// Forwardchain computes the use-dependencies of id: everything
// (transitively) created from it, up to the given depth (depth < 0 means
// unbounded). Edges point from dependent (parent) to the used instance, so
// a forward chain shares the Edge orientation of Backchain.
func (db *DB) Forwardchain(id ID, depth int) (*Derivation, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.look(id) == nil {
		return nil, fmt.Errorf("history: no instance %s", id)
	}
	d := &Derivation{Root: id}
	visited := map[ID]bool{id: true}
	frontier := []ID{id}
	d.Nodes = append(d.Nodes, id)
	for level := 0; len(frontier) > 0 && (depth < 0 || level < depth); level++ {
		var next []ID
		for _, cur := range frontier {
			db.dependents(SeqOf(cur), func(uin *Instance) {
				user := uin.ID
				kind, key := EdgeInput, ""
				if uin.Tool == cur {
					kind = EdgeTool
				} else {
					for _, x := range uin.Inputs {
						if x.Inst == cur {
							key = x.Key
							break
						}
					}
				}
				d.Edges = append(d.Edges, Edge{Parent: user, Child: cur, Kind: kind, Key: key})
				if !visited[user] {
					visited[user] = true
					d.Nodes = append(d.Nodes, user)
					next = append(next, user)
				}
			})
		}
		frontier = next
	}
	return d, nil
}

// UsesOf answers the paper's canonical forward query — "find all the X
// derived from this instance" (e.g. all circuit performances derived from
// a given netlist): the instances of the named type (subtypes included)
// whose derivation transitively contains id.
func (db *DB) UsesOf(id ID, typeName string) ([]ID, error) {
	fwd, err := db.Forwardchain(id, -1)
	if err != nil {
		return nil, err
	}
	var out []ID
	for _, n := range fwd.Nodes {
		if n == id {
			continue
		}
		in := db.Get(n)
		if db.schema.Satisfies(in.Type, typeName) {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// DerivedWith answers the paper's canonical backward query — "find the X
// used in creating this instance" (e.g. the netlist that was extracted
// from this layout appears in the layout's forward chain; the netlist used
// in this simulation appears in the simulation's backward chain): the
// instances of the named type in id's derivation history.
func (db *DB) DerivedWith(id ID, typeName string) ([]ID, error) {
	back, err := db.Backchain(id, -1)
	if err != nil {
		return nil, err
	}
	var out []ID
	for _, n := range back.Nodes {
		if n == id {
			continue
		}
		in := db.Get(n)
		if db.schema.Satisfies(in.Type, typeName) {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}
