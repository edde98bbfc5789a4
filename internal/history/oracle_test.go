package history

import "fmt"

// NaiveBackchain and NaiveForwardchain are the reference walkers the
// derivation graph is tested against. They share no structure with it:
// the backward walker follows each stored instance's own Tool and
// Inputs fields, and the forward walker finds dependents by scanning
// every instance in the table. Answers must equal the graph's field for field:
// root, node order, edge order, kinds and keys. They are exported to
// the external test package, which can build generated worlds.

// NaiveBackchain is Backchain computed from the instance records.
func NaiveBackchain(db *DB, id ID, depth int) (*Derivation, error) {
	if db.look(id) == nil {
		return nil, fmt.Errorf("history: no instance %s", id)
	}
	d := &Derivation{Root: id, Nodes: []ID{id}}
	visited := map[ID]bool{id: true}
	frontier := []ID{id}
	for level := 0; len(frontier) > 0 && (depth < 0 || level < depth); level++ {
		var next []ID
		visit := func(cur, child ID, kind EdgeKind, key string) {
			d.Edges = append(d.Edges, Edge{Parent: cur, Child: child, Kind: kind, Key: key})
			if !visited[child] {
				visited[child] = true
				d.Nodes = append(d.Nodes, child)
				next = append(next, child)
			}
		}
		for _, cur := range frontier {
			in := db.look(cur)
			if in.Tool != "" {
				visit(cur, in.Tool, EdgeTool, "")
			}
			for _, x := range in.Inputs {
				visit(cur, x.Inst, EdgeInput, x.Key)
			}
		}
		frontier = next
	}
	return d, nil
}

// NaiveForwardchain is Forwardchain computed from one scan of the
// instance table for every use: one edge per use, in creation order, a
// dependent's tool arc before its inputs in input order, each labelled
// with its own key.
func NaiveForwardchain(db *DB, id ID, depth int) (*Derivation, error) {
	if db.look(id) == nil {
		return nil, fmt.Errorf("history: no instance %s", id)
	}
	uses := make(map[ID][]Edge)
	for seq := 1; seq <= db.Seq(); seq++ { // the instance table, in commit order
		var u *Instance
		if sl := db.slot(seq); sl != nil {
			u = sl.Load()
		}
		if u == nil {
			continue
		}
		if u.Tool != "" {
			uses[u.Tool] = append(uses[u.Tool], Edge{Parent: u.ID, Child: u.Tool, Kind: EdgeTool})
		}
		for _, x := range u.Inputs {
			uses[x.Inst] = append(uses[x.Inst], Edge{Parent: u.ID, Child: x.Inst, Kind: EdgeInput, Key: x.Key})
		}
	}
	d := &Derivation{Root: id, Nodes: []ID{id}}
	visited := map[ID]bool{id: true}
	frontier := []ID{id}
	for level := 0; len(frontier) > 0 && (depth < 0 || level < depth); level++ {
		var next []ID
		for _, cur := range frontier {
			for _, e := range uses[cur] {
				d.Edges = append(d.Edges, e)
				if !visited[e.Parent] {
					visited[e.Parent] = true
					d.Nodes = append(d.Nodes, e.Parent)
					next = append(next, e.Parent)
				}
			}
		}
		frontier = next
	}
	return d, nil
}
