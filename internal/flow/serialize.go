package flow

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/history"
	"repro/internal/schema"
)

// JSON serialization for flows, used to persist the flow catalog (and a
// designer's open task windows) across sessions.

type nodeJSON struct {
	ID       NodeID            `json:"id"`
	Type     string            `json:"type"`
	Deps     map[string]NodeID `json:"deps,omitempty"`
	Bound    []history.ID      `json:"bound,omitempty"`
	Original bool              `json:"original,omitempty"`
}

type flowJSON struct {
	Name  string     `json:"name,omitempty"`
	Next  NodeID     `json:"next"`
	Nodes []nodeJSON `json:"nodes"`
}

// Encode writes the flow as JSON.
func (f *Flow) Encode(w io.Writer) error {
	out := flowJSON{Name: f.Name, Next: f.next}
	for _, id := range f.order {
		n := f.nodes[id]
		nj := nodeJSON{ID: id, Type: n.Type, Original: n.original}
		if len(n.depKeys) > 0 {
			nj.Deps = make(map[string]NodeID, len(n.depKeys))
			for i, k := range n.depKeys {
				nj.Deps[k] = n.depIDs[i]
			}
		}
		nj.Bound = append([]history.ID(nil), n.bound...)
		out.Nodes = append(out.Nodes, nj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// Decode reads a flow previously written by Encode. The result is
// validated against the schema, and bindings are re-checked against the
// resolver when one is supplied (pass the session's history DB so stale
// bindings surface at load time rather than at run time). A node ID or
// "next" above the node-ID ceiling is rejected before any table is
// sized from it.
func Decode(r io.Reader, s *schema.Schema, resolver Resolver) (*Flow, error) {
	var in flowJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("flow: decode: %w", err)
	}
	f := New(s, resolver)
	f.Name = in.Name
	for _, nj := range in.Nodes {
		if nj.ID <= 0 {
			return nil, fmt.Errorf("flow: decode: bad node id %d", nj.ID)
		}
		if f.Node(nj.ID) != nil {
			return nil, fmt.Errorf("flow: decode: duplicate node id %d", nj.ID)
		}
		if !s.Has(nj.Type) {
			return nil, fmt.Errorf("flow: decode: node %d has unknown type %q", nj.ID, nj.Type)
		}
		if nj.ID > maxNodeID {
			return nil, fmt.Errorf("flow: decode: node id %d exceeds the limit of %d", nj.ID, maxNodeID)
		}
		n := &Node{ID: nj.ID, Type: nj.Type, original: nj.Original}
		n.setDeps(nj.Deps)
		f.put(n)
		if nj.ID > f.next {
			f.next = nj.ID
		}
	}
	if in.Next > maxNodeID {
		return nil, fmt.Errorf("flow: decode: next id %d exceeds the limit of %d", in.Next, maxNodeID)
	}
	if in.Next > f.next {
		f.next = in.Next
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	// Bindings last, so the resolver check sees a structurally sound
	// flow.
	for _, nj := range in.Nodes {
		if len(nj.Bound) > 0 {
			if err := f.Bind(nj.ID, nj.Bound...); err != nil {
				return nil, fmt.Errorf("flow: decode: %w", err)
			}
		}
	}
	return f, nil
}

// setDeps gives a decoded node the edges of its "deps" object, in
// DepKeys order: "fd" first, then data keys ascending.
func (n *Node) setDeps(deps map[string]NodeID) {
	for k := range deps {
		n.depKeys = append(n.depKeys, k)
	}
	sort.Slice(n.depKeys, func(a, b int) bool {
		ka, kb := n.depKeys[a], n.depKeys[b]
		return kb != "fd" && (ka == "fd" || ka < kb)
	})
	n.depIDs = make([]NodeID, len(deps))
	for i, k := range n.depKeys {
		n.depIDs[i] = deps[k]
	}
}
