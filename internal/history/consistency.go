package history

import (
	"fmt"
	"sort"
)

// This file implements design-consistency maintenance (§3.3): detecting
// that derived data is out of date with respect to the data it was derived
// from, and planning the automatic retracing of a flow to bring it up to
// date. Both are pure queries over the derivation history; package exec
// turns a RetracePlan into actual tool runs.

// NewestVersion returns the most recently created version in id's version
// lineage (possibly id itself).
func (db *DB) NewestVersion(id ID) (ID, error) {
	versions, err := db.VersionsOf(id)
	if err != nil {
		return "", err
	}
	return versions[len(versions)-1], nil
}

// Superseded reports whether a newer version of id exists in its lineage.
func (db *DB) Superseded(id ID) (bool, error) {
	newest, err := db.NewestVersion(id)
	if err != nil {
		return false, err
	}
	return newest != id, nil
}

// Stale is a pair found by StaleInputs: the derivation of some instance
// used Used, but Newest now supersedes it.
type Stale struct {
	Used   ID
	Newest ID
}

// StaleInputs returns, for every instance in id's derivation history
// (id excluded), the ones that have been superseded by newer versions.
// The paper's query "is the extracted netlist out-of-date with respect to
// the layout?" is StaleInputs over the netlist: a non-empty result means
// yes. Results are sorted by the superseded instance's ID.
//
// Lineage roots and newest versions are memoized across the derivation's
// nodes, so long edit chains cost O(derivation + lineage) instead of the
// naive quadratic walk.
func (db *DB) StaleInputs(id ID) ([]Stale, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	back, err := db.graph.Backchain(id, -1)
	if err != nil {
		return nil, err
	}
	return db.staleLocked(back), nil
}

// staleLocked is StaleInputs over the backchain it has computed. The
// caller holds db.mu, so no commit lands between the walk and the
// version lookups.
func (db *DB) staleLocked(back *Derivation) []Stale {
	id := back.Root
	inBack := make(map[ID]bool, len(back.Nodes))
	for _, n := range back.Nodes {
		inBack[n] = true
	}

	rootMemo := make(map[ID]ID)
	var rootOf func(n ID) ID
	rootOf = func(n ID) ID {
		if r, ok := rootMemo[n]; ok {
			return r
		}
		p := db.versionParent(n)
		var r ID
		if p == "" {
			r = n
		} else {
			r = rootOf(p)
		}
		rootMemo[n] = r
		return r
	}

	// newestOf walks the whole version tree below a lineage root once,
	// picking the latest creation (ID as tie-break), without sorting or
	// instance copying.
	newestMemo := make(map[ID]ID)
	newestOf := func(root ID) ID {
		if n, ok := newestMemo[root]; ok {
			return n
		}
		best := root
		stack := []ID{root}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			rootMemo[cur] = root // the walk doubles as root memoization
			bi, ci := db.look(best), db.look(cur)
			if ci.Created.After(bi.Created) ||
				(ci.Created.Equal(bi.Created) && cur > best) {
				best = cur
			}
			stack = append(stack, db.versionChildren(cur)...)
		}
		newestMemo[root] = best
		return best
	}

	var out []Stale
	for _, n := range back.Nodes {
		if n == id {
			continue
		}
		newest := newestOf(rootOf(n))
		// Skip if the newer version is itself part of the derivation
		// (the flow already consumed it elsewhere), or if the newer
		// version carries byte-identical content: consumers are functions
		// of artifact bytes, so such a supersession cannot invalidate
		// anything — and the derivation-keyed result cache (internal/memo)
		// keys on content, so staleness here must agree with it.
		if newest != n && !inBack[newest] && !db.sameContentLocked(n, newest) {
			out = append(out, Stale{Used: n, Newest: newest})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Used < out[j].Used })
	return out
}

// sameContentLocked reports whether two instances carry byte-identical
// artifacts: the same non-empty content ref, or the same archive
// revision. Caller holds db.mu.
func (db *DB) sameContentLocked(a, b ID) bool {
	ia, ib := db.look(a), db.look(b)
	if ia == nil || ib == nil {
		return false
	}
	if ia.Data != "" && ia.Data == ib.Data {
		return true
	}
	return ia.Archive != "" && ia.Archive == ib.Archive && ia.Revision == ib.Revision
}

// OutOfDate reports whether id's derivation used any instance that has
// since been superseded with actually different content.
func (db *DB) OutOfDate(id ID) (bool, error) {
	stale, err := db.StaleInputs(id)
	if err != nil {
		return false, err
	}
	return len(stale) > 0, nil
}

// RetraceStep directs the re-execution of one construction: recreate an
// instance equivalent to Rebuild, after substituting superseded inputs.
type RetraceStep struct {
	// Rebuild is the existing, now-stale instance whose construction is
	// to be repeated.
	Rebuild ID
	// Replace maps each directly-used stale instance to its newest
	// version. Inputs that are themselves rebuilt by an earlier step are
	// not listed here; the executor substitutes those as it goes.
	Replace map[ID]ID
}

// RetracePlan is the ordered recipe for bringing id up to date: steps are
// listed leaves-first, so executing them in order always has fresh inputs
// available.
type RetracePlan struct {
	Target ID
	Steps  []RetraceStep
}

// Fresh reports whether no retracing is needed.
func (p *RetracePlan) Fresh() bool { return len(p.Steps) == 0 }

// PlanRetrace computes which constructions along id's derivation must be
// re-run because their (transitive) inputs were superseded, and in what
// order (§3.3's "automatic retracing of a flow to update derived design
// data"). Instances without a task (primitive sources) are never rebuilt —
// they are replaced by their newest versions instead.
func (db *DB) PlanRetrace(id ID) (*RetracePlan, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	back, err := db.graph.Backchain(id, -1)
	if err != nil {
		return nil, err
	}
	stale := db.staleLocked(back)
	plan := &RetracePlan{Target: id}
	if len(stale) == 0 {
		return plan, nil
	}
	newest := make(map[ID]ID, len(stale))
	for _, s := range stale {
		newest[s.Used] = s.Newest
	}

	// children[parent] = the instances parent used directly.
	children := make(map[ID][]ID)
	for _, e := range back.Edges {
		children[e.Parent] = append(children[e.Parent], e.Child)
	}

	// dirty[x] = x is superseded itself, or x's construction consumed a
	// dirty instance and therefore must be re-run (when it has a task) or
	// re-grouped (composites).
	dirty := make(map[ID]bool)
	var rebuildOrder []ID
	visited := make(map[ID]bool)
	var visit func(x ID) bool
	visit = func(x ID) bool {
		if visited[x] {
			return dirty[x]
		}
		visited[x] = true
		d := newest[x] != ""
		for _, c := range children[x] {
			if visit(c) {
				d = true
			}
		}
		dirty[x] = d
		// A dirty instance that was *constructed* (has a tool or is a
		// composite grouping) must be re-run; post-order gives the
		// leaves-first execution order.
		if d && newest[x] == "" {
			in := db.look(x)
			t := db.schema.Type(in.Type)
			if in.Tool != "" || (t != nil && t.Composite) {
				rebuildOrder = append(rebuildOrder, x)
			}
		}
		return d
	}
	visit(id)

	for _, x := range rebuildOrder {
		step := RetraceStep{Rebuild: x, Replace: make(map[ID]ID)}
		for _, c := range children[x] {
			if n, ok := newest[c]; ok {
				step.Replace[c] = n
			}
		}
		plan.Steps = append(plan.Steps, step)
	}
	return plan, nil
}

// String renders the plan for display.
func (p *RetracePlan) String() string {
	if p.Fresh() {
		return fmt.Sprintf("retrace %s: up to date", p.Target)
	}
	s := fmt.Sprintf("retrace %s: %d step(s)", p.Target, len(p.Steps))
	for i, st := range p.Steps {
		s += fmt.Sprintf("\n  %d. rebuild %s", i+1, st.Rebuild)
		// Deterministic order for display.
		var keys []ID
		for k := range st.Replace {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			s += fmt.Sprintf(" [%s -> %s]", k, st.Replace[k])
		}
	}
	return s
}
