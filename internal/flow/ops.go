package flow

import (
	"fmt"

	"repro/internal/history"
)

// This file implements the flow-construction operations of §3.2 and §4.1:
// Specialize, ExpandDown, ExpandUp, Connect, Unexpand and Bind — the
// pop-up-menu operations of the Hercules task window (Fig. 9).

// Specialize narrows a node's type to one of its concrete subtypes — the
// paper's specialization step, required before a node of abstract type can
// be expanded (Fig. 4b: the Circuit was specialized to an Extracted
// Netlist before expansion). Specializing to the node's current type is a
// no-op; widening or crossing to an unrelated type is an error. The node
// must not already be expanded or bound, since its construction could
// change.
func (f *Flow) Specialize(id NodeID, subtype string) error {
	n := f.Node(id)
	if n == nil {
		return fmt.Errorf("flow: no node %d", id)
	}
	if subtype == n.Type {
		return nil
	}
	st := f.schema.Type(subtype)
	if st == nil {
		return fmt.Errorf("flow: unknown subtype %q", subtype)
	}
	if !f.schema.IsSubtypeOf(subtype, n.Type) {
		return fmt.Errorf("flow: %s is not a subtype of %s", subtype, n.Type)
	}
	if len(n.depKeys) > 0 {
		return fmt.Errorf("flow: node %d is already expanded; unexpand before specializing", id)
	}
	if n.IsBound() {
		return fmt.Errorf("flow: node %d is bound; unbind before specializing", id)
	}
	// The parent edges must remain type-correct; narrowing can only help
	// (a subtype satisfies everything its supertype does), so no parent
	// re-check is needed.
	n.Type = subtype
	return nil
}

// SpecializationChoices lists the concrete subtypes a node may be
// specialized to (itself included when concrete).
func (f *Flow) SpecializationChoices(id NodeID) ([]string, error) {
	n := f.Node(id)
	if n == nil {
		return nil, fmt.Errorf("flow: no node %d", id)
	}
	return f.schema.ConcreteSubtypes(n.Type), nil
}

// ExpandDown incorporates the primitive task that constructs the node:
// it creates a child node for the functional dependency (the tool) and
// for each data dependency, connecting them under the node. Optional
// dependencies are included only when withOptional is set (they can also
// be added individually later with ExpandOptional). Dependencies already
// filled (for instance by Connect) are left untouched.
//
// The node's type must be concrete; specialize first if it is abstract
// (ExpandDown reports the available choices in its error). Composite
// entities expand into their components. Primitive sources have no
// construction and do not expand.
func (f *Flow) ExpandDown(id NodeID, withOptional bool) error {
	t, err := f.typeOf(id)
	if err != nil {
		return err
	}
	n := f.Node(id)
	if n.IsBound() {
		return fmt.Errorf("flow: node %d is bound to existing instances; expanding would rebuild it", id)
	}
	if t.Abstract {
		return fmt.Errorf("flow: node %d type %s is abstract; specialize first (choices: %v)",
			id, t.Name, f.schema.ConcreteSubtypes(t.Name))
	}
	if t.IsPrimitiveSource() {
		return fmt.Errorf("flow: %s is a primitive source; it is instantiated by binding, not expansion", t.Name)
	}
	if t.FuncDep != nil {
		if !n.hasDep("fd") {
			cid, err := f.addNode(t.FuncDep.Type)
			if err != nil {
				return err
			}
			n.addDep("fd", cid)
		}
	}
	for _, d := range t.DataDeps {
		if d.Optional && !withOptional {
			continue
		}
		if n.hasDep(d.Key()) {
			continue
		}
		cid, err := f.addNode(d.Type)
		if err != nil {
			return err
		}
		n.addDep(d.Key(), cid)
	}
	return nil
}

// ExpandOptional adds a single optional dependency (by key) that
// ExpandDown skipped — e.g. giving an editing task its base version.
func (f *Flow) ExpandOptional(id NodeID, key string) error {
	t, err := f.typeOf(id)
	if err != nil {
		return err
	}
	n := f.Node(id)
	d, ok := t.DepByKey(key)
	if !ok || (t.FuncDep != nil && key == t.FuncDep.Key()) {
		return fmt.Errorf("flow: %s has no data dependency %q", t.Name, key)
	}
	if !d.Optional {
		return fmt.Errorf("flow: dependency %q of %s is required; use ExpandDown", key, t.Name)
	}
	if n.hasDep(d.Key()) {
		return fmt.Errorf("flow: dependency %q of node %d already filled", key, id)
	}
	cid, err := f.addNode(d.Type)
	if err != nil {
		return err
	}
	n.addDep(d.Key(), cid)
	return nil
}

// ExpandUp grows the flow toward a use of the node: it creates a parent
// node of consumerType whose dependency depKey is filled by this node —
// the designer asking "what can I do with this netlist?" and picking one
// of the schema's answers (see UpChoices). The new parent is returned
// unexpanded; expand it to fill in its remaining dependencies.
func (f *Flow) ExpandUp(id NodeID, consumerType, depKey string) (NodeID, error) {
	n := f.Node(id)
	if n == nil {
		return 0, fmt.Errorf("flow: no node %d", id)
	}
	ct := f.schema.Type(consumerType)
	if ct == nil {
		return 0, fmt.Errorf("flow: unknown entity type %q", consumerType)
	}
	key, kind, err := resolveDepKey(f, consumerType, depKey)
	if err != nil {
		return 0, err
	}
	if !f.schema.Satisfies(n.Type, kind) {
		return 0, fmt.Errorf("flow: node %d type %s does not satisfy dependency %s of %s",
			id, n.Type, depKey, consumerType)
	}
	pid, err := f.Add(consumerType)
	if err != nil {
		return 0, err
	}
	f.nodes[pid].addDep(key, id)
	return pid, nil
}

// resolveDepKey maps a user-facing dependency key ("fd" or a dd key) of
// consumerType to its canonical storage key plus the dependency's type.
func resolveDepKey(f *Flow, consumerType, depKey string) (key, depType string, err error) {
	ct := f.schema.Type(consumerType)
	if depKey == "fd" {
		if ct.FuncDep == nil {
			return "", "", fmt.Errorf("flow: %s has no functional dependency", consumerType)
		}
		return "fd", ct.FuncDep.Type, nil
	}
	d, ok := ct.DepByKey(depKey)
	if !ok || (ct.FuncDep != nil && depKey == ct.FuncDep.Key()) {
		return "", "", fmt.Errorf("flow: %s has no data dependency %q", consumerType, depKey)
	}
	return d.Key(), d.Type, nil
}

// UpChoice is one way a node can be used by a consumer, offered by
// ExpandUp.
type UpChoice struct {
	Consumer string
	DepKey   string // "fd" when the node would serve as the tool
}

// UpChoices lists every (consumer type, dependency) under which the node
// can be used, derived from the schema's consumer relation.
func (f *Flow) UpChoices(id NodeID) ([]UpChoice, error) {
	n := f.Node(id)
	if n == nil {
		return nil, fmt.Errorf("flow: no node %d", id)
	}
	var out []UpChoice
	for _, u := range f.schema.Consumers(n.Type) {
		key := u.Dep.Key()
		ct := f.schema.Type(u.Consumer)
		if ct.FuncDep != nil && key == ct.FuncDep.Key() {
			key = "fd"
		}
		out = append(out, UpChoice{Consumer: u.Consumer, DepKey: key})
	}
	return out, nil
}

// Connect fills dependency depKey of parent with an existing node — the
// reuse of one entity by several subtasks (Fig. 5). The child's type must
// satisfy the dependency and the edge must not create a cycle.
func (f *Flow) Connect(parent NodeID, depKey string, child NodeID) error {
	p := f.Node(parent)
	if p == nil {
		return fmt.Errorf("flow: no node %d", parent)
	}
	c := f.Node(child)
	if c == nil {
		return fmt.Errorf("flow: no node %d", child)
	}
	key, depType, err := resolveDepKey(f, p.Type, depKey)
	if err != nil {
		return err
	}
	if p.hasDep(key) {
		return fmt.Errorf("flow: dependency %q of node %d already filled", depKey, parent)
	}
	if !f.schema.Satisfies(c.Type, depType) {
		return fmt.Errorf("flow: node %d type %s does not satisfy dependency %s of %s",
			child, c.Type, depKey, p.Type)
	}
	if f.reaches(child, parent) {
		return fmt.Errorf("flow: connecting node %d under node %d would create a cycle", child, parent)
	}
	p.addDep(key, child)
	return nil
}

// Unexpand removes the expansion of a node: its dependency edges are
// deleted and any child subgraph no longer referenced elsewhere is
// removed from the flow (the task window's Unexpand operation, Fig. 9).
func (f *Flow) Unexpand(id NodeID) error {
	n := f.Node(id)
	if n == nil {
		return fmt.Errorf("flow: no node %d", id)
	}
	n.depKeys, n.depIDs = nil, nil
	f.gc()
	return nil
}

// gc removes, transitively, expansion children that have lost every
// parent. Designer-placed nodes (Add, ExpandUp parents) and bound nodes
// survive even when detached.
func (f *Flow) gc() {
	for {
		removed := false
		for _, id := range append([]NodeID(nil), f.order...) {
			n := f.nodes[id]
			if n == nil {
				continue
			}
			if !n.original && !n.IsBound() && len(f.Parents(id)) == 0 {
				f.remove(id)
				removed = true
			}
		}
		if !removed {
			return
		}
	}
}

// remove deletes a node from the flow.
func (f *Flow) remove(id NodeID) {
	f.nodes[id] = nil
	for i, x := range f.order {
		if x == id {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
}

// Bind selects one or more history instances for a node (the browser's
// Select, Fig. 9). Binding multiple instances causes the dependent task
// to be run once per instance (§4.1). When the flow has a resolver, each
// instance's type is checked against the node's type. Binding replaces
// any previous binding. A bound node's subtree, if any, is ignored during
// execution — the instance stands in for the construction.
func (f *Flow) Bind(id NodeID, instances ...history.ID) error {
	n := f.Node(id)
	if n == nil {
		return fmt.Errorf("flow: no node %d", id)
	}
	if len(instances) == 0 {
		return fmt.Errorf("flow: Bind needs at least one instance (use Unbind to clear)")
	}
	if f.resolve != nil {
		for _, inst := range instances {
			tn, ok := f.resolve.TypeOf(inst)
			if !ok {
				return fmt.Errorf("flow: instance %s does not exist", inst)
			}
			if !f.schema.Satisfies(tn, n.Type) {
				return fmt.Errorf("flow: instance %s has type %s, which does not satisfy node type %s",
					inst, tn, n.Type)
			}
		}
	}
	n.bound = append([]history.ID(nil), instances...)
	return nil
}

// Unbind clears a node's bindings.
func (f *Flow) Unbind(id NodeID) error {
	n := f.Node(id)
	if n == nil {
		return fmt.Errorf("flow: no node %d", id)
	}
	n.bound = nil
	return nil
}
