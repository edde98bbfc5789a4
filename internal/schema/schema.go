// Package schema implements the task schema of Sutton, Brockman and
// Director, "Design Management Using Dynamically Defined Flows" (DAC 1993),
// section 3.1.
//
// A task schema is a graph whose nodes are design entity types — both tools
// and data are entities — and whose arcs are dependencies. Each entity type
// has at most one functional dependency (the tool type that produces
// instances of it) and any number of data dependencies (its inputs). Data
// dependencies may be optional; optional dependencies are how cycles in the
// schema are broken (e.g. an Edited Netlist optionally depends on a
// Netlist). Subtyping separates alternative construction methods for the
// same conceptual entity (an Extracted Netlist and an Edited Netlist are
// both Netlists, built in different ways). Composite entities have only
// data dependencies and carry implicit compose/decompose functions.
//
// The schema serves two purposes: it states the construction rules from
// which dynamically defined flows (package flow) are built, and it is the
// data schema for the design-history database (package history).
package schema

import (
	"fmt"
	"sort"
	"strings"
)

// Kind classifies an entity type as tool or data. The paper's central
// uniformity is that both kinds are entities and may appear anywhere in a
// flow; Kind exists so that catalogs can present tool- and data-oriented
// views (§3.4) and so encapsulations know what to execute.
type Kind int

const (
	// KindData marks an entity type whose instances are design data
	// (netlists, layouts, performance reports, ...).
	KindData Kind = iota
	// KindTool marks an entity type whose instances are executable tools
	// (simulators, extractors, editors, ...). Tool instances may themselves
	// be produced by flows (Fig. 2 of the paper).
	KindTool
)

// String returns "data" or "tool".
func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindTool:
		return "tool"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Dep is a single dependency arc in the schema: the entity type named Type
// is required (or optionally used, if Optional) to construct the entity
// that carries the Dep. Role disambiguates multiple dependencies on the
// same type (for example a verifier that takes two Netlists, "golden" and
// "revised").
type Dep struct {
	// Type is the name of the entity type depended upon. It may name an
	// abstract supertype; any concrete subtype satisfies the dependency.
	Type string
	// Role optionally labels the dependency. Empty roles are legal as long
	// as (Type, Role) pairs remain unique within one entity type.
	Role string
	// Optional marks the dependency as not required for construction.
	// Optional data dependencies are the paper's mechanism for breaking
	// schema cycles (Fig. 1: Edited Netlist --dd?--> Netlist).
	Optional bool
}

// Key returns the identity of the dependency inside its owning entity
// type: the (type, role) pair.
func (d Dep) Key() string {
	if d.Role == "" {
		return d.Type
	}
	return d.Type + "/" + d.Role
}

// HasKey reports whether key is the dependency's Key, without building
// the "Type/Role" string.
func (d Dep) HasKey(key string) bool {
	if d.Role == "" {
		return key == d.Type
	}
	return len(key) == len(d.Type)+1+len(d.Role) && key[len(d.Type)] == '/' &&
		strings.HasPrefix(key, d.Type) && strings.HasSuffix(key, d.Role)
}

// String renders the dependency as "Type", "Type/Role" or with a trailing
// "?" when optional.
func (d Dep) String() string {
	s := d.Key()
	if d.Optional {
		s += "?"
	}
	return s
}

// EntityType describes one node of the task schema.
type EntityType struct {
	// Name is the unique name of the type within its schema.
	Name string
	// Kind is data or tool.
	Kind Kind
	// Parent names the supertype, or is empty for a root type. Subtypes
	// represent alternative construction methods (§3.1).
	Parent string
	// Abstract types cannot be instantiated or executed directly; they
	// exist to be specialized into one of their subtypes.
	Abstract bool
	// Composite entities group other entities; they have only data
	// dependencies and implicit compose/decompose functions (§3.1).
	Composite bool
	// FuncDep is the functional dependency: the tool type that produces
	// this entity. An entity has at most one functional dependency; nil
	// means the entity is primitive (leaf) or composite.
	FuncDep *Dep
	// DataDeps are the data dependencies (inputs) of the construction.
	DataDeps []Dep
	// Doc is a human-readable description shown by catalogs.
	Doc string
}

// IsPrimitiveSource reports whether instances of the type can only enter
// the system from outside a flow (no functional dependency and not
// composite): for example an installed tool or imported data.
func (t *EntityType) IsPrimitiveSource() bool {
	return t.FuncDep == nil && !t.Composite
}

// HasTask reports whether the entity type defines a primitive task — that
// is, whether it can be constructed by running its functional-dependency
// tool over its data dependencies.
func (t *EntityType) HasTask() bool { return t.FuncDep != nil }

// RequiredDeps returns the non-optional data dependencies.
func (t *EntityType) RequiredDeps() []Dep {
	var out []Dep
	for _, d := range t.DataDeps {
		if !d.Optional {
			out = append(out, d)
		}
	}
	return out
}

// AllDeps returns the functional dependency (if any) followed by all data
// dependencies, in declaration order.
func (t *EntityType) AllDeps() []Dep {
	var out []Dep
	if t.FuncDep != nil {
		out = append(out, *t.FuncDep)
	}
	out = append(out, t.DataDeps...)
	return out
}

// DepByKey returns the dependency with the given (type[/role]) key and
// whether it exists. The functional dependency participates in the lookup.
func (t *EntityType) DepByKey(key string) (Dep, bool) {
	if t.FuncDep != nil && t.FuncDep.HasKey(key) {
		return *t.FuncDep, true
	}
	for _, d := range t.DataDeps {
		if d.HasKey(key) {
			return d, true
		}
	}
	return Dep{}, false
}

// String renders a one-line summary of the type.
func (t *EntityType) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s", t.Kind, t.Name)
	if t.Parent != "" {
		fmt.Fprintf(&b, " : %s", t.Parent)
	}
	if t.Abstract {
		b.WriteString(" (abstract)")
	}
	if t.Composite {
		b.WriteString(" (composite)")
	}
	if t.FuncDep != nil {
		fmt.Fprintf(&b, " fd=%s", t.FuncDep)
	}
	if len(t.DataDeps) > 0 {
		keys := make([]string, len(t.DataDeps))
		for i, d := range t.DataDeps {
			keys[i] = d.String()
		}
		fmt.Fprintf(&b, " dd=[%s]", strings.Join(keys, ", "))
	}
	return b.String()
}

// Schema is a validated collection of entity types. The zero value is an
// empty schema ready to use.
type Schema struct {
	types map[string]*EntityType
	order []string // insertion order, for deterministic iteration
}

// New returns an empty schema.
func New() *Schema {
	return &Schema{types: make(map[string]*EntityType)}
}

// Add inserts an entity type. It fails if the name is empty or already
// present, but performs no cross-type validation; call Validate once all
// types are added.
func (s *Schema) Add(t *EntityType) error {
	if t == nil {
		return fmt.Errorf("schema: nil entity type")
	}
	if t.Name == "" {
		return fmt.Errorf("schema: entity type with empty name")
	}
	if s.types == nil {
		s.types = make(map[string]*EntityType)
	}
	if _, ok := s.types[t.Name]; ok {
		return fmt.Errorf("schema: duplicate entity type %q", t.Name)
	}
	s.types[t.Name] = t
	s.order = append(s.order, t.Name)
	return nil
}

// MustAdd is Add but panics on error; it is intended for building fixture
// schemas in code.
func (s *Schema) MustAdd(t *EntityType) {
	if err := s.Add(t); err != nil {
		panic(err)
	}
}

// Type returns the entity type with the given name, or nil if absent.
func (s *Schema) Type(name string) *EntityType {
	if s.types == nil {
		return nil
	}
	return s.types[name]
}

// Has reports whether a type with the given name exists.
func (s *Schema) Has(name string) bool { return s.Type(name) != nil }

// Len returns the number of entity types.
func (s *Schema) Len() int { return len(s.order) }

// Names returns all type names in insertion order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Types returns all entity types in insertion order.
func (s *Schema) Types() []*EntityType {
	out := make([]*EntityType, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, s.types[n])
	}
	return out
}

// IsSubtypeOf reports whether type sub is the same as, or a (transitive)
// subtype of, type super. Unknown names are never subtypes.
func (s *Schema) IsSubtypeOf(sub, super string) bool {
	for cur := s.Type(sub); cur != nil; cur = s.Type(cur.Parent) {
		if cur.Name == super {
			return true
		}
		if cur.Parent == "" {
			return false
		}
	}
	return false
}

// Root returns the outermost supertype of the named type (possibly
// itself), or "" if the type is unknown.
func (s *Schema) Root(name string) string {
	cur := s.Type(name)
	if cur == nil {
		return ""
	}
	for cur.Parent != "" {
		next := s.Type(cur.Parent)
		if next == nil {
			return cur.Name
		}
		cur = next
	}
	return cur.Name
}

// Subtypes returns the names of the direct subtypes of the named type, in
// insertion order.
func (s *Schema) Subtypes(name string) []string {
	var out []string
	for _, n := range s.order {
		if s.types[n].Parent == name {
			out = append(out, n)
		}
	}
	return out
}

// ConcreteSubtypes returns the names of all non-abstract types assignable
// to the named type (including itself if concrete), in insertion order.
// These are the legal targets of a specialization operation (§3.2).
func (s *Schema) ConcreteSubtypes(name string) []string {
	var out []string
	for _, n := range s.order {
		if !s.types[n].Abstract && s.IsSubtypeOf(n, name) {
			out = append(out, n)
		}
	}
	return out
}

// Satisfies reports whether an instance of concrete type "have" can fill a
// dependency on type "want": have must be a subtype of want.
func (s *Schema) Satisfies(have, want string) bool {
	return s.IsSubtypeOf(have, want)
}

// Consumers returns, for the named type, every (consumer type, dependency)
// pair in which the consumer depends on the named type or on one of its
// supertypes. This drives upward ("in what can I use this?") expansion of
// flows and the forward-chaining queries of §4.2.
func (s *Schema) Consumers(name string) []Use {
	var out []Use
	for _, n := range s.order {
		t := s.types[n]
		for _, d := range t.AllDeps() {
			if s.IsSubtypeOf(name, d.Type) {
				out = append(out, Use{Consumer: n, Dep: d})
			}
		}
	}
	return out
}

// Use records that Consumer has dependency Dep, whose type is satisfied by
// some type of interest.
type Use struct {
	Consumer string
	Dep      Dep
}

// String renders the use as "Consumer <- dep".
func (u Use) String() string { return u.Consumer + " <- " + u.Dep.String() }

// ToolsProducing returns the names of every tool type that appears as a
// functional dependency of some concrete subtype of the named type — the
// tools that can produce that kind of entity. It drives tool-oriented
// browsing (§3.4).
func (s *Schema) ToolsProducing(name string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, sub := range s.ConcreteSubtypes(name) {
		t := s.types[sub]
		if t.FuncDep == nil {
			continue
		}
		if !seen[t.FuncDep.Type] {
			seen[t.FuncDep.Type] = true
			out = append(out, t.FuncDep.Type)
		}
	}
	return out
}

// ProductsOf returns the names of every entity type whose functional
// dependency is satisfied by the named tool type: everything the tool can
// produce. This is the goal list shown when a designer starts from a tool
// (§3.4).
func (s *Schema) ProductsOf(tool string) []string {
	var out []string
	for _, n := range s.order {
		t := s.types[n]
		if t.FuncDep != nil && s.IsSubtypeOf(tool, t.FuncDep.Type) {
			out = append(out, n)
		}
	}
	return out
}

// Validate checks the whole schema for structural soundness:
//
//   - every Parent and every dependency target names an existing type;
//   - subtype chains are acyclic;
//   - functional dependencies point at tool types;
//   - composite entities have no functional dependency and at least one
//     data dependency;
//   - dependency (type, role) keys are unique within an entity type;
//   - every type is *grounded*: constructible by some finite flow. Loops
//     in the schema are legal (the paper breaks them with optional
//     dependencies or alternative subtypes), but a type whose every
//     construction path is circular can never be instantiated and is
//     rejected;
//   - abstract types have at least one concrete subtype.
//
// It returns all problems found, joined into one error, or nil.
func (s *Schema) Validate() error {
	var errs []string
	for _, n := range s.order {
		t := s.types[n]
		if t.Parent != "" && s.Type(t.Parent) == nil {
			errs = append(errs, fmt.Sprintf("%s: unknown parent %q", n, t.Parent))
		}
		if cyc := s.subtypeCycle(n); cyc != "" {
			errs = append(errs, fmt.Sprintf("%s: subtype cycle through %s", n, cyc))
		}
		if t.Composite {
			if t.FuncDep != nil {
				errs = append(errs, fmt.Sprintf("%s: composite entity has a functional dependency", n))
			}
			if len(t.DataDeps) == 0 {
				errs = append(errs, fmt.Sprintf("%s: composite entity has no components", n))
			}
		}
		if t.FuncDep != nil {
			ft := s.Type(t.FuncDep.Type)
			switch {
			case ft == nil:
				errs = append(errs, fmt.Sprintf("%s: unknown functional dependency %q", n, t.FuncDep.Type))
			case ft.Kind != KindTool:
				errs = append(errs, fmt.Sprintf("%s: functional dependency %q is not a tool", n, t.FuncDep.Type))
			}
			if t.FuncDep.Optional {
				errs = append(errs, fmt.Sprintf("%s: functional dependency cannot be optional", n))
			}
		}
		keys := make(map[string]bool)
		if t.FuncDep != nil {
			keys[t.FuncDep.Key()] = true
		}
		for _, d := range t.DataDeps {
			if s.Type(d.Type) == nil {
				errs = append(errs, fmt.Sprintf("%s: unknown data dependency %q", n, d.Type))
			}
			if keys[d.Key()] {
				errs = append(errs, fmt.Sprintf("%s: duplicate dependency key %q", n, d.Key()))
			}
			keys[d.Key()] = true
		}
		if t.Abstract && len(s.ConcreteSubtypes(n)) == 0 {
			errs = append(errs, fmt.Sprintf("%s: abstract type has no concrete subtype", n))
		}
	}
	for _, n := range s.ungrounded() {
		errs = append(errs, fmt.Sprintf("%s: not grounded (every construction path is circular)", n))
	}
	if len(errs) > 0 {
		sort.Strings(errs)
		return fmt.Errorf("schema invalid:\n  %s", strings.Join(errs, "\n  "))
	}
	return nil
}

// subtypeCycle returns a description of a parent-chain cycle reachable
// from name, or "" if none.
func (s *Schema) subtypeCycle(name string) string {
	seen := make(map[string]bool)
	cur := s.Type(name)
	for cur != nil {
		if seen[cur.Name] {
			return cur.Name
		}
		seen[cur.Name] = true
		if cur.Parent == "" {
			return ""
		}
		cur = s.Type(cur.Parent)
	}
	return ""
}

// ungrounded returns the names of entity types that cannot be constructed
// by any finite flow. A type is grounded when:
//
//   - it is a primitive source (installed tool or imported data); or
//   - it is abstract and at least one concrete subtype is grounded; or
//   - it is composite or has a task, and every *required* dependency names
//     a grounded type (a dependency on a supertype is grounded when the
//     supertype is, per the previous rule).
//
// Optional dependencies never count against groundedness: that is exactly
// the paper's rule that optional data dependencies break schema loops.
// The set of grounded types is the least fixed point of these rules.
func (s *Schema) ungrounded() []string {
	grounded := make(map[string]bool)
	for changed := true; changed; {
		changed = false
		for _, n := range s.order {
			if grounded[n] {
				continue
			}
			t := s.types[n]
			// A grounded subtype grounds its supertype: a dependency on
			// the supertype can be satisfied by that subtype.
			ok := false
			for _, sub := range s.Subtypes(n) {
				if grounded[sub] {
					ok = true
					break
				}
			}
			if !ok && !t.Abstract {
				if t.IsPrimitiveSource() {
					ok = true
				} else {
					ok = true
					deps := t.RequiredDeps()
					if t.FuncDep != nil {
						deps = append(deps, *t.FuncDep)
					}
					for _, d := range deps {
						if !grounded[d.Type] {
							ok = false
							break
						}
					}
				}
			}
			if ok {
				grounded[n] = true
				changed = true
			}
		}
	}
	var out []string
	for _, n := range s.order {
		if !grounded[n] {
			out = append(out, n)
		}
	}
	return out
}

// Clone returns a deep copy of the schema. Mutating the clone (or types
// later added to it) does not affect the original.
func (s *Schema) Clone() *Schema {
	out := New()
	for _, n := range s.order {
		t := *s.types[n]
		if t.FuncDep != nil {
			fd := *t.FuncDep
			t.FuncDep = &fd
		}
		t.DataDeps = append([]Dep(nil), t.DataDeps...)
		out.MustAdd(&t)
	}
	return out
}
