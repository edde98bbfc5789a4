// Package history implements the design-history database of Sutton,
// Brockman and Director (DAC 1993), sections 3.3 and 4.2.
//
// Every design object in the framework is created by executing a flow, and
// each object carries a small amount of meta-data: who created it, when,
// an annotation, and — crucially — its derivation: the tool instance and
// the data instances used to create it. From that per-instance derivation
// record the complete derivation history of a design can be reconstructed,
// which (as the paper argues, following van den Hamer & Treffers) obviates
// a separate version-management subsystem: backward chaining yields an
// instance's derivation history, forward chaining yields its dependents,
// flow traces subsume version trees, and out-of-date detection plus
// retracing fall out of timestamp comparison along derivations.
//
// The task schema (package schema) is the data schema of this database:
// an instance's type must exist in the schema and its recorded derivation
// must be well-typed against the type's functional and data dependencies.
//
// Every database keeps one derivation graph (Graph), fed as each
// instance is recorded, and both chaining directions are walks over it.
// The graph holds no instance, so it stays queryable after the database
// is dropped. Other consumers of the commits, such as the provenance
// hash chain, attach as commit observers (Observe).
package history

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datastore"
	"repro/internal/schema"
)

// ID identifies an instance within one DB. IDs read "TypeName:seq".
type ID string

// MakeID renders the instance ID for a type and sequence number:
// "Type:seq". This is the database's ID scheme in one place — the
// execution engine's planner uses it to pre-assign the IDs a future
// commit sequence will produce (see Seq), and the database calls it once
// per recorded instance, so it builds the ID in a single allocation.
// SeqOf inverts it.
func MakeID(typ string, seq int) ID {
	var num [20]byte
	digits := strconv.AppendInt(num[:0], int64(seq), 10)
	var b strings.Builder
	b.Grow(len(typ) + 1 + len(digits))
	b.WriteString(typ)
	b.WriteByte(':')
	b.Write(digits)
	return ID(b.String())
}

// maxSeqDigits is the longest suffix SeqOf parses: 18 decimal digits
// cannot overflow an int64.
const maxSeqDigits = 18

// SeqOf returns the sequence number of an ID — its decimal suffix after
// the last colon ("Type:123" -> 123, "A:B:9" -> 9) — or 0 when the ID
// has none: no colon, an empty suffix, a non-digit in it, or more
// digits than a sequence number can have. Sequence numbers start at 1,
// so 0 is always a miss. Leading zeros parse ("Cell:07" -> 7); the
// database's lookups confirm the whole ID, so such an ID still misses.
func SeqOf(id ID) int {
	i := strings.LastIndexByte(string(id), ':')
	if i < 0 {
		return 0
	}
	suffix := id[i+1:]
	if len(suffix) == 0 || len(suffix) > maxSeqDigits {
		return 0
	}
	n := 0
	for j := 0; j < len(suffix); j++ {
		c := suffix[j]
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// Input records that the instance identified by Inst filled the
// dependency with key Key (see schema.Dep.Key) during construction.
type Input struct {
	Key  string
	Inst ID
}

// Instance is one design object plus its meta-data. The derivation fields
// (Tool, Inputs) are what make the history database queryable.
type Instance struct {
	ID      ID
	Type    string // concrete entity type name from the schema
	Name    string // user-supplied short name (annotation)
	Comment string // user-supplied description (annotation)
	User    string
	Created time.Time

	// Tool is the tool instance that executed the construction task, or
	// empty for primitive sources (installed tools, imported data) and
	// composite entities.
	Tool ID
	// Inputs are the data instances used, keyed by dependency.
	Inputs []Input

	// Data points at the physical artifact in the datastore. Several
	// instances may share one ref (or one Archive+Revision pair): the
	// paper's footnote-5 physical sharing.
	Data datastore.Ref
	// Archive/Revision optionally place the artifact in an RCS-like
	// archive instead of (or in addition to) a plain blob.
	Archive  string
	Revision int
}

// InputFor returns the instance bound to the dependency key, if any.
func (in *Instance) InputFor(key string) (ID, bool) {
	for _, i := range in.Inputs {
		if i.Key == key {
			return i.Inst, true
		}
	}
	return "", false
}

// InputIDs returns just the instance IDs of all inputs, in order.
func (in *Instance) InputIDs() []ID {
	out := make([]ID, len(in.Inputs))
	for i, x := range in.Inputs {
		out[i] = x.Inst
	}
	return out
}

// String renders "ID (name) by user".
func (in *Instance) String() string {
	s := string(in.ID)
	if in.Name != "" {
		s += " (" + in.Name + ")"
	}
	if in.User != "" {
		s += " by " + in.User
	}
	return s
}

// chunkBits sets the size of the instance table's chunks: 512 slots,
// one 4 KB page of pointers.
const chunkBits = 9

// chunk is one fixed block of the instance table. Its slots are only
// ever written under db.mu and read with atomic loads, so a chunk never
// moves once published.
type chunk [1 << chunkBits]atomic.Pointer[Instance]

// DB is the design-history database. It is safe for concurrent use.
//
// Instances are addressed by their sequence number: the instance with
// ID "Type:s" lives in slot s of a table of fixed-size chunks, and
// every lookup parses s from the ID, bounds-checks it and confirms the
// slot's ID (see look). Entry 0 and the holes ReserveSeq leaves stay
// nil.
//
// Every stored instance is also added to the database's derivation
// graph (Graph), which answers the chaining queries and holds the
// creation order.
//
// Locking: db.mu guards the sequence counter, byType and the clock, and
// serializes the graph's feed. Writers take db.mu exclusively; the
// graph has its own lock, and the instance table is published for
// lock-free reads — the chunk directory is replaced atomically when it
// grows and each slot is an atomic pointer — so point readers (Get,
// TypeOf, Has, ArtifactInfo) and chaining queries never take db.mu. Stored instances are immutable —
// Annotate swaps in an annotated copy rather than mutating the stored
// one — so a pointer loaded from the table is safe to dereference at
// any time.
type DB struct {
	mu     sync.RWMutex
	schema *schema.Schema
	clock  func() time.Time
	seq    int
	chunks atomic.Pointer[[]*chunk] // chunk directory: slot s is in chunk s>>chunkBits
	byType map[string][]ID          // concrete type -> IDs in creation order
	graph  *Graph                   // derivation graph; its IDs are the creation order

	// observers are notified of every commit, in commit order, under
	// db.mu (see CommitObserver).
	observers []CommitObserver
}

// CommitObserver receives every committed instance, in commit order.
// OnCommit is invoked under the database's write lock with the stored
// (immutable) instance, so implementations must be fast, must not
// retain the Inputs slice for mutation, and must not call back into
// the DB. The provenance hash chain (internal/provenance) is the
// canonical observer; the database feeds its own Graph directly.
type CommitObserver interface {
	OnCommit(inst *Instance)
}

// Observe registers an observer. Instances already recorded are
// replayed into it first — in creation order, under the same lock that
// blocks new commits — so the observer's view is complete and gap-free
// no matter when it attaches. Calling the returned function detaches
// the observer; callers that observe for the database's life ignore it.
func (db *DB) Observe(o CommitObserver) (detach func()) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, id := range db.graph.order() {
		o.OnCommit(db.look(id))
	}
	db.observers = append(db.observers, o)
	return func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		db.observers = slices.DeleteFunc(db.observers, func(x CommitObserver) bool { return x == o })
	}
}

// NewDB creates an empty history database over the given schema.
func NewDB(s *schema.Schema) *DB {
	return &DB{
		schema: s,
		clock:  time.Now,
		byType: make(map[string][]ID),
		graph:  NewGraph(),
	}
}

// Graph returns the database's derivation graph. It holds no instance
// and no reference to the database, so it stays queryable after the
// database is dropped.
func (db *DB) Graph() *Graph { return db.graph }

// slot returns the table slot of sequence number seq, or nil when seq
// lies outside the table.
func (db *DB) slot(seq int) *atomic.Pointer[Instance] {
	dir := db.chunks.Load()
	if dir == nil || seq <= 0 {
		return nil
	}
	c := seq >> chunkBits
	if c >= len(*dir) || (*dir)[c] == nil {
		return nil
	}
	return &(*dir)[c][seq&(1<<chunkBits-1)]
}

// look returns the stored instance, or nil. A malformed ID, one whose
// sequence number lies outside the table, and one whose slot holds a
// different ID ("Cell:7" asked of the slot of "GenTool:7", or
// "Cell:07") all miss. Stored instances are immutable, so the caller
// may read fields at any time; callers handing the pointer outside the
// package must copy (see get).
func (db *DB) look(id ID) *Instance {
	sl := db.slot(SeqOf(id))
	if sl == nil {
		return nil
	}
	if in := sl.Load(); in != nil && in.ID == id {
		return in
	}
	return nil
}

// insert stores an instance in the slot of its sequence number, growing
// the table to reach it. The caller holds db.mu and has checked that
// seq is the suffix of in.ID.
func (db *DB) insert(in *Instance, seq int) {
	c := seq >> chunkBits
	var dir []*chunk
	if p := db.chunks.Load(); p != nil {
		dir = *p
	}
	if c >= len(dir) || dir[c] == nil {
		// Copy on write: readers holding the old directory never see
		// it change. A directory grows once per chunk.
		grown := make([]*chunk, max(len(dir), c+1))
		copy(grown, dir)
		grown[c] = new(chunk)
		db.chunks.Store(&grown)
		dir = grown
	}
	dir[c][seq&(1<<chunkBits-1)].Store(in)
}

// index adds a stored instance to its type's list and to the derivation
// graph — the graph's one feed. The caller holds db.mu and the graph's
// write lock, and every instance in.Tool and in.Inputs name is already
// indexed.
func (db *DB) index(in *Instance) {
	db.byType[in.Type] = append(db.byType[in.Type], in.ID)
	db.graph.add(in)
}

// SetClock replaces the timestamp source; tests use it for determinism.
func (db *DB) SetClock(clock func() time.Time) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.clock = clock
}

// Schema returns the schema the database validates against.
func (db *DB) Schema() *schema.Schema { return db.schema }

// Record validates and stores a new instance described by rec, assigning
// its ID and creation time, and returns the stored copy. The caller fills
// Type, Name, Comment, User, Tool, Inputs, Data, Archive and Revision;
// ID and Created are overwritten.
//
// Validation enforces that the database remains a well-typed derivation
// history:
//
//   - Type names a concrete (non-abstract) schema type;
//   - every referenced tool/input instance exists (no dangling
//     derivations);
//   - if the type has a functional dependency, Tool is present and its
//     instance's type satisfies it; if not, Tool must be empty;
//   - every Input key names a dependency of the type and the input
//     instance's type satisfies that dependency;
//   - all required (non-optional) data dependencies are filled — except
//     for primitive sources, which have none.
func (db *DB) Record(rec Instance) (*Instance, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	id, err := db.recordLocked(rec)
	if err != nil {
		return nil, err
	}
	return db.get(id), nil
}

// RecordID is Record without the defensive copy of the stored instance:
// it validates, stores, and returns only the assigned ID. Bulk loaders
// and the engine's commit path use it on graphs where cloning every
// just-written record is measurable overhead.
func (db *DB) RecordID(rec Instance) (ID, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.recordLocked(rec)
}

// recordLocked validates and stores rec under db.mu, returning the
// assigned ID.
func (db *DB) recordLocked(rec Instance) (ID, error) {
	if err := db.checkDerivation(&rec); err != nil {
		return "", err
	}
	db.seq++
	inst := rec // copy
	inst.ID = MakeID(rec.Type, db.seq)
	inst.Created = db.clock()
	inst.Inputs = append([]Input(nil), rec.Inputs...)

	// The table and the graph change under the graph's write lock: a
	// reader that finds the instance in the table and then queries the
	// graph waits for it, and one that finds it in the graph finds it
	// in the table.
	db.graph.mu.Lock()
	db.insert(&inst, db.seq)
	db.index(&inst)
	db.graph.mu.Unlock()
	for _, o := range db.observers {
		o.OnCommit(&inst)
	}
	return inst.ID, nil
}

// checkDerivation checks a record's type, tool and inputs against the
// schema: the typing rules Record documents, which Restore applies to
// every restored record too. Existence checks consult the instance
// table. The caller holds db.mu.
func (db *DB) checkDerivation(rec *Instance) error {
	t := db.schema.Type(rec.Type)
	if t == nil {
		return fmt.Errorf("history: unknown entity type %q", rec.Type)
	}
	if t.Abstract {
		return fmt.Errorf("history: cannot instantiate abstract type %q", rec.Type)
	}

	// Tool / functional dependency.
	switch {
	case t.FuncDep != nil && rec.Tool == "":
		return fmt.Errorf("history: %s requires a tool instance (fd %s)", rec.Type, t.FuncDep.Type)
	case t.FuncDep == nil && rec.Tool != "":
		return fmt.Errorf("history: %s takes no tool (it has no functional dependency)", rec.Type)
	case t.FuncDep != nil:
		ti := db.look(rec.Tool)
		if ti == nil {
			return fmt.Errorf("history: tool instance %s does not exist", rec.Tool)
		}
		if !db.schema.Satisfies(ti.Type, t.FuncDep.Type) {
			return fmt.Errorf("history: tool %s has type %s, which does not satisfy fd %s of %s",
				rec.Tool, ti.Type, t.FuncDep.Type, rec.Type)
		}
	}

	// Inputs / data dependencies. A record has a handful of inputs, so
	// repeats and missing required keys are found by scanning them.
	for i, in := range rec.Inputs {
		d, ok := t.DepByKey(in.Key)
		if !ok || (t.FuncDep != nil && t.FuncDep.HasKey(in.Key)) {
			return fmt.Errorf("history: %s has no data dependency %q", rec.Type, in.Key)
		}
		for _, prev := range rec.Inputs[:i] {
			if prev.Key == in.Key {
				return fmt.Errorf("history: duplicate input for dependency %q", in.Key)
			}
		}
		ii := db.look(in.Inst)
		if ii == nil {
			return fmt.Errorf("history: input instance %s does not exist", in.Inst)
		}
		if !db.schema.Satisfies(ii.Type, d.Type) {
			return fmt.Errorf("history: input %s has type %s, which does not satisfy dd %s of %s",
				in.Inst, ii.Type, d, rec.Type)
		}
	}
required:
	for _, d := range t.DataDeps {
		if d.Optional {
			continue
		}
		for _, in := range rec.Inputs {
			if d.HasKey(in.Key) {
				continue required
			}
		}
		return fmt.Errorf("history: %s is missing required input %q", rec.Type, d.Key())
	}
	return nil
}

// MustRecord is Record but panics on error; for fixtures and examples.
func (db *DB) MustRecord(rec Instance) *Instance {
	inst, err := db.Record(rec)
	if err != nil {
		panic(err)
	}
	return inst
}

// get returns a defensive copy of the stored instance, or nil.
func (db *DB) get(id ID) *Instance {
	in := db.look(id)
	if in == nil {
		return nil
	}
	cp := *in
	cp.Inputs = append([]Input(nil), in.Inputs...)
	return &cp
}

// Get returns a copy of the instance with the given ID, or nil.
func (db *DB) Get(id ID) *Instance {
	return db.get(id)
}

// ArtifactInfo returns the artifact coordinates of an instance — its
// concrete type, blob ref and archive placement — without copying the
// instance's derivation. The execution engine resolves every input of
// every unit through this accessor; Get's defensive copy of the Inputs
// slice is measurable overhead there and none of these fields need it.
func (db *DB) ArtifactInfo(id ID) (typ string, data datastore.Ref, archive string, revision int, ok bool) {
	in := db.look(id)
	if in == nil {
		return "", "", "", 0, false
	}
	return in.Type, in.Data, in.Archive, in.Revision, true
}

// TypeOf returns the concrete entity type of an instance and whether the
// instance exists. It satisfies the flow package's Resolver interface so
// flows can type-check bindings against this database.
func (db *DB) TypeOf(id ID) (string, bool) {
	in := db.look(id)
	if in == nil {
		return "", false
	}
	return in.Type, true
}

// Has reports whether an instance exists.
func (db *DB) Has(id ID) bool {
	return db.look(id) != nil
}

// Seq returns the value of the instance sequence counter: the numeric
// suffix of the most recently recorded instance ID (0 when empty). IDs
// are "Type:seq" with one global counter, so a caller that knows the
// commit order of its future recordings can predict their IDs — the
// execution engine uses this to pre-assign instance IDs at planning
// time and keep them deterministic under out-of-order execution.
func (db *DB) Seq() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.seq
}

// ReserveSeq advances the instance sequence counter by n without
// recording anything, burning the IDs that would have used those
// numbers. The execution engine calls it under graceful degradation
// (exec.ContinueOnError): when a planned construction fails or is
// skipped, its pre-assigned IDs are retired so that every later
// construction still commits under exactly the ID the planner assigned.
// The retired numbers stay empty slots of the instance table, and
// Restore resumes after the largest suffix present.
func (db *DB) ReserveSeq(n int) {
	if n <= 0 {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.seq += n
}

// Len returns the number of instances recorded.
func (db *DB) Len() int {
	return db.graph.Len()
}

// Annotate sets the user-visible name and comment of an instance (the
// annotation facility of §4.1). Stored instances are immutable, so the
// annotated copy replaces the stored one; a concurrent Annotate of the
// same instance retries rather than losing either update.
func (db *DB) Annotate(id ID, name, comment string) error {
	sl := db.slot(SeqOf(id))
	for sl != nil {
		in := sl.Load()
		if in == nil || in.ID != id {
			break
		}
		cp := *in
		cp.Name = name
		cp.Comment = comment
		if sl.CompareAndSwap(in, &cp) {
			return nil
		}
	}
	return fmt.Errorf("history: no instance %s", id)
}

// InstancesOf returns (copies of) all instances whose type satisfies the
// named type — subtype instances included, matching the schema's
// substitutability — in creation order. This is what an entity browser
// lists for a leaf node.
func (db *DB) InstancesOf(typeName string) []*Instance {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []*Instance
	for _, concrete := range db.schema.ConcreteSubtypes(typeName) {
		for _, id := range db.byType[concrete] {
			out = append(out, db.get(id))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Created.Equal(out[j].Created) {
			return out[i].ID < out[j].ID
		}
		return out[i].Created.Before(out[j].Created)
	})
	return out
}

// All returns copies of every instance in creation order.
func (db *DB) All() []*Instance {
	ids := db.graph.order()
	out := make([]*Instance, 0, len(ids))
	for _, id := range ids {
		out = append(out, db.get(id))
	}
	return out
}

// Newest returns the most recently created instance satisfying the named
// type, or nil if none exists.
func (db *DB) Newest(typeName string) *Instance {
	insts := db.InstancesOf(typeName)
	if len(insts) == 0 {
		return nil
	}
	return insts[len(insts)-1]
}

// DirectDependents returns the instances that used id directly, as a tool
// or as an input, in creation order, once per use.
func (db *DB) DirectDependents(id ID) []ID {
	var out []ID
	db.graph.uses(id, func(user ID, _ EdgeKind, _ string) { out = append(out, user) })
	return out
}

// Dump renders the database contents for debugging, one instance per
// line, in creation order.
func (db *DB) Dump() string {
	var b strings.Builder
	for _, in := range db.All() {
		fmt.Fprintf(&b, "%-28s tool=%-20s inputs=%v\n", in.ID, in.Tool, in.InputIDs())
	}
	return b.String()
}
