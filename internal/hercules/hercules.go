// Package hercules is the task-manager façade of the reproduction: the
// modified Hercules Task Management System of §4, part of the Odyssey
// CAD Framework. A Session bundles the task schema, the design-history
// database, the datastore, the encapsulation registry, the execution
// engine and the four catalogs, and exposes the operations of the
// Hercules user interface (Fig. 9): starting flows from any of the four
// catalogs, expanding and binding them in the task window, running tasks
// and sub-flows, browsing instances, chasing history (Fig. 10), querying
// with flows as templates, inspecting version trees and flow traces
// (Fig. 11), and retracing stale designs.
package hercules

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/datastore"
	"repro/internal/encap"
	"repro/internal/exec"
	"repro/internal/flow"
	"repro/internal/history"
	"repro/internal/schema"
)

// Session is one designer's connection to the framework.
type Session struct {
	Schema   *schema.Schema
	DB       *history.DB
	Store    *datastore.Store
	Registry *encap.Registry
	Engine   *exec.Engine
	Flows    *flow.Catalog
	Catalogs *catalog.Catalogs
	// Archives holds RCS-style revision archives; instances whose
	// Archive/Revision meta-data is set share one physical archive, the
	// paper's footnote-5 arrangement.
	Archives *datastore.Archives
	// Options configure every run and retrace of the session: its user
	// (also recorded on imports), the archive checkout, and whatever
	// the designer sets — tracer, result cache, retry and failure
	// policy, timeout, delay, fan-out cap.
	Options exec.RunOptions
	// Named holds well-known instances installed by Bootstrap, keyed by
	// short names ("extractor", "sim", "stim.exhaustive3", ...).
	Named map[string]history.ID
}

// NewSession creates a session over the full example schema with the
// standard tool encapsulations.
func NewSession(user string) *Session {
	return NewSessionStore(user, datastore.NewStore())
}

// NewSessionStore is NewSession over a caller-supplied datastore, so
// many sessions — one per designer — share one content-addressed store
// (re-importing the same artifacts is idempotent: same bytes, same
// refs). This is the multi-tenant arrangement of a flow service: each
// session keeps its own history database, while artifacts and
// result-cache blobs are shared across all of them.
func NewSessionStore(user string, store *datastore.Store) *Session {
	return buildSession(user, schema.Full(), store)
}

// buildSession builds an empty session over a schema and a datastore,
// with the standard encapsulations.
func buildSession(user string, sch *schema.Schema, store *datastore.Store) *Session {
	db := history.NewDB(sch)
	reg := encap.StandardRegistry()
	flows := flow.NewCatalog()
	archives := datastore.NewArchives()
	return &Session{
		Schema: sch, DB: db, Store: store, Registry: reg, Engine: exec.New(sch, db, store, reg),
		Flows: flows, Catalogs: catalog.New(sch, db, flows),
		Archives: archives,
		Options:  exec.RunOptions{User: user, Archives: archives.Checkout},
		Named:    make(map[string]history.ID),
	}
}

// User returns the session's user name.
func (s *Session) User() string { return s.Options.User }

// Import records a primitive instance (installed tool or imported data)
// with an artifact, returning its ID.
func (s *Session) Import(typeName, name, data string) (history.ID, error) {
	rec := history.Instance{Type: typeName, Name: name, User: s.User()}
	if data != "" {
		rec.Data = s.Store.Put([]byte(data))
	}
	inst, err := s.DB.Record(rec)
	if err != nil {
		return "", err
	}
	return inst.ID, nil
}

// Bootstrap installs one instance of every standard tool, a few stimuli
// and option entities, and the stock plan-based flows. It is what a site
// administrator would do once per installation.
func (s *Session) Bootstrap() error {
	install := func(key, typ, name, data string) error {
		id, err := s.Import(typ, name, data)
		if err != nil {
			return fmt.Errorf("hercules: bootstrap %s: %w", key, err)
		}
		s.Named[key] = id
		return nil
	}
	type item struct{ key, typ, name, data string }
	items := []item{
		{"netEd.fulladder", "NetlistEditor", "netlist generator (full adder)", "generate fulladder"},
		{"netEd.ripple4", "NetlistEditor", "netlist generator (ripple-4)", "generate ripple 4"},
		{"netEd.retouch", "NetlistEditor", "netlist retoucher", "retouch rev"},
		{"layEd.fulladder", "LayoutEditor", "layout generator (full adder)", "generate fulladder"},
		{"layEd.retouch", "LayoutEditor", "layout retoucher", "retouch rev"},
		{"dmEd.default", "DeviceModelEditor", "model editor (cmos2u)", "default"},
		{"dmEd.fast", "DeviceModelEditor", "model editor (cmos1u)", "fast"},
		{"extractor", "Extractor", "mextra", ""},
		{"sim", "InstalledSimulator", "hspice", ""},
		{"verifier", "Verifier", "lvs", ""},
		{"plotter", "Plotter", "xplot", ""},
		{"placer", "Placer", "row placer", ""},
		{"compiler", "SimulatorCompiler", "cosmos cc", ""},
		{"opt.random", "RandomOptimizer", "random optimizer", ""},
		{"opt.descent", "DescentOptimizer", "descent optimizer", ""},
		{"opt.anneal", "AnnealOptimizer", "annealing optimizer", ""},
		{"stim.exhaustive3", "Stimuli", "exhaustive 3-input vectors",
			"stimuli exh3\ninterval 10000000\ninputs a b cin\nvector 000\nvector 001\nvector 010\nvector 011\nvector 100\nvector 101\nvector 110\nvector 111\n"},
		{"stim.step", "Stimuli", "step on in",
			"stimuli step\ninterval 10000000\ninputs in\nvector 0\nvector 1\n"},
		{"popts.default", "PlacementOptions", "default placement options", "seed=1 passes=2"},
		{"ogoal.default", "OptimizationGoal", "default speed goal", "target=2000 budget=12 seed=1"},
	}
	for _, it := range items {
		if err := install(it.key, it.typ, it.name, it.data); err != nil {
			return err
		}
	}
	return s.installPlans()
}

// installPlans populates the flow catalog with the stock plans used by
// the plan-based approach.
func (s *Session) installPlans() error {
	// simulate-netlist: Performance <- (Simulator, Circuit(DeviceModels,
	// EditedNetlist), Stimuli), leaves unbound.
	f := flow.New(s.Schema, s.DB)
	perf := f.MustAdd("Performance")
	if err := f.ExpandDown(perf, false); err != nil {
		return err
	}
	cct, _ := f.Node(perf).Dep("Circuit")
	if err := f.ExpandDown(cct, false); err != nil {
		return err
	}
	net, _ := f.Node(cct).Dep("Netlist")
	if err := f.Specialize(net, "EditedNetlist"); err != nil {
		return err
	}
	if err := f.ExpandDown(net, false); err != nil {
		return err
	}
	dm, _ := f.Node(cct).Dep("DeviceModels")
	if err := f.ExpandDown(dm, false); err != nil {
		return err
	}
	if err := s.Flows.Install("simulate-netlist", f); err != nil {
		return err
	}

	// synthesize-layout: PlacedLayout <- (Placer, Netlist, Options).
	f2 := flow.New(s.Schema, s.DB)
	lay := f2.MustAdd("PlacedLayout")
	if err := f2.ExpandDown(lay, false); err != nil {
		return err
	}
	net2, _ := f2.Node(lay).Dep("Netlist")
	if err := f2.Specialize(net2, "EditedNetlist"); err != nil {
		return err
	}
	if err := f2.ExpandDown(net2, false); err != nil {
		return err
	}
	if err := s.Flows.Install("synthesize-layout", f2); err != nil {
		return err
	}

	// verify-views: Verification of an extracted netlist against a
	// reference netlist.
	f3 := flow.New(s.Schema, s.DB)
	ver := f3.MustAdd("Verification")
	if err := f3.ExpandDown(ver, false); err != nil {
		return err
	}
	subj, _ := f3.Node(ver).Dep("Netlist/subject")
	if err := f3.Specialize(subj, "ExtractedNetlist"); err != nil {
		return err
	}
	if err := f3.ExpandDown(subj, false); err != nil {
		return err
	}
	return s.Flows.Install("verify-views", f3)
}

// NewFlow opens an empty flow in the task window.
func (s *Session) NewFlow() *flow.Flow { return flow.New(s.Schema, s.DB) }

// Run executes a whole flow under the session's Options. The returned
// Result carries the run's RunFinished event in Result.Finished (worker
// count, busy and elapsed time, critical path, failed units and
// skipped jobs).
func (s *Session) Run(f *flow.Flow) (*exec.Result, error) {
	return s.Engine.RunFlowOptions(context.Background(), f, &s.Options)
}

// RunNode executes the sub-flow rooted at a node under the session's
// Options.
func (s *Session) RunNode(f *flow.Flow, id flow.NodeID) (*exec.Result, error) {
	return s.Engine.RunNodeOptions(context.Background(), f, id, &s.Options)
}

// Browse lists instances matching a filter — the entity-instance browser
// of Fig. 9.
func (s *Session) Browse(f history.Filter) []*history.Instance { return s.DB.Select(f) }

// Annotate attaches a name and comment to an instance.
func (s *Session) Annotate(id history.ID, name, comment string) error {
	return s.DB.Annotate(id, name, comment)
}

// History renders the derivation history of an instance (the History
// pop-up of Fig. 10).
func (s *Session) History(id history.ID) (string, error) {
	d, err := s.DB.Backchain(id, -1)
	if err != nil {
		return "", err
	}
	return d.Render(s.DB), nil
}

// UseDependencies returns the instances that depend on the given one
// (the Use Dependencies browser option of Fig. 9).
func (s *Session) UseDependencies(id history.ID) ([]history.ID, error) {
	d, err := s.DB.Forwardchain(id, -1)
	if err != nil {
		return nil, err
	}
	var out []history.ID
	for _, n := range d.Nodes {
		if n != id {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Query matches a flow, used as a template, against the design history
// (§4.2).
func (s *Session) Query(f *flow.Flow) ([]history.Match, error) {
	return s.DB.MatchPattern(f.AsPattern())
}

// VersionTree renders the classic version tree of an instance's lineage
// (Fig. 11a).
func (s *Session) VersionTree(id history.ID) (string, error) {
	t, err := s.DB.VersionTree(id)
	if err != nil {
		return "", err
	}
	return t.Render(), nil
}

// FlowTrace renders the flow trace of an instance's lineage — the
// version tree enriched with the tools used (Fig. 11b).
func (s *Session) FlowTrace(id history.ID) (string, error) {
	t, err := s.DB.FlowTrace(id)
	if err != nil {
		return "", err
	}
	return t.Render(), nil
}

// OutOfDate reports whether an instance's derivation used superseded
// data.
func (s *Session) OutOfDate(id history.ID) (bool, error) { return s.DB.OutOfDate(id) }

// Retrace re-runs the stale parts of an instance's derivation under the
// session's Options.
func (s *Session) Retrace(id history.ID) (*exec.RetraceResult, error) {
	return s.Engine.RetraceOptions(context.Background(), id, &s.Options)
}

// ArtifactText returns an instance's artifact as text. Blob-backed
// instances read from the content-addressed store; archive-backed ones
// (Archive/Revision set) check their revision out of the shared archive.
func (s *Session) ArtifactText(id history.ID) (string, error) {
	in := s.DB.Get(id)
	if in == nil {
		return "", fmt.Errorf("hercules: no instance %s", id)
	}
	if in.Data != "" {
		b, ok := s.Store.Get(in.Data)
		if !ok {
			return "", fmt.Errorf("hercules: artifact of %s missing from datastore", id)
		}
		return string(b), nil
	}
	if in.Archive != "" {
		return s.Archives.Checkout(in.Archive, in.Revision)
	}
	return "", nil
}

// CheckinRevision checks text into the named shared archive and records
// an instance whose meta-data points at (archive, revision) — the
// paper's footnote-5 physical sharing: many instances, one archive,
// different version numbers in the meta-data. The caller supplies the
// record's type and derivation (tool, inputs); Archive, Revision, Data
// and User are filled in here.
func (s *Session) CheckinRevision(rec history.Instance, archive, text string) (history.ID, error) {
	rev := s.Archives.Open(archive).Checkin(text)
	rec.User = s.User()
	rec.Archive = archive
	rec.Revision = rev
	rec.Data = ""
	inst, err := s.DB.Record(rec)
	if err != nil {
		return "", err
	}
	return inst.ID, nil
}

// Must returns a bootstrap-installed instance by its short name,
// panicking when absent — examples and benches use it for brevity.
func (s *Session) Must(key string) history.ID {
	id, ok := s.Named[key]
	if !ok {
		keys := make([]string, 0, len(s.Named))
		for k := range s.Named {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		panic(fmt.Sprintf("hercules: no bootstrap instance %q (have: %s)", key, strings.Join(keys, ", ")))
	}
	return id
}
