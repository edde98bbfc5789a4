package harness

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"repro/internal/datastore"
	"repro/internal/encap"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/flow"
	"repro/internal/flowgen"
	"repro/internal/history"
	"repro/internal/scenario"
	"repro/internal/schema"
)

// frozenTime is the deterministic history clock of every scenario
// world: two worlds built from the same scenario produce byte-
// comparable history dumps, which is what lets the harness require the
// final state — not just the trace — to be identical across worker
// counts.
var frozenTime = time.Date(1993, 6, 14, 12, 0, 0, 0, time.UTC)

// world is one materialized scenario: schema, history database,
// datastore, registry (fault-instrumented when the scenario has a
// plan), engine and the constructed flow with its node names. Every
// sweep configuration gets a fresh world, so nothing leaks between
// runs except what a scenario deliberately shares (the datastore and
// result cache of a warm rerun).
type world struct {
	sc      *scenario.Scenario
	schema  *schema.Schema
	db      *history.DB
	store   *datastore.Store
	reg     *encap.Registry
	engine  *exec.Engine
	flow    *flow.Flow
	nodes   map[string]flow.NodeID
	names   map[flow.NodeID]string
	imports map[string]history.ID
	// edits are the scenario's "edit" ops, collected during flow
	// construction and applied after the base run (checkStale).
	edits []scenario.Op
	// target is the sub-flow root when run.target is set, 0 otherwise.
	target flow.NodeID
}

// buildWorld materializes a scenario against a fresh in-memory world.
// store may be supplied to share a content-addressed datastore (and
// with it a result cache's blobs) between worlds; nil builds a fresh
// one. Every error names the scenario and the offending element.
func buildWorld(sc *scenario.Scenario, store *datastore.Store) (*world, error) {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("scenario %s: %s", sc.Name, fmt.Sprintf(format, args...))
	}
	w := &world{
		sc:      sc,
		store:   store,
		nodes:   make(map[string]flow.NodeID),
		names:   make(map[flow.NodeID]string),
		imports: make(map[string]history.ID),
	}
	if w.store == nil {
		w.store = datastore.NewStore()
	}

	// Schema and registry — a generated world's history and flow too:
	// flowgen owns them, and validation guarantees the declarative
	// sections are absent. Its tool imports were recorded serially under
	// flowgen's ticking clock (deterministic); its run-time commits run
	// on the frozen clock below, as every world's do.
	switch g := sc.Generate; {
	case g != nil:
		graph, err := flowgen.Generate(flowgen.Spec{
			Cells: g.Cells, Shape: flowgen.Shape(g.Shape), Seed: g.Seed,
			FanIn: g.FanIn, Payload: g.Payload, Levels: g.Levels,
		})
		if err != nil {
			return nil, fail("generate: %v", err)
		}
		b, err := graph.BuildFlowIn(w.store)
		if err != nil {
			return nil, fail("generate: %v", err)
		}
		w.schema, w.db, w.reg, w.flow = b.Schema, b.DB, b.Reg, b.Flow
		w.flow.Name = sc.Name
		for i, id := range b.CellNodes {
			w.name(id, fmt.Sprintf("cell%d", i))
		}
	case sc.Base == "standard":
		w.schema = schema.Full()
		w.reg = encap.StandardRegistry()
	default:
		s, err := schema.ParseString(sc.SchemaText())
		if err != nil {
			return nil, fail("%v", err)
		}
		w.schema = s
		w.reg = encap.NewRegistry()
		for i, t := range sc.Tools {
			et := w.schema.Type(t.Type)
			if et == nil {
				return nil, fail("tools[%d]: schema has no type %q", i, t.Type)
			}
			if et.Kind != schema.KindTool {
				return nil, fail("tools[%d]: %s is not a tool type", i, t.Type)
			}
			for _, out := range t.Outputs {
				if !w.schema.Has(out) {
					return nil, fail("tools[%d] (%s): unknown output type %q", i, t.Type, out)
				}
			}
			w.reg.Register(t.Type, genericEncap(t))
		}
	}

	// Fault plan, validated against the schema before instrumenting.
	if fp := sc.Faults; fp != nil {
		base := faults.Config{}
		if fp.Base != nil {
			base = faultConfig(*fp.Base)
		}
		inj := faults.New(fp.Seed, base)
		for _, tool := range sortedKeys(fp.ByTool) {
			et := w.schema.Type(tool)
			if et == nil {
				return nil, fail("faults.byTool: schema has no tool type %q", tool)
			}
			if et.Kind != schema.KindTool {
				return nil, fail("faults.byTool: %s is not a tool type", tool)
			}
			inj.SetToolConfig(tool, faultConfig(fp.ByTool[tool]))
		}
		for _, goal := range sortedKeys(fp.ByGoal) {
			if !w.schema.Has(goal) {
				return nil, fail("faults.byGoal: schema has no type %q", goal)
			}
			inj.SetGoalConfig(goal, faultConfig(fp.ByGoal[goal]))
		}
		inj.Instrument(w.reg)
	}

	// History and engine over the frozen clock.
	if w.db == nil {
		w.db = history.NewDB(w.schema)
	}
	w.db.SetClock(func() time.Time { return frozenTime })
	w.engine = exec.New(w.schema, w.db, w.store, w.reg)

	// Imports and flow construction (a generated world has its own).
	for i, im := range sc.Imports {
		if !w.schema.Has(im.Type) {
			return nil, fail("imports[%d] (%s): schema has no type %q", i, im.Key, im.Type)
		}
		rec := history.Instance{Type: im.Type, Name: im.Name, User: "harness"}
		if im.Data != "" {
			rec.Data = w.store.Put([]byte(im.Data))
		}
		inst, err := w.db.Record(rec)
		if err != nil {
			return nil, fail("imports[%d] (%s): %v", i, im.Key, err)
		}
		w.imports[im.Key] = inst.ID
	}
	if w.flow == nil {
		if err := w.applyOps(); err != nil {
			return nil, err
		}
	}
	if sc.Run.Target != "" {
		id, err := w.node(sc.Run.Target)
		if err != nil {
			return nil, fail("run.target: %v", err)
		}
		w.target = id
	}
	return w, nil
}

// close releases the world's engine (worker pool).
func (w *world) close() {
	_ = w.engine.Close()
}

// Describe materializes the scenario's flow without running it and
// renders the task graph plus the paper's functional form — what the
// examples print before handing the scenario to Run.
func Describe(sc *scenario.Scenario) (string, error) {
	if err := sc.Validate(); err != nil {
		return "", err
	}
	w, err := buildWorld(sc, nil)
	if err != nil {
		return "", err
	}
	defer w.close()
	return w.flow.Render() + "\n== functional form (paper footnote 2) ==\n" + w.flow.LispForm() + "\n", nil
}

// applyOps interprets the scenario's flow-construction program.
func (w *world) applyOps() error {
	w.flow = flow.New(w.schema, w.db)
	w.flow.Name = w.sc.Name
	for i, op := range w.sc.Flow {
		if err := w.applyOp(op); err != nil {
			return fmt.Errorf("scenario %s: flow[%d] (%s): %w", w.sc.Name, i, op.Op, err)
		}
	}
	return nil
}

func (w *world) applyOp(op scenario.Op) error {
	switch op.Op {
	case "add":
		if _, taken := w.nodes[op.Node]; taken {
			return fmt.Errorf("node name %q already in use", op.Node)
		}
		id, err := w.flow.Add(op.Type)
		if err != nil {
			return err
		}
		w.name(id, op.Node)
		return nil
	case "expand":
		id, err := w.node(op.Node)
		if err != nil {
			return err
		}
		if err := w.flow.ExpandDown(id, op.Optional); err != nil {
			return err
		}
		// Name every child the expansion created (children connected
		// earlier keep their names).
		n := w.flow.Node(id)
		for _, k := range n.DepKeys() {
			cid, _ := n.Dep(k)
			if _, named := w.names[cid]; !named {
				w.name(cid, op.Node+"."+k)
			}
		}
		return nil
	case "specialize":
		id, err := w.node(op.Node)
		if err != nil {
			return err
		}
		return w.flow.Specialize(id, op.Type)
	case "connect":
		pid, err := w.node(op.Parent)
		if err != nil {
			return err
		}
		cid, err := w.node(op.Child)
		if err != nil {
			return err
		}
		return w.flow.Connect(pid, op.Key, cid)
	case "expand-up":
		id, err := w.node(op.Node)
		if err != nil {
			return err
		}
		if _, taken := w.nodes[op.As]; taken {
			return fmt.Errorf("node name %q already in use", op.As)
		}
		pid, err := w.flow.ExpandUp(id, op.Consumer, op.Key)
		if err != nil {
			return err
		}
		w.name(pid, op.As)
		return nil
	case "bind":
		id, err := w.node(op.Node)
		if err != nil {
			return err
		}
		insts := make([]history.ID, len(op.To))
		for i, key := range op.To {
			inst, ok := w.imports[key]
			if !ok {
				// Validate catches this; defense for hand-built scenarios.
				return fmt.Errorf("unknown import key %q", key)
			}
			insts[i] = inst
		}
		return w.flow.Bind(id, insts...)
	case "edit":
		// Edits run between executions (checkStale applies them after
		// the base run), not during flow construction; collect in order.
		w.edits = append(w.edits, op)
		return nil
	case "alias":
		id, err := w.node(op.Node)
		if err != nil {
			return err
		}
		if _, taken := w.nodes[op.As]; taken {
			return fmt.Errorf("alias %q already in use", op.As)
		}
		w.nodes[op.As] = id
		return nil
	default:
		return fmt.Errorf("unknown op %q", op.Op)
	}
}

// name registers a node under a scenario-visible name. The first name
// wins for reverse lookups (error messages, skip sets); aliases only
// add forward entries.
func (w *world) name(id flow.NodeID, name string) {
	w.nodes[name] = id
	if _, ok := w.names[id]; !ok {
		w.names[id] = name
	}
}

// node resolves a scenario node name, with the known names in the
// error — a scenario typo should read like a diagnosis, not a nil
// dereference three layers down.
func (w *world) node(name string) (flow.NodeID, error) {
	id, ok := w.nodes[name]
	if !ok {
		known := make([]string, 0, len(w.nodes))
		for k := range w.nodes {
			known = append(known, k)
		}
		sort.Strings(known)
		return 0, fmt.Errorf("unknown node %q (have: %s)", name, strings.Join(known, ", "))
	}
	return id, nil
}

// nodeName renders a node for reports: its scenario name when it has
// one, the raw ID otherwise.
func (w *world) nodeName(id flow.NodeID) string {
	if n, ok := w.names[id]; ok {
		return n
	}
	return fmt.Sprintf("node#%d", id)
}

// artifactText fetches the blob-backed artifact of an instance.
func (w *world) artifactText(id history.ID) (string, error) {
	in := w.db.Get(id)
	if in == nil {
		return "", fmt.Errorf("no instance %s", id)
	}
	if in.Data == "" {
		return "", nil
	}
	b, ok := w.store.Get(in.Data)
	if !ok {
		return "", fmt.Errorf("artifact of %s missing from datastore", id)
	}
	return string(b), nil
}

// historyDump renders the database deterministically for byte
// comparison across worlds.
func (w *world) historyDump() ([]byte, error) {
	var buf bytes.Buffer
	if err := w.db.DumpJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// genericEncap is the deterministic behaviour registered for a
// scenario tool type. The artifact embeds the produced type, the tool's
// identity and a content hash of every input, so any transitive input
// change changes every downstream artifact — exactly the property the
// memo and staleness machinery key on. Grouped sibling outputs (Fig. 5)
// come from the spec's outputs list.
func genericEncap(spec scenario.ToolSpec) encap.Encapsulation {
	return encap.Func(func(r *encap.Request) (encap.Outputs, error) {
		if spec.SleepMs > 0 {
			t := time.NewTimer(time.Duration(spec.SleepMs) * time.Millisecond)
			select {
			case <-t.C:
			case <-r.Context().Done():
				t.Stop()
				return nil, r.Context().Err()
			}
		}
		if spec.Behavior == "fail" {
			return nil, fmt.Errorf("harness: tool %s is declared failing (behavior \"fail\")", r.ToolType)
		}
		types := append([]string{r.Goal}, spec.Outputs...)
		out := make(encap.Outputs, len(types))
		for _, typ := range types {
			if _, dup := out[typ]; dup {
				continue
			}
			out[typ] = renderArtifact(typ, r)
		}
		return out, nil
	})
}

// renderArtifact produces the deterministic artifact text of a generic
// tool run.
func renderArtifact(typ string, r *encap.Request) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "artifact %s\n", typ)
	tool := strings.SplitN(string(r.Tool), "\n", 2)[0]
	fmt.Fprintf(&b, "by %s[%s]\n", r.ToolType, tool)
	keys := make([]string, 0, len(r.Inputs))
	for k := range r.Inputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "in %s %016x\n", k, contentHash(r.Inputs[k]))
	}
	return b.Bytes()
}

func contentHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// faultConfig converts the scenario's JSON-friendly fault units to the
// injector's.
func faultConfig(c scenario.FaultConfig) faults.Config {
	return faults.Config{
		TransientRate: c.TransientRate,
		TransientRuns: c.TransientRuns,
		PermanentRate: c.PermanentRate,
		LatencyRate:   c.LatencyRate,
		Latency:       time.Duration(c.LatencyMicros) * time.Microsecond,
		HangRate:      c.HangRate,
		HangLimit:     time.Duration(c.HangLimitMs) * time.Millisecond,
	}
}

func sortedKeys(m map[string]scenario.FaultConfig) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
