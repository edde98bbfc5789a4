// Package scenario defines the declarative workload format of the
// conformance harness (internal/harness): one JSON document that
// declares everything a flow run needs — the task schema (in the
// schema DSL), generic tool encapsulations, primitive instances, the
// flow-construction operations, run options, an optional fault plan
// for the seeded injector (internal/faults), an optional mid-run
// cancellation point, and the expected outcome (golden masked trace,
// final-state assertions, error/skip sets, memo-hit contracts,
// kill-and-resume checks).
//
// The paper's claim is that dynamically defined flows can manage *any*
// design methodology; this package makes methodologies data. A scenario
// is to the engine what a flow is to a tool set: a declarative object
// that can be stored, diffed, queried — and replayed bit-for-bit. The
// corpus under testdata/scenarios/ spans methodology domains well
// beyond the paper's CAD examples (logic synthesis, PCB layout, FPGA
// place-and-route, documentation pipelines) plus adversarial shapes
// (diamond-heavy graphs, fault chaos, cancel-mid-run, warm reruns,
// WAL kill-and-resume).
//
// This package is pure data: decoding and validation only. Building a
// world from a scenario and executing it is internal/harness's job.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Scenario is one declarative workload.
type Scenario struct {
	// Name identifies the scenario; the golden trace lives at
	// golden/<Name>.jsonl next to the scenario file. Must be a
	// filename-safe slug.
	Name string `json:"name"`
	// Doc says what methodology the scenario models and what engine
	// behaviour it pins.
	Doc string `json:"doc,omitempty"`

	// Base selects the execution world: "" (the default) builds a fresh
	// schema from Schema and registers the generic tools of Tools;
	// "standard" uses the paper's full example schema (schema.Full) with
	// the standard encapsulations (encap.StandardRegistry) — the base
	// the hand-coded examples/ ran against.
	Base string `json:"base,omitempty"`
	// Generate, when set, replaces the declarative world entirely: the
	// harness builds a seeded synthetic DAG through internal/flowgen
	// (schema, tools, imports and flow all generated) and runs it
	// through the same differential sweep. Mutually exclusive with
	// Base/Schema/Tools/Imports/Flow — the generator owns the world.
	// Generated scenarios default to golden-free differential mode:
	// no golden file, but masked traces and history dumps must still be
	// byte-identical across every worker count of the sweep.
	Generate *GenerateSpec `json:"generate,omitempty"`
	// Schema is the task schema in the line-oriented schema DSL
	// (internal/schema), one declaration per element. Ignored (and
	// rejected) when Base is "standard".
	Schema []string `json:"schema,omitempty"`
	// Tools declares generic encapsulations for the schema's tool types.
	Tools []ToolSpec `json:"tools,omitempty"`
	// Imports records primitive instances (installed tools, imported
	// data) before the flow runs; flow "bind" ops reference them by key.
	Imports []ImportSpec `json:"imports,omitempty"`
	// Flow is the sequence of flow-construction operations (§3.2/§4.1:
	// add, expand, specialize, connect, expand-up, bind, alias).
	Flow []Op `json:"flow"`
	// Run sets the execution options and the differential sweep.
	Run RunSpec `json:"run,omitempty"`
	// Faults, when set, instruments the registry with the seeded
	// deterministic injector before any run.
	Faults *FaultPlan `json:"faults,omitempty"`
	// Cancel, when set, cancels the run context after the given number
	// of committed units — the cancel-mid-run probe. Cancellation makes
	// the tail of the trace nondeterministic, so a cancelling scenario
	// must set "expect.golden": false.
	Cancel *CancelSpec `json:"cancel,omitempty"`
	// Expect describes the required outcome.
	Expect Expect `json:"expect,omitempty"`
}

// GenerateSpec mirrors flowgen.Spec: a seeded synthetic DAG in one of
// the generator's topology families.
type GenerateSpec struct {
	// Cells is the number of task nodes (the flow has about twice as
	// many: one bound tool node per cell).
	Cells int `json:"cells"`
	// Shape is "layered" (default), "diamond", "fanout" or "chain".
	Shape string `json:"shape,omitempty"`
	// Seed drives every random choice; equal specs generate equal
	// worlds, byte for byte.
	Seed int64 `json:"seed,omitempty"`
	// FanIn caps data inputs per cell (1..4, default 3).
	FanIn int `json:"fanIn,omitempty"`
	// Payload is the artifact size each cell produces (default 256).
	Payload int `json:"payload,omitempty"`
	// Levels is the layer count for the layered shape.
	Levels int `json:"levels,omitempty"`
}

// ToolSpec declares one generic tool encapsulation. The harness
// registers a deterministic behaviour for the tool type: the artifact
// it produces embeds the goal type, the tool's own data, and a content
// hash of every input, so downstream artifacts change whenever any
// transitive input changes (which is what makes memo and staleness
// scenarios meaningful).
type ToolSpec struct {
	// Type is the schema tool type the behaviour is registered under
	// (subtype fallback applies, as with real encapsulations).
	Type string `json:"type"`
	// Behavior selects the generic behaviour: "transform" (default)
	// derives outputs from the inputs; "fail" returns a permanent error
	// on every run (for skip-set scenarios that need a failing tool
	// without a fault plan).
	Behavior string `json:"behavior,omitempty"`
	// Outputs lists secondary output types emitted on every run, in
	// addition to the requested goal — the Fig. 5 multi-output idiom
	// (grouped sibling nodes require their types listed here).
	Outputs []string `json:"outputs,omitempty"`
	// SleepMs delays every run of the tool (context-aware), for
	// cancel-mid-run and occupancy scenarios. Wall-clock time is masked
	// in traces, so sleeps do not perturb goldens.
	SleepMs int `json:"sleepMs,omitempty"`
}

// ImportSpec records one primitive instance before the flow runs.
type ImportSpec struct {
	// Key is the handle flow "bind" ops use.
	Key string `json:"key"`
	// Type is the instance's schema entity type.
	Type string `json:"type"`
	// Name is the browser annotation (optional).
	Name string `json:"name,omitempty"`
	// Data is the instance's artifact text ("" for artifact-less
	// installed tools).
	Data string `json:"data,omitempty"`
}

// Op is one flow-construction operation. Which fields apply depends on
// Op:
//
//	{"op": "add",        "node": "perf", "type": "Performance"}
//	{"op": "expand",     "node": "perf", "optional": true}
//	{"op": "specialize", "node": "perf.Netlist", "type": "EditedNetlist"}
//	{"op": "connect",    "parent": "ver", "key": "Netlist/reference", "child": "net"}
//	{"op": "expand-up",  "node": "net", "consumer": "Verification", "key": "Netlist/subject", "as": "ver"}
//	{"op": "bind",       "node": "perf.fd", "to": ["sim"]}
//	{"op": "alias",      "node": "perf.Circuit.Netlist", "as": "net"}
//	{"op": "edit",       "import": "net", "type": "EditedNetlist", "to": ["netEd"], "data": "# rev2"}
//
// Node naming: "add" and "expand-up" introduce names explicitly;
// "expand" names each created child "<parent>.<depKey>" (the functional
// dependency is "<parent>.fd"); "alias" adds a shorthand.
//
// "edit" is special: it does not construct the flow. After the run
// completes, the harness records a new version of the named import —
// an instance of the edit type (the paper's EditedNetlist idiom: a
// subtype of the import's base type with a data dependency back onto
// it), produced by the editor tool named in To, with Data as its new
// artifact — superseding the import for staleness and retrace checks
// (expect.stale).
type Op struct {
	Op string `json:"op"`
	// Node is the operation's subject (all ops except connect).
	Node string `json:"node,omitempty"`
	// Type is the entity type (add: the node's type; specialize: the
	// concrete subtype).
	Type string `json:"type,omitempty"`
	// Optional includes optional dependencies (expand).
	Optional bool `json:"optional,omitempty"`
	// Parent, Key, Child describe a connect edge; Key doubles as the
	// dependency key of expand-up.
	Parent string `json:"parent,omitempty"`
	Key    string `json:"key,omitempty"`
	Child  string `json:"child,omitempty"`
	// Consumer is the parent type created by expand-up.
	Consumer string `json:"consumer,omitempty"`
	// As names the node created by expand-up, or the alias target.
	As string `json:"as,omitempty"`
	// To lists import keys bound to the node (bind). Binding several
	// fans the dependent task out once per instance (§4.1). For edit,
	// To names exactly one import: the editor tool instance.
	To []string `json:"to,omitempty"`
	// Import names the import an edit op supersedes.
	Import string `json:"import,omitempty"`
	// Data is the edited artifact text (edit).
	Data string `json:"data,omitempty"`
}

// RunSpec sets execution options and the differential sweep. The
// harness runs the scenario once per worker count and requires every
// masked trace (and final history) to be byte-identical.
type RunSpec struct {
	// Workers is the worker-count sweep (default [1, 2, 8]).
	Workers []int `json:"workers,omitempty"`
	// Schedulers is kept so documents written when the level-barrier
	// mode existed still decode: it may only list "dataflow", the one
	// scheduler, and the harness ignores it.
	Schedulers []string `json:"schedulers,omitempty"`
	// Policy is "failfast" (default) or "continue". Scenarios that
	// expect terminal unit failures must use "continue": under failfast
	// the committed prefix depends on scheduling, so the trace cannot be
	// golden.
	Policy string `json:"policy,omitempty"`
	// Retry enables per-unit retry with deterministic jitter.
	Retry *RetrySpec `json:"retry,omitempty"`
	// TimeoutMs bounds each tool-run attempt (0 = unbounded).
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// MaxCombos caps multi-instance fan-out (0 = engine default).
	MaxCombos int `json:"maxCombos,omitempty"`
	// Target runs the sub-flow rooted at the named node instead of the
	// whole flow ("" = every root).
	Target string `json:"target,omitempty"`
}

// RetrySpec mirrors exec.RetryPolicy.
type RetrySpec struct {
	// Attempts is the total attempts per unit, first included.
	Attempts int `json:"attempts"`
	// BaseMicros is the backoff ceiling before the first retry, in
	// microseconds (kept tiny in scenarios: the delay is real time).
	BaseMicros int `json:"baseMicros,omitempty"`
	// Seed drives the deterministic jitter.
	Seed int64 `json:"seed,omitempty"`
}

// FaultPlan configures the seeded deterministic injector
// (internal/faults) over the scenario's registry.
type FaultPlan struct {
	// Seed is the injector seed; the same seed afflicts the same
	// tool-run sites on every run, under any scheduler or worker count.
	Seed int64 `json:"seed"`
	// Base applies to every tool run not covered by an override.
	Base *FaultConfig `json:"base,omitempty"`
	// ByTool overrides per concrete tool type; ByGoal per goal type
	// (ByGoal beats ByTool). Types must exist in the scenario's schema.
	ByTool map[string]FaultConfig `json:"byTool,omitempty"`
	ByGoal map[string]FaultConfig `json:"byGoal,omitempty"`
}

// FaultConfig mirrors faults.Config with JSON-friendly units.
type FaultConfig struct {
	TransientRate float64 `json:"transientRate,omitempty"`
	TransientRuns int     `json:"transientRuns,omitempty"`
	PermanentRate float64 `json:"permanentRate,omitempty"`
	LatencyRate   float64 `json:"latencyRate,omitempty"`
	LatencyMicros int     `json:"latencyMicros,omitempty"`
	HangRate      float64 `json:"hangRate,omitempty"`
	HangLimitMs   int     `json:"hangLimitMs,omitempty"`
}

// CancelSpec cancels the run after N committed units.
type CancelSpec struct {
	// AfterCommits is the number of UnitCommitted events after which the
	// run context is cancelled (must be ≥ 1 and below the unit count, or
	// the cancellation never fires).
	AfterCommits int `json:"afterCommits"`
}

// Expect is the required outcome of every sweep configuration.
type Expect struct {
	// Golden controls the golden-trace comparison (default true): the
	// masked JSONL trace must byte-equal golden/<name>.jsonl. Scenarios
	// with inherently nondeterministic traces (cancel-mid-run, failfast
	// with terminal failures) set it to false; cross-configuration
	// byte-equality is then also skipped.
	Golden *bool `json:"golden,omitempty"`
	// Error, when non-empty, is a substring the run error must contain;
	// empty means the run must succeed.
	Error string `json:"error,omitempty"`
	// TasksRun pins Result.TasksRun (committed tool executions).
	TasksRun *int `json:"tasksRun,omitempty"`
	// Instances pins the final per-type instance counts in the history
	// database (imports included).
	Instances map[string]int `json:"instances,omitempty"`
	// Skipped names the nodes expected in Result.Skipped, in plan order
	// (ContinueOnError degradation).
	Skipped []string `json:"skipped,omitempty"`
	// FailedUnits / Retries / Timeouts pin the run's failed units,
	// retried attempts and timed-out attempts, counted from its events
	// by trace.Metrics.
	FailedUnits *int `json:"failedUnits,omitempty"`
	Retries     *int `json:"retries,omitempty"`
	Timeouts    *int `json:"timeouts,omitempty"`
	// Artifacts asserts on produced artifact contents by node name.
	Artifacts []ArtifactExpect `json:"artifacts,omitempty"`
	// WarmRerun, when set, runs the scenario twice against a shared
	// result cache and datastore: the warm rerun must hit the cache
	// Hits times, record a byte-identical history, and its masked trace
	// minus the UnitCacheHit events must equal the cold trace.
	WarmRerun *WarmExpect `json:"warmRerun,omitempty"`
	// KillResume, when true, runs the scenario durably against a WAL
	// and sweeps kill-and-resume over every record boundary: each
	// resumed run must complete with the full golden stream in the WAL
	// and a history byte-identical to an uninterrupted run's.
	KillResume bool `json:"killResume,omitempty"`
	// Stale, when set, asserts the staleness/retrace contract after the
	// scenario's edit ops are applied: the exact stale cone via
	// history.StaleInputs, then a retrace that rebuilds it.
	Stale *StaleExpect `json:"stale,omitempty"`
	// Differential overrides the cross-configuration byte-equality
	// check (masked traces + history dumps identical across every
	// sweep cell). Default: on whenever a golden is pinned, and on for
	// generated scenarios even without a golden.
	Differential *bool `json:"differential,omitempty"`
}

// StaleExpect is the staleness/retrace contract checked after the edit
// ops run.
type StaleExpect struct {
	// Node is the flow node whose (single) instance anchors the
	// staleness query and the retrace.
	Node string `json:"node"`
	// Stale lists the import keys whose original instances must form
	// the exact stale set of Node's instance (history.StaleInputs),
	// each superseded by its edit op's new version.
	Stale []string `json:"stale"`
	// RetraceTasks, when set, pins how many constructions the retrace
	// rebuilds.
	RetraceTasks *int `json:"retraceTasks,omitempty"`
}

// ArtifactExpect asserts on the artifact produced for a node.
type ArtifactExpect struct {
	// Node names the flow node whose (single) instance is inspected.
	Node string `json:"node"`
	// Contains lists substrings the artifact must include.
	Contains []string `json:"contains,omitempty"`
}

// WarmExpect is the warm-rerun memo contract.
type WarmExpect struct {
	// Hits is the exact number of cache hits of the warm rerun —
	// normally the scenario's full unit count.
	Hits int `json:"hits"`
}

// WantGolden reports whether the scenario pins a golden trace
// (default true; disabled explicitly or, necessarily, by Cancel, and
// off by default for generated scenarios — their traces are
// deterministic but golden files for arbitrary seeds would bloat the
// corpus).
func (s *Scenario) WantGolden() bool {
	if s.Expect.Golden != nil {
		return *s.Expect.Golden
	}
	return s.Cancel == nil && s.Generate == nil
}

// Differential reports whether the harness must enforce byte-identical
// masked traces and history dumps across every sweep cell. It defaults
// to on whenever a golden is pinned (the golden already implies it)
// and on for generated scenarios (the golden-free differential mode);
// Expect.Differential overrides.
func (s *Scenario) Differential() bool {
	if s.Expect.Differential != nil {
		return *s.Expect.Differential
	}
	return s.WantGolden() || (s.Generate != nil && s.Cancel == nil)
}

// SchemaText joins the schema DSL lines into the text schema.Parse
// consumes.
func (s *Scenario) SchemaText() string { return strings.Join(s.Schema, "\n") }

// Decode reads a scenario from JSON, rejecting unknown fields — a
// typo'd field name is a silent no-op otherwise, and silent no-ops in
// a conformance corpus are how contracts rot. The decoded scenario is
// validated.
func Decode(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("scenario: decode: %w", err)
	}
	// Trailing garbage after the document is a malformed file, not a
	// second scenario.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("scenario: trailing data after document")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// Load reads and decodes a scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	sc, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return sc, nil
}

// LoadDir loads every *.json scenario in a directory, sorted by name.
func LoadDir(dir string) ([]*Scenario, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("scenario: no *.json scenarios in %s", dir)
	}
	out := make([]*Scenario, 0, len(paths))
	for _, p := range paths {
		sc, err := Load(p)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

// knownOps is the op vocabulary; Validate rejects anything else.
var knownOps = map[string]bool{
	"add": true, "expand": true, "specialize": true, "connect": true,
	"expand-up": true, "bind": true, "alias": true, "edit": true,
}

// genShapes is the generator topology vocabulary (flowgen's shapes;
// kept local so this package stays pure data with no flowgen import).
var genShapes = map[string]bool{
	"": true, "layered": true, "diamond": true, "fanout": true, "chain": true,
}

// Caps on a generate stanza. A submission body is capped in bytes, but
// a one-line stanza could otherwise ask for any size of world, so
// Validate refuses these before anything is materialized. Each sits
// well above every in-repo use: the benchmark's largest stanza is
// 20,000 cells at the default 256-byte payload.
const (
	// MaxGenerateCells caps generate.cells.
	MaxGenerateCells = 100_000
	// MaxGeneratePayload caps generate.payload, in bytes per artifact.
	MaxGeneratePayload = 1 << 20
	// MaxGenerateBytes caps cells × payload, the artifact bytes a run of
	// the world produces. The default payload stays under it at any
	// allowed cell count.
	MaxGenerateBytes = 64 << 20
)

// Caps on a run's time and retry budget, for the same reason: a
// one-line stanza could otherwise hold a worker for as long as it
// asks, and a time.Duration built from a larger value wraps. Each sits
// well above every in-repo use: 30,000 ms of sleep, a 10,000 ms hang
// limit, a 60 ms timeout, 300 µs of latency, 3 attempts, a 50 µs
// backoff base and 16 combos.
const (
	// MaxMillis caps tools[].sleepMs, run.timeoutMs and a fault plan's
	// hangLimitMs: one minute.
	MaxMillis = 60_000
	// MaxMicros caps run.retry.baseMicros and a fault plan's
	// latencyMicros: one second.
	MaxMicros = 1_000_000
	// MaxAttempts caps run.retry.attempts.
	MaxAttempts = 10
	// MaxCombos caps run.maxCombos at the engine's own bound,
	// exec.DefaultMaxCombos (a test pins the two equal).
	MaxCombos = 100_000
)

// Validate checks everything checkable without a schema or an engine:
// structural completeness, reference hygiene among the scenario's own
// parts, and bounds. Schema-level errors (unknown entity types, type
// mismatches) surface when the harness materializes the world, with
// the schema's own diagnostics.
func (s *Scenario) Validate() error {
	fail := func(format string, args ...any) error {
		name := s.Name
		if name == "" {
			name = "<unnamed>"
		}
		return fmt.Errorf("scenario %s: %s", name, fmt.Sprintf(format, args...))
	}
	if s.Name == "" {
		return fail("missing name")
	}
	if strings.ContainsAny(s.Name, "/\\ \t\n") {
		return fail("name %q is not a filename-safe slug", s.Name)
	}
	switch s.Base {
	case "", "standard":
	default:
		return fail("unknown base %q (want \"\" or \"standard\")", s.Base)
	}
	if g := s.Generate; g != nil {
		if s.Base != "" || len(s.Schema) > 0 || len(s.Tools) > 0 || len(s.Imports) > 0 || len(s.Flow) > 0 {
			return fail("generate owns the world; remove base/schema/tools/imports/flow")
		}
		if g.Cells < 1 {
			return fail("generate.cells must be ≥ 1")
		}
		if !genShapes[g.Shape] {
			return fail("generate.shape: unknown shape %q (want layered, diamond, fanout or chain)", g.Shape)
		}
		if g.FanIn < 0 || g.FanIn > 4 {
			return fail("generate.fanIn %d outside 0..4", g.FanIn)
		}
		if g.Payload < 0 || g.Levels < 0 {
			return fail("generate: negative payload/levels")
		}
		if g.Cells > MaxGenerateCells {
			return fail("generate.cells %d exceeds the cap of %d", g.Cells, MaxGenerateCells)
		}
		if g.Payload > MaxGeneratePayload {
			return fail("generate.payload %d exceeds the cap of %d bytes", g.Payload, MaxGeneratePayload)
		}
		if n := int64(g.Cells) * int64(g.Payload); n > MaxGenerateBytes {
			return fail("generate: cells × payload = %d bytes exceeds the cap of %d", n, MaxGenerateBytes)
		}
		if s.Expect.Stale != nil || len(s.Expect.Artifacts) > 0 || len(s.Expect.Skipped) > 0 {
			return fail("generated worlds have no named nodes; remove expect.stale/artifacts/skipped")
		}
	}
	if s.Generate == nil {
		if s.Base == "standard" {
			if len(s.Schema) > 0 {
				return fail("base \"standard\" supplies the schema; remove the schema field")
			}
			if len(s.Tools) > 0 {
				return fail("base \"standard\" supplies the encapsulations; remove the tools field")
			}
		} else if len(s.Schema) == 0 {
			return fail("missing schema (or set base to \"standard\")")
		}
	}
	for i, t := range s.Tools {
		if t.Type == "" {
			return fail("tools[%d]: missing type", i)
		}
		switch t.Behavior {
		case "", "transform", "fail":
		default:
			return fail("tools[%d] (%s): unknown behavior %q (want transform or fail)", i, t.Type, t.Behavior)
		}
		if t.SleepMs < 0 {
			return fail("tools[%d] (%s): negative sleepMs", i, t.Type)
		}
		if t.SleepMs > MaxMillis {
			return fail("tools[%d] (%s): sleepMs %d exceeds the cap of %d", i, t.Type, t.SleepMs, MaxMillis)
		}
	}
	importKeys := make(map[string]bool, len(s.Imports))
	for i, im := range s.Imports {
		if im.Key == "" {
			return fail("imports[%d]: missing key", i)
		}
		if im.Type == "" {
			return fail("imports[%d] (%s): missing type", i, im.Key)
		}
		if importKeys[im.Key] {
			return fail("imports[%d]: duplicate key %q", i, im.Key)
		}
		importKeys[im.Key] = true
	}
	if len(s.Flow) == 0 && s.Generate == nil {
		return fail("missing flow ops")
	}
	editedImports := make(map[string]bool)
	for i, op := range s.Flow {
		at := func(format string, args ...any) error {
			return fail("flow[%d] (%s): %s", i, op.Op, fmt.Sprintf(format, args...))
		}
		if !knownOps[op.Op] {
			return fail("flow[%d]: unknown op %q", i, op.Op)
		}
		switch op.Op {
		case "add":
			if op.Node == "" || op.Type == "" {
				return at("needs node and type")
			}
		case "expand":
			if op.Node == "" {
				return at("needs node")
			}
		case "specialize":
			if op.Node == "" || op.Type == "" {
				return at("needs node and type")
			}
		case "connect":
			if op.Parent == "" || op.Key == "" || op.Child == "" {
				return at("needs parent, key and child")
			}
		case "expand-up":
			if op.Node == "" || op.Consumer == "" || op.Key == "" || op.As == "" {
				return at("needs node, consumer, key and as")
			}
		case "bind":
			if op.Node == "" {
				return at("needs node")
			}
			if len(op.To) == 0 {
				return at("needs at least one import key in to")
			}
			for _, k := range op.To {
				if !importKeys[k] {
					return at("unknown import key %q (have: %s)", k, keyList(importKeys))
				}
			}
		case "alias":
			if op.Node == "" || op.As == "" {
				return at("needs node and as")
			}
		case "edit":
			if op.Import == "" || op.Type == "" || op.Data == "" {
				return at("needs import, type and data")
			}
			if !importKeys[op.Import] {
				return at("unknown import key %q (have: %s)", op.Import, keyList(importKeys))
			}
			if len(op.To) != 1 {
				return at("needs exactly one editor tool import in to")
			}
			if !importKeys[op.To[0]] {
				return at("unknown import key %q (have: %s)", op.To[0], keyList(importKeys))
			}
			editedImports[op.Import] = true
		}
	}
	for _, w := range s.Run.Workers {
		if w < 1 {
			return fail("run.workers: %d is below 1", w)
		}
	}
	for _, sch := range s.Run.Schedulers {
		switch sch {
		case "dataflow":
		case "barrier":
			return fail("run.schedulers: the level-barrier mode was removed; list only \"dataflow\" or drop the field")
		default:
			return fail("run.schedulers: unknown scheduler %q", sch)
		}
	}
	switch s.Run.Policy {
	case "", "failfast", "continue":
	default:
		return fail("run.policy: unknown policy %q (want failfast or continue)", s.Run.Policy)
	}
	if r := s.Run.Retry; r != nil {
		switch {
		case r.Attempts < 1:
			return fail("run.retry.attempts must be ≥ 1")
		case r.Attempts > MaxAttempts:
			return fail("run.retry.attempts %d exceeds the cap of %d", r.Attempts, MaxAttempts)
		case r.BaseMicros > MaxMicros:
			return fail("run.retry.baseMicros %d exceeds the cap of %d", r.BaseMicros, MaxMicros)
		}
	}
	switch {
	case s.Run.TimeoutMs < 0 || s.Run.MaxCombos < 0:
		return fail("run: negative timeoutMs/maxCombos")
	case s.Run.TimeoutMs > MaxMillis:
		return fail("run.timeoutMs %d exceeds the cap of %d", s.Run.TimeoutMs, MaxMillis)
	case s.Run.MaxCombos > MaxCombos:
		return fail("run.maxCombos %d exceeds the cap of %d", s.Run.MaxCombos, MaxCombos)
	}
	if s.Faults != nil {
		if s.Faults.Base != nil {
			if err := s.Faults.Base.check(); err != nil {
				return fail("faults.base: %v", err)
			}
		}
		for tool, c := range s.Faults.ByTool {
			if err := c.check(); err != nil {
				return fail("faults.byTool[%s]: %v", tool, err)
			}
		}
		for goal, c := range s.Faults.ByGoal {
			if err := c.check(); err != nil {
				return fail("faults.byGoal[%s]: %v", goal, err)
			}
		}
	}
	if s.Cancel != nil {
		if s.Cancel.AfterCommits < 1 {
			return fail("cancel.afterCommits must be ≥ 1")
		}
		if s.WantGolden() {
			return fail("cancel-mid-run traces are nondeterministic; set \"expect\": {\"golden\": false}")
		}
		if s.Expect.Error == "" {
			return fail("cancel scenarios must expect an error (expect.error)")
		}
	}
	if s.Expect.WarmRerun != nil && s.Expect.WarmRerun.Hits < 1 {
		return fail("expect.warmRerun.hits must be ≥ 1")
	}
	for i, a := range s.Expect.Artifacts {
		if a.Node == "" {
			return fail("expect.artifacts[%d]: missing node", i)
		}
	}
	if s.Expect.KillResume && !s.Differential() {
		return fail("expect.killResume needs a deterministic trace (golden or differential must not be disabled)")
	}
	if st := s.Expect.Stale; st != nil {
		if st.Node == "" {
			return fail("expect.stale: missing node")
		}
		if len(st.Stale) == 0 {
			return fail("expect.stale: empty stale set (list the edited import keys)")
		}
		for _, k := range st.Stale {
			if !editedImports[k] {
				return fail("expect.stale: import %q has no edit op (have: %s)", k, keyList(editedImports))
			}
		}
		if st.RetraceTasks != nil && *st.RetraceTasks < 1 {
			return fail("expect.stale.retraceTasks must be ≥ 1")
		}
	}
	return nil
}

func (c FaultConfig) check() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"transientRate", c.TransientRate}, {"permanentRate", c.PermanentRate},
		{"latencyRate", c.LatencyRate}, {"hangRate", c.HangRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("%s %v outside [0, 1]", r.name, r.v)
		}
	}
	switch {
	case c.TransientRuns < 0 || c.LatencyMicros < 0 || c.HangLimitMs < 0:
		return fmt.Errorf("negative duration/count field")
	case c.LatencyMicros > MaxMicros:
		return fmt.Errorf("latencyMicros %d exceeds the cap of %d", c.LatencyMicros, MaxMicros)
	case c.HangLimitMs > MaxMillis:
		return fmt.Errorf("hangLimitMs %d exceeds the cap of %d", c.HangLimitMs, MaxMillis)
	}
	return nil
}

func keyList(set map[string]bool) string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic error text regardless of map order
	if len(keys) == 0 {
		return "none"
	}
	return strings.Join(keys, ", ")
}
