package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/storage"
	"repro/internal/trace"
)

// tinyDoc is a two-task pipeline over a fresh schema — small enough
// that every error-path test stays sub-millisecond, complete enough to
// run green when left unmutated.
const tinyDoc = `{
  "name": "tiny",
  "schema": [
    "tool T -- the only tool",
    "data Src -- imported source",
    "data Mid -- intermediate",
    "  fd T",
    "  dd Src",
    "data Out -- final output",
    "  fd T",
    "  dd Mid"
  ],
  "tools": [{"type": "T"}],
  "imports": [
    {"key": "src", "type": "Src", "data": "source bytes"},
    {"key": "t", "type": "T", "data": "tool config"}
  ],
  "flow": [
    {"op": "add", "node": "out", "type": "Out"},
    {"op": "expand", "node": "out"},
    {"op": "expand", "node": "out.Mid"},
    {"op": "bind", "node": "out.fd", "to": ["t"]},
    {"op": "bind", "node": "out.Mid.fd", "to": ["t"]},
    {"op": "bind", "node": "out.Mid.Src", "to": ["src"]}
  ],
  "run": {"workers": [1], "schedulers": ["dataflow"]},
  "expect": {"tasksRun": 2}
}`

func tiny(t *testing.T) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.Decode([]byte(tinyDoc))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// runErr runs a scenario that must fail and returns the error text.
func runErr(t *testing.T, sc *scenario.Scenario, opts Options) string {
	t.Helper()
	_, err := Run(sc, opts)
	if err == nil {
		t.Fatal("Run succeeded, want an error")
	}
	return err.Error()
}

func wantIn(t *testing.T, got string, subs ...string) {
	t.Helper()
	for _, sub := range subs {
		if !strings.Contains(got, sub) {
			t.Errorf("error does not contain %q; error:\n%s", sub, got)
		}
	}
}

func TestRunTinyGreen(t *testing.T) {
	rep, err := Run(tiny(t), Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TasksRun != 2 || len(rep.Configs) != 1 || rep.Configs[0] != "w1" {
		t.Fatalf("report = %+v", rep)
	}
	if rep.GoldenPath != "" {
		t.Fatalf("no GoldenDir given, but GoldenPath = %q", rep.GoldenPath)
	}
}

// TestMissingGolden pins the first-contact failure mode: a new scenario
// without a blessed golden must say exactly how to create one.
func TestMissingGolden(t *testing.T) {
	got := runErr(t, tiny(t), Options{GoldenDir: t.TempDir()})
	wantIn(t, got, "scenario tiny: missing golden trace", "-update", "make conformance-update")
}

// TestGoldenMismatch checks the diff rendering: a corrupted golden must
// fail with a unified diff and the re-bless hint.
func TestGoldenMismatch(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(tiny(t), Options{GoldenDir: dir, Update: true}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "tiny.jsonl")
	if err := os.WriteFile(path, []byte("{\"bogus\":1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got := runErr(t, tiny(t), Options{GoldenDir: dir})
	wantIn(t, got, "diverges from golden", "re-bless with -update",
		"--- golden", "+++ got", "-{\"bogus\":1}")
}

// TestGoldenRoundTrip: -update then compare must pass, and the report
// must name the golden it wrote.
func TestGoldenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rep, err := Run(tiny(t), Options{GoldenDir: dir, Update: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.GoldenUpdated || rep.GoldenPath != filepath.Join(dir, "tiny.jsonl") {
		t.Fatalf("update report = %+v", rep)
	}
	rep, err = Run(tiny(t), Options{GoldenDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoldenUpdated {
		t.Fatal("compare run claims it updated the golden")
	}
}

// TestAssertionRendering: a failed expectation must name the scenario,
// the configuration and both values.
func TestAssertionRendering(t *testing.T) {
	sc := tiny(t)
	want := 5
	sc.Expect.TasksRun = &want
	wantIn(t, runErr(t, sc, Options{}), "scenario tiny: w1: TasksRun = 2, want 5")
}

func TestInstanceAssertionRendering(t *testing.T) {
	sc := tiny(t)
	sc.Expect.Instances = map[string]int{"Out": 3}
	wantIn(t, runErr(t, sc, Options{}), "history has 1 instances of Out, want 3")
}

// TestUnknownToolType: a tools entry naming a type the schema lacks
// must fail at world build with the index and the type.
func TestUnknownToolType(t *testing.T) {
	sc := tiny(t)
	sc.Tools[0].Type = "Ghost"
	wantIn(t, runErr(t, sc, Options{}), `scenario tiny: tools[0]: schema has no type "Ghost"`)
}

func TestToolTypeNotATool(t *testing.T) {
	sc := tiny(t)
	sc.Tools = append(sc.Tools, scenario.ToolSpec{Type: "Src"})
	wantIn(t, runErr(t, sc, Options{}), "tools[1]: Src is not a tool type")
}

func TestUnknownToolOutput(t *testing.T) {
	sc := tiny(t)
	sc.Tools[0].Outputs = []string{"Ghost"}
	wantIn(t, runErr(t, sc, Options{}), `tools[0] (T): unknown output type "Ghost"`)
}

func TestUnknownImportType(t *testing.T) {
	sc := tiny(t)
	sc.Imports[0].Type = "Ghost"
	wantIn(t, runErr(t, sc, Options{}), `imports[0] (src): schema has no type "Ghost"`)
}

// TestFaultPlanUnknownTool: a fault plan naming a nonexistent tool type
// must fail before any run.
func TestFaultPlanUnknownTool(t *testing.T) {
	sc := tiny(t)
	sc.Faults = &scenario.FaultPlan{ByTool: map[string]scenario.FaultConfig{"Ghost": {TransientRate: 1}}}
	wantIn(t, runErr(t, sc, Options{}), `faults.byTool: schema has no tool type "Ghost"`)
}

func TestFaultPlanToolIsData(t *testing.T) {
	sc := tiny(t)
	sc.Faults = &scenario.FaultPlan{ByTool: map[string]scenario.FaultConfig{"Src": {TransientRate: 1}}}
	wantIn(t, runErr(t, sc, Options{}), "faults.byTool: Src is not a tool type")
}

func TestFaultPlanUnknownGoal(t *testing.T) {
	sc := tiny(t)
	sc.Faults = &scenario.FaultPlan{ByGoal: map[string]scenario.FaultConfig{"Ghost": {LatencyRate: 1}}}
	wantIn(t, runErr(t, sc, Options{}), `faults.byGoal: schema has no type "Ghost"`)
}

// TestUnknownFlowNode: a flow op referencing an undefined node must
// list the names that do exist.
func TestUnknownFlowNode(t *testing.T) {
	sc := tiny(t)
	sc.Flow[1].Node = "uot"
	wantIn(t, runErr(t, sc, Options{}),
		"scenario tiny: flow[1] (expand)", `unknown node "uot"`, "(have: out)")
}

func TestUnknownTargetNode(t *testing.T) {
	sc := tiny(t)
	sc.Run.Target = "ghost"
	wantIn(t, runErr(t, sc, Options{}), "run.target", `unknown node "ghost"`)
}

func TestDuplicateNodeName(t *testing.T) {
	sc := tiny(t)
	sc.Flow = append(sc.Flow, scenario.Op{Op: "add", Node: "out", Type: "Out"})
	wantIn(t, runErr(t, sc, Options{}), `node name "out" already in use`)
}

func TestDuplicateAlias(t *testing.T) {
	sc := tiny(t)
	sc.Flow = append(sc.Flow, scenario.Op{Op: "alias", Node: "out.Mid", As: "out"})
	wantIn(t, runErr(t, sc, Options{}), `alias "out" already in use`)
}

// TestUnexpectedRunError / TestMissingExpectedError pin the error-
// expectation rendering both ways around.
func TestUnexpectedRunError(t *testing.T) {
	sc := tiny(t)
	sc.Tools[0].Behavior = "fail"
	delete(sc.Expect.Instances, "") // keep expectations; the run itself fails first
	wantIn(t, runErr(t, sc, Options{}),
		"scenario tiny: w1: unexpected run error", "declared failing")
}

func TestMissingExpectedError(t *testing.T) {
	sc := tiny(t)
	sc.Expect.Error = "out of cheese"
	wantIn(t, runErr(t, sc, Options{}),
		`run succeeded, want an error containing "out of cheese"`)
}

func TestWrongExpectedError(t *testing.T) {
	sc := tiny(t)
	sc.Tools[0].Behavior = "fail"
	sc.Run.Policy = "continue"
	sc.Expect.Error = "out of cheese"
	tr := 0
	sc.Expect.TasksRun = &tr
	wantIn(t, runErr(t, sc, Options{}), `does not contain "out of cheese"`)
}

// TestArtifactAssertions: unknown node, then a substring miss that must
// print the artifact itself.
func TestArtifactUnknownNode(t *testing.T) {
	sc := tiny(t)
	sc.Expect.Artifacts = []scenario.ArtifactExpect{{Node: "ghost"}}
	wantIn(t, runErr(t, sc, Options{}), "expect.artifacts", `unknown node "ghost"`)
}

func TestArtifactContainsMiss(t *testing.T) {
	sc := tiny(t)
	sc.Expect.Artifacts = []scenario.ArtifactExpect{{Node: "out", Contains: []string{"unobtainium"}}}
	wantIn(t, runErr(t, sc, Options{}),
		`artifact of out does not contain "unobtainium"`, "artifact Out")
}

// TestWarmHitMismatch: a wrong hit count must report got and want.
func TestWarmHitMismatch(t *testing.T) {
	sc := tiny(t)
	sc.Expect.WarmRerun = &scenario.WarmExpect{Hits: 7}
	wantIn(t, runErr(t, sc, Options{}), "warm rerun hit the cache 2 times, want 7")
}

// TestSchemaErrorSurfaces: a broken schema DSL line fails with the
// schema package's own diagnostic, prefixed by the scenario.
func TestSchemaErrorSurfaces(t *testing.T) {
	sc := tiny(t)
	sc.Schema[0] = "widget T -- not a schema keyword"
	got := runErr(t, sc, Options{})
	wantIn(t, got, "scenario tiny:")
	if !strings.Contains(got, "widget") && !strings.Contains(got, "line 1") {
		t.Errorf("schema diagnostic lost: %s", got)
	}
}

// TestRunFileMissing: RunFile on a nonexistent path fails cleanly.
func TestRunFileMissing(t *testing.T) {
	if _, err := RunFile("/nonexistent/sc.json", Options{}); err == nil {
		t.Fatal("RunFile of a missing path must fail")
	}
}

// TestInvalidScenarioRejected: Run re-validates hand-built scenarios.
func TestInvalidScenarioRejected(t *testing.T) {
	sc := tiny(t)
	sc.Name = ""
	wantIn(t, runErr(t, sc, Options{}), "missing name")
}

func TestUnifiedDiff(t *testing.T) {
	a := []byte("one\ntwo\nthree\n")
	b := []byte("one\n2\nthree\n")
	d := unifiedDiff("a", "b", a, b)
	wantIn(t, d, "--- a", "+++ b", "-two", "+2", " one")
	if d := unifiedDiff("a", "b", a, a); d != "" {
		t.Fatalf("diff of identical inputs = %q, want empty", d)
	}
}

// --- coverage of the sweep/assert/world branches the corpus cannot hit ---

// TestDataflowOnlySweep: a run spec naming the one scheduler adds no
// sweep axis; one worker count is one cell.
func TestDataflowOnlySweep(t *testing.T) {
	sc := tiny(t)
	sc.Run.Schedulers = []string{"dataflow"}
	sc.Run.Workers = []int{4}
	rep, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Configs) != 1 || rep.Configs[0] != "w4" {
		t.Fatalf("configs = %v", rep.Configs)
	}
}

// failingTiny declares the tool failing under ContinueOnError with the
// matching error expectation — the base for skip/stats assertions.
func failingTiny(t *testing.T) *scenario.Scenario {
	sc := tiny(t)
	sc.Tools[0].Behavior = "fail"
	sc.Run.Policy = "continue"
	sc.Expect.Error = "declared failing"
	tr := 0
	sc.Expect.TasksRun = &tr
	return sc
}

func TestSkippedMismatch(t *testing.T) {
	sc := failingTiny(t)
	sc.Expect.Skipped = []string{"something-else"}
	wantIn(t, runErr(t, sc, Options{}), "skipped nodes [out], want [something-else]")
}

func TestStatsCounterMismatches(t *testing.T) {
	for name, mutate := range map[string]func(*scenario.Scenario){
		"UnitsFailed": func(s *scenario.Scenario) { v := 9; s.Expect.FailedUnits = &v },
		"Retries":     func(s *scenario.Scenario) { v := 9; s.Expect.Retries = &v },
		"Timeouts":    func(s *scenario.Scenario) { v := 9; s.Expect.Timeouts = &v },
	} {
		t.Run(name, func(t *testing.T) {
			sc := failingTiny(t)
			sc.Expect.Skipped = []string{"out"}
			mutate(sc)
			wantIn(t, runErr(t, sc, Options{}), name+" = ", ", want 9")
		})
	}
}

func TestArtifactOfUnproducedNode(t *testing.T) {
	sc := failingTiny(t)
	sc.Expect.Skipped = []string{"out"}
	sc.Expect.Artifacts = []scenario.ArtifactExpect{{Node: "out", Contains: []string{"x"}}}
	wantIn(t, runErr(t, sc, Options{}), "expect.artifacts (out):")
}

func TestGoldenUnreadable(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "tiny.jsonl"), 0o755); err != nil {
		t.Fatal(err)
	}
	wantIn(t, runErr(t, tiny(t), Options{GoldenDir: dir}), "reading golden")
}

func TestGoldenDirUncreatable(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "plain")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	wantIn(t, runErr(t, tiny(t), Options{GoldenDir: filepath.Join(file, "golden"), Update: true}),
		"creating golden dir")
}

func TestExpandUpAndDataBind(t *testing.T) {
	sc := tiny(t)
	sc.Flow = []scenario.Op{
		{Op: "add", Node: "s", Type: "Src"},
		{Op: "bind", Node: "s", To: []string{"src"}},
		{Op: "expand-up", Node: "s", Consumer: "Mid", Key: "Src", As: "mid"},
		{Op: "expand", Node: "mid"},
		{Op: "bind", Node: "mid.fd", To: []string{"t"}},
	}
	one := 1
	sc.Expect.TasksRun = &one
	if _, err := Run(sc, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestOpErrorsNameTheOp(t *testing.T) {
	cases := []struct {
		name string
		op   scenario.Op
		want string
	}{
		{"specialize", scenario.Op{Op: "specialize", Node: "ghost", Type: "Out"}, `unknown node "ghost"`},
		{"connect parent", scenario.Op{Op: "connect", Parent: "ghost", Key: "Src", Child: "out"}, `unknown node "ghost"`},
		{"connect child", scenario.Op{Op: "connect", Parent: "out", Key: "Src", Child: "ghost"}, `unknown node "ghost"`},
		{"expand-up", scenario.Op{Op: "expand-up", Node: "ghost", Consumer: "Mid", Key: "Src", As: "m"}, `unknown node "ghost"`},
		{"expand-up taken name", scenario.Op{Op: "expand-up", Node: "out.Mid.Src", Consumer: "Mid", Key: "Src", As: "out"}, `node name "out" already in use`},
		{"bind", scenario.Op{Op: "bind", Node: "ghost", To: []string{"t"}}, `unknown node "ghost"`},
		{"alias", scenario.Op{Op: "alias", Node: "ghost", As: "g"}, `unknown node "ghost"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := tiny(t)
			sc.Flow = append(sc.Flow, tc.op)
			wantIn(t, runErr(t, sc, Options{}), tc.want)
		})
	}
}

func TestWorldHelpers(t *testing.T) {
	w, err := buildWorld(tiny(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if got := w.nodeName(9999); got != "node#9999" {
		t.Fatalf("nodeName of an unknown id = %q", got)
	}
	if _, err := w.artifactText("no-such-instance"); err == nil {
		t.Fatal("artifactText of a bogus instance must fail")
	}
	// The unknown-op default branch is unreachable through Run (Validate
	// rejects first); pin it directly.
	if err := w.applyOp(scenario.Op{Op: "bogus"}); err == nil {
		t.Fatal("applyOp must reject an unknown op")
	}
}

func TestArtifactTextOfDataless(t *testing.T) {
	sc := tiny(t)
	sc.Imports = append(sc.Imports, scenario.ImportSpec{Key: "bare", Type: "T"})
	w, err := buildWorld(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	text, err := w.artifactText(w.imports["bare"])
	if err != nil || text != "" {
		t.Fatalf("dataless artifact = %q, %v; want empty, nil", text, err)
	}
}

func TestWalEventListUndecodable(t *testing.T) {
	encode := func(r storage.Record) []byte {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	meta := encode(storage.Record{Meta: &storage.RunMeta{ID: "r-1"}})
	plan := encode(storage.Record{Event: &trace.Event{Seq: 0, Kind: trace.KindPlanBuilt, Job: -1, Combo: -1, Unit: -1},
		Digest: "sha256:plan"})
	end := encode(storage.Record{Event: &trace.Event{Seq: 1, Kind: trace.KindRunFinished, Job: -1, Combo: -1, Unit: -1}})
	logOf := func(recs ...[]byte) storage.Log {
		l := storage.NewMemLog()
		for _, r := range recs {
			if err := l.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		return l
	}
	events, digests, err := walEventList(logOf(meta, plan, end))
	if err != nil || len(events) != 2 || !equalStrings(digests, []string{"sha256:plan"}) {
		t.Fatalf("walEventList(finished log) = %d events, %q, %v", len(events), digests, err)
	}
	for name, recs := range map[string][][]byte{
		"undecodable":               {[]byte("not json")},
		"undecodable after the end": {meta, plan, end, []byte("not json")},
		"record after the end":      {meta, plan, end, plan},
		"unfinished":                {meta, plan},
	} {
		if _, _, err := walEventList(logOf(recs...)); err == nil || !strings.Contains(err.Error(), "not one finished run") {
			t.Errorf("%s: walEventList = %v, want it refused", name, err)
		}
	}
}

func TestEqualStrings(t *testing.T) {
	if equalStrings([]string{"a"}, []string{"a", "b"}) || equalStrings([]string{"a"}, []string{"b"}) {
		t.Fatal("equalStrings false positives")
	}
	if !equalStrings(nil, nil) || !equalStrings([]string{"a"}, []string{"a"}) {
		t.Fatal("equalStrings false negatives")
	}
}

func TestUnifiedDiffEmptySides(t *testing.T) {
	if d := unifiedDiff("a", "b", nil, []byte("x\n")); !strings.Contains(d, "+x") {
		t.Fatalf("diff against empty = %q", d)
	}
	if d := unifiedDiff("a", "b", []byte("x\n"), nil); !strings.Contains(d, "-x") {
		t.Fatalf("diff to empty = %q", d)
	}
}
