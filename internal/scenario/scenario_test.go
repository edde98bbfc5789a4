package scenario

import (
	"strings"
	"testing"
)

// validDoc is the smallest scenario that passes Decode.
const validDoc = `{
  "name": "t",
  "schema": ["tool T -- t", "data D -- d", "  fd T"],
  "tools": [{"type": "T"}],
  "imports": [{"key": "tool", "type": "T"}],
  "flow": [
    {"op": "add", "node": "d", "type": "D"},
    {"op": "expand", "node": "d"},
    {"op": "bind", "node": "d.fd", "to": ["tool"]}
  ]
}`

func decodeValid(t *testing.T) *Scenario {
	t.Helper()
	sc, err := Decode([]byte(validDoc))
	if err != nil {
		t.Fatalf("decoding the valid base scenario: %v", err)
	}
	return sc
}

func TestDecodeValid(t *testing.T) {
	sc := decodeValid(t)
	if sc.Name != "t" || len(sc.Flow) != 3 {
		t.Fatalf("decoded scenario = %+v", sc)
	}
	if !sc.WantGolden() {
		t.Fatal("default scenario must want a golden trace")
	}
	if got := sc.SchemaText(); !strings.Contains(got, "tool T -- t\ndata D -- d") {
		t.Fatalf("SchemaText = %q", got)
	}
}

// TestDecodeAcceptsDataflowScheduler: a document that names the one
// scheduler, as scenarios written for the level-barrier sweep do,
// still decodes and validates.
func TestDecodeAcceptsDataflowScheduler(t *testing.T) {
	doc := strings.Replace(validDoc, `"name": "t",`, `"name": "t", "run": {"schedulers": ["dataflow"]},`, 1)
	sc, err := Decode([]byte(doc))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(sc.Run.Schedulers) != 1 || sc.Run.Schedulers[0] != "dataflow" {
		t.Fatalf("run.schedulers = %v", sc.Run.Schedulers)
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	_, err := Decode([]byte(`{"name": "t", "scheme": []}`))
	if err == nil || !strings.Contains(err.Error(), "scheme") {
		t.Fatalf("unknown field must name the field, got: %v", err)
	}
}

func TestDecodeRejectsTrailingData(t *testing.T) {
	_, err := Decode([]byte(validDoc + `{"name": "second"}`))
	if err == nil || !strings.Contains(err.Error(), "trailing data") {
		t.Fatalf("trailing document must be rejected, got: %v", err)
	}
}

func TestDecodeRejectsMalformedJSON(t *testing.T) {
	for _, doc := range []string{"", "{", `{"name"`, "[]", `"x"`, "null"} {
		if _, err := Decode([]byte(doc)); err == nil {
			t.Errorf("Decode(%q) succeeded, want an error", doc)
		}
	}
}

func TestWantGolden(t *testing.T) {
	sc := decodeValid(t)
	if !sc.WantGolden() {
		t.Fatal("default: want golden")
	}
	f := false
	sc.Expect.Golden = &f
	if sc.WantGolden() {
		t.Fatal("explicit false must disable the golden")
	}
	sc.Expect.Golden = nil
	sc.Cancel = &CancelSpec{AfterCommits: 1}
	if sc.WantGolden() {
		t.Fatal("cancel scenarios default to goldenless")
	}
	tr := true
	sc.Expect.Golden = &tr
	if !sc.WantGolden() {
		t.Fatal("explicit true wins over Cancel for WantGolden")
	}
}

// TestValidate walks every validation error path; each case mutates the
// valid base and must fail with a message containing the fragment.
func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Scenario)
		want   string
	}{
		{"missing name", func(s *Scenario) { s.Name = "" }, "missing name"},
		{"unsafe name", func(s *Scenario) { s.Name = "a b" }, "filename-safe slug"},
		{"unknown base", func(s *Scenario) { s.Base = "exotic" }, `unknown base "exotic"`},
		{"standard with schema", func(s *Scenario) { s.Base = "standard"; s.Tools = nil }, "remove the schema field"},
		{"standard with tools", func(s *Scenario) { s.Base = "standard"; s.Schema = nil }, "remove the tools field"},
		{"missing schema", func(s *Scenario) { s.Schema = nil }, "missing schema"},
		{"tool missing type", func(s *Scenario) { s.Tools = []ToolSpec{{}} }, "tools[0]: missing type"},
		{"tool unknown behavior", func(s *Scenario) { s.Tools[0].Behavior = "explode" }, `unknown behavior "explode"`},
		{"tool negative sleep", func(s *Scenario) { s.Tools[0].SleepMs = -1 }, "negative sleepMs"},
		{"import missing key", func(s *Scenario) { s.Imports[0].Key = "" }, "imports[0]: missing key"},
		{"import missing type", func(s *Scenario) { s.Imports[0].Type = "" }, "missing type"},
		{"duplicate import key", func(s *Scenario) {
			s.Imports = append(s.Imports, ImportSpec{Key: "tool", Type: "T"})
		}, `duplicate key "tool"`},
		{"missing flow", func(s *Scenario) { s.Flow = nil }, "missing flow ops"},
		{"unknown op", func(s *Scenario) { s.Flow[0].Op = "discombobulate" }, `unknown op "discombobulate"`},
		{"add incomplete", func(s *Scenario) { s.Flow[0].Type = "" }, "needs node and type"},
		{"expand incomplete", func(s *Scenario) { s.Flow[1].Node = "" }, "needs node"},
		{"specialize incomplete", func(s *Scenario) {
			s.Flow = append(s.Flow, Op{Op: "specialize", Node: "d"})
		}, "needs node and type"},
		{"connect incomplete", func(s *Scenario) {
			s.Flow = append(s.Flow, Op{Op: "connect", Parent: "d"})
		}, "needs parent, key and child"},
		{"expand-up incomplete", func(s *Scenario) {
			s.Flow = append(s.Flow, Op{Op: "expand-up", Node: "d", Consumer: "C"})
		}, "needs node, consumer, key and as"},
		{"bind without node", func(s *Scenario) { s.Flow[2].Node = "" }, "needs node"},
		{"bind without to", func(s *Scenario) { s.Flow[2].To = nil }, "at least one import key"},
		{"bind unknown import", func(s *Scenario) { s.Flow[2].To = []string{"ghost"} },
			`unknown import key "ghost" (have: tool)`},
		{"alias incomplete", func(s *Scenario) {
			s.Flow = append(s.Flow, Op{Op: "alias", Node: "d"})
		}, "needs node and as"},
		{"workers below one", func(s *Scenario) { s.Run.Workers = []int{0} }, "below 1"},
		{"unknown scheduler", func(s *Scenario) { s.Run.Schedulers = []string{"fair"} }, `unknown scheduler "fair"`},
		{"barrier scheduler", func(s *Scenario) { s.Run.Schedulers = []string{"dataflow", "barrier"} },
			"level-barrier mode was removed"},
		{"unknown policy", func(s *Scenario) { s.Run.Policy = "panic" }, `unknown policy "panic"`},
		{"retry zero attempts", func(s *Scenario) { s.Run.Retry = &RetrySpec{} }, "attempts must be"},
		{"negative timeout", func(s *Scenario) { s.Run.TimeoutMs = -1 }, "negative timeoutMs"},
		{"negative maxCombos", func(s *Scenario) { s.Run.MaxCombos = -1 }, "negative timeoutMs/maxCombos"},
		{"fault base rate out of range", func(s *Scenario) {
			s.Faults = &FaultPlan{Base: &FaultConfig{TransientRate: 1.5}}
		}, "faults.base: transientRate 1.5 outside [0, 1]"},
		{"fault byTool rate out of range", func(s *Scenario) {
			s.Faults = &FaultPlan{ByTool: map[string]FaultConfig{"T": {HangRate: -0.5}}}
		}, "faults.byTool[T]"},
		{"fault byGoal negative count", func(s *Scenario) {
			s.Faults = &FaultPlan{ByGoal: map[string]FaultConfig{"D": {TransientRuns: -1}}}
		}, "faults.byGoal[D]: negative duration/count"},
		{"cancel zero commits", func(s *Scenario) {
			f := false
			s.Cancel = &CancelSpec{}
			s.Expect.Golden = &f
			s.Expect.Error = "cancel"
		}, "afterCommits must be"},
		{"cancel with golden", func(s *Scenario) {
			tr := true
			s.Cancel = &CancelSpec{AfterCommits: 1}
			s.Expect.Golden = &tr
			s.Expect.Error = "cancel"
		}, "nondeterministic"},
		{"cancel without expected error", func(s *Scenario) {
			s.Cancel = &CancelSpec{AfterCommits: 1}
		}, "must expect an error"},
		{"warm rerun zero hits", func(s *Scenario) { s.Expect.WarmRerun = &WarmExpect{} }, "hits must be"},
		{"artifact missing node", func(s *Scenario) {
			s.Expect.Artifacts = []ArtifactExpect{{}}
		}, "expect.artifacts[0]: missing node"},
		{"killResume goldenless", func(s *Scenario) {
			f := false
			s.Expect.Golden = &f
			s.Expect.KillResume = true
		}, "needs a deterministic trace"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := decodeValid(t)
			tc.mutate(sc)
			err := sc.Validate()
			if err == nil {
				t.Fatalf("Validate passed, want an error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate error %q does not contain %q", err, tc.want)
			}
			if !strings.HasPrefix(err.Error(), "scenario ") {
				t.Fatalf("Validate error %q does not name the scenario", err)
			}
		})
	}
}

// TestValidateGenerateCaps: a generate stanza at each cap validates;
// one past any cap is refused with the cap named.
func TestValidateGenerateCaps(t *testing.T) {
	cases := []struct {
		name string
		spec GenerateSpec
		want string // "" = valid
	}{
		{"cells at cap", GenerateSpec{Cells: MaxGenerateCells}, ""},
		{"payload at cap", GenerateSpec{Cells: MaxGenerateBytes / MaxGeneratePayload, Payload: MaxGeneratePayload}, ""},
		{"cells over cap", GenerateSpec{Cells: MaxGenerateCells + 1}, "generate.cells 100001 exceeds the cap"},
		{"payload over cap", GenerateSpec{Cells: 1, Payload: MaxGeneratePayload + 1}, "generate.payload 1048577 exceeds the cap"},
		{"product over cap", GenerateSpec{Cells: MaxGenerateBytes/MaxGeneratePayload + 1, Payload: MaxGeneratePayload},
			"cells × payload = 68157440 bytes exceeds the cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			err := (&Scenario{Name: "g", Generate: &spec}).Validate()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("Validate: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("Validate error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

func TestValidateUnnamedPrefix(t *testing.T) {
	sc := &Scenario{}
	err := sc.Validate()
	if err == nil || !strings.Contains(err.Error(), "<unnamed>") {
		t.Fatalf("unnamed scenario error = %v, want the <unnamed> placeholder", err)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load("/nonexistent/scenario.json"); err == nil {
		t.Fatal("Load of a missing file must fail")
	}
	if _, err := LoadDir(t.TempDir()); err == nil || !strings.Contains(err.Error(), "no *.json scenarios") {
		t.Fatalf("LoadDir of an empty dir = %v, want the no-scenarios error", err)
	}
}
