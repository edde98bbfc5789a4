package harness

import (
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite the golden traces of the scenario corpus")

func corpusDir(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("..", "..", "testdata", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestConformance is the differential conformance suite: every scenario
// in the corpus runs under the worker sweep (the harness enforces
// byte-identical masked traces and final histories across all of it),
// compares against its golden, and checks its
// final-state expectations — one table-driven test over the whole
// corpus, run under -race in CI.
func TestConformance(t *testing.T) {
	dir := corpusDir(t)
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 15 {
		t.Fatalf("corpus has %d scenarios, the acceptance floor is 15", len(paths))
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			rep, err := RunFile(path, Options{
				GoldenDir: filepath.Join(dir, "golden"),
				Update:    *update,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.GoldenUpdated {
				t.Logf("golden updated: %s", rep.GoldenPath)
			}
		})
	}
}

// TestCorpusShape pins the corpus-level acceptance properties that no
// single scenario can check: domain spread beyond the paper's examples
// and the presence of the three adversarial contracts (fault plan,
// warm rerun, kill-and-resume).
func TestCorpusShape(t *testing.T) {
	scs, err := scenario.LoadDir(corpusDir(t))
	if err != nil {
		t.Fatal(err)
	}
	domains := map[string]bool{}
	var faulted, warm, killed, cancelled, goldens int
	for _, sc := range scs {
		if i := strings.IndexByte(sc.Name, '-'); i > 0 && sc.Base == "" {
			domains[sc.Name[:i]] = true
		}
		if sc.Faults != nil {
			faulted++
		}
		if sc.Expect.WarmRerun != nil {
			warm++
		}
		if sc.Expect.KillResume {
			killed++
		}
		if sc.Cancel != nil {
			cancelled++
		}
		if sc.WantGolden() {
			goldens++
		}
	}
	if len(scs) < 15 {
		t.Errorf("corpus has %d scenarios, want ≥ 15", len(scs))
	}
	if goldens < 15 {
		t.Errorf("corpus pins %d golden traces, want ≥ 15", goldens)
	}
	for _, d := range []string{"synth", "pcb", "fpga", "docs"} {
		if !domains[d] {
			t.Errorf("corpus is missing the %s methodology domain", d)
		}
	}
	if faulted == 0 || warm == 0 || killed == 0 || cancelled == 0 {
		t.Errorf("corpus must exercise faults (%d), warm reruns (%d), kill-and-resume (%d) and cancel-mid-run (%d)",
			faulted, warm, killed, cancelled)
	}
}
