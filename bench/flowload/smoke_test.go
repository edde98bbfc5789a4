package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the parent re-executes itself as a child.
func TestMain(m *testing.M) {
	if role := os.Getenv(childEnv); role != "" {
		os.Exit(childMain(role, os.Args[1:]))
	}
	os.Exit(m.Run())
}

const specPath = "../../BENCHMARK.json"

func TestBenchmarkJSONMatchesMetricDefinitions(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(e2eDefs) || len(spec.PerLayer) != len(layerDefs) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, the benchmark defines %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(e2eDefs), len(layerDefs))
	}
	maxBound := 0.0
	for i, m := range spec.EndToEnd {
		if d := e2eDefs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, benchmark defines %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
	}
	for i, m := range spec.PerLayer {
		if d := layerDefs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, benchmark defines %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
	if spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must be listed with the largest bound (%v)", maxBound)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
}

// TestSmokeEveryWorkload runs every workload at 1% size through the
// parent, with each repetition and the layer pass in a child process,
// and checks that every metric BENCHMARK.json names is emitted and that
// nothing failed.
func TestSmokeEveryWorkload(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	o := options{workloads: workloadNames, seed: 7, seconds: 0, trace: -1, scale: 0.01, corpus: "testdata/corpus-mix"}
	rep, err := measure(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Inputs) != 22 {
		t.Errorf("report pins %d input files, want the 22 corpus-mix scenarios", len(rep.Inputs))
	}
	for _, wl := range workloadNames {
		r := rep.Workloads[wl]
		if !r.Correct || r.Failed != 0 || r.Metrics["failed_frac"].Value != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", wl, r.Failed, r.Attempted, r.Failures)
		}
		for mode, want := range map[int]int{0: len(spec.EndToEnd), 1: len(spec.PerLayer)} {
			line, err := resultLine(r, mode)
			if err != nil {
				t.Errorf("%s -trace %d: %v", wl, mode, err)
				continue
			}
			var got struct {
				Metrics map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			if len(got.Metrics) != want {
				t.Errorf("%s -trace %d: %d metrics in the result line, want %d", wl, mode, len(got.Metrics), want)
			}
		}
	}
}

// A submission whose outcome differs from its expectation counts as a
// failed operation: a corpus whose only scenario pins the wrong task
// count fails every submission.
func TestWrongExpectationCountsAsFailure(t *testing.T) {
	raw, err := os.ReadFile("testdata/corpus-mix/quickstart.json")
	if err != nil {
		t.Fatal(err)
	}
	wrong := strings.Replace(string(raw), `"tasksRun": 4`, `"tasksRun": 5`, 1)
	if wrong == string(raw) {
		t.Fatal("quickstart.json no longer pins tasksRun 4")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "quickstart.json"), []byte(wrong), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := runRep(repConfig{workload: corpusMix, seed: 1, z: sizesFor(0.01), corpus: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted == 0 || res.Failed != res.Attempted {
		t.Errorf("%d of %d submissions counted as failed, want all", res.Failed, res.Attempted)
	}
	if len(res.Failures) == 0 || !strings.Contains(res.Failures[0], "tasks_run 4, want 5") {
		t.Errorf("failure notes %q do not name the task-count mismatch", res.Failures)
	}
}
