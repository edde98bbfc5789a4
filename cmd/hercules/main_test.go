package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/history"
	"repro/internal/trace"
)

// testCLI returns a bootstrapped interpreter writing into a buffer.
func testCLI(t *testing.T) (*cli, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	c := newCLI(&buf)
	if err := c.session.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	return c, &buf
}

// run executes a script of commands, failing the test on any error.
func run(t *testing.T, c *cli, lines ...string) {
	t.Helper()
	for _, l := range lines {
		if err := c.exec(l); err != nil {
			t.Fatalf("%q: %v", l, err)
		}
	}
}

func TestDemoScriptExecutes(t *testing.T) {
	c, buf := testCLI(t)
	for _, line := range strings.Split(demoScript, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := c.exec(line); err != nil {
			t.Fatalf("demo line %q: %v", line, err)
		}
	}
	out := buf.String()
	for _, want := range []string{"simulate-netlist", "executed 4 task(s)", "Performance:", "performance <- ("} {
		if !strings.Contains(out, want) {
			t.Errorf("demo output missing %q", want)
		}
	}
}

func TestHelpAndSchema(t *testing.T) {
	c, buf := testCLI(t)
	run(t, c, "help", "schema")
	out := buf.String()
	if !strings.Contains(out, "start goal <type>") || !strings.Contains(out, "data ExtractedNetlist : Netlist") {
		t.Errorf("help/schema output wrong:\n%.400s", out)
	}
}

func TestCatalogCommands(t *testing.T) {
	c, buf := testCLI(t)
	run(t, c, "catalog entities", "catalog tools", "catalog flows", "catalog data")
	out := buf.String()
	for _, want := range []string{"Netlist", "(abstract)", "Extractor", "simulate-netlist", "Stimuli:"} {
		if !strings.Contains(out, want) {
			t.Errorf("catalog output missing %q", want)
		}
	}
	if err := c.exec("catalog frob"); err == nil {
		t.Error("bad catalog arg should fail")
	}
	if err := c.exec("catalog"); err == nil {
		t.Error("missing catalog arg should fail")
	}
}

func TestFlowLifecycle(t *testing.T) {
	c, buf := testCLI(t)
	run(t, c,
		"start goal ExtractionStatistics",
		"expand 1",
		"choices 3",
		"specialize 3 EditedLayout",
		"expand 3",
		"bind 2 extractor",
		"bind 4 layEd.fulladder",
		"show",
		"bipartite",
		"run",
	)
	out := buf.String()
	if !strings.Contains(out, "ExtractionStatistics:") {
		t.Errorf("run output missing instance:\n%s", out)
	}
	// "last" now resolves; cat shows the statistics artifact.
	buf.Reset()
	run(t, c, "cat last", "history last", "stale last")
	out = buf.String()
	for _, want := range []string{"extraction statistics", "Extractor:", "out of date: false"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSubflowAndUnexpand(t *testing.T) {
	c, buf := testCLI(t)
	run(t, c,
		"start goal Performance",
		"expand 1",
		"expand 3",
		"specialize 6 EditedNetlist",
		"expand 6",
		"bind 7 netEd.fulladder",
		"run 6", // just the netlist sub-flow
	)
	if !strings.Contains(buf.String(), "executed 1 task(s)") {
		t.Errorf("sub-flow run wrong:\n%s", buf.String())
	}
	run(t, c, "unexpand 3")
	if c.flow.Node(6) != nil {
		t.Error("unexpand should remove the netlist subtree")
	}
}

func TestErrorPaths(t *testing.T) {
	c, _ := testCLI(t)
	cases := []string{
		"frobnicate",
		"show",            // no flow yet
		"expand 1",        // no flow
		"run",             // no flow
		"history",         // missing arg
		"history Nope:99", // unknown instance
		"bind 1 sim",      // no flow
		"cat last",        // nothing run
		"annotate",        // missing args
		"browse frob",     // bad filter
		"browse x=1",      // unknown filter key
		"start plan nope",
		"start frob x",
		"start goal",
	}
	for _, line := range cases {
		if err := c.exec(line); err == nil {
			t.Errorf("%q should fail", line)
		}
	}
	run(t, c, "start goal Performance")
	for _, line := range []string{
		"expand zz", "expand 99", "specialize 1", "specialize 99 X",
		"connect 1 Circuit 99", "bind 99 sim", "bind 1 ghost",
		"expandup 1 Nope fd", "choices 99", "run 99", "unexpand 99",
		"expandopt 1", "lisp run", // lisp with extra arg is fine actually
	} {
		if line == "lisp run" {
			continue
		}
		if err := c.exec(line); err == nil {
			t.Errorf("%q should fail", line)
		}
	}
}

func TestCommentsAndBlanksIgnored(t *testing.T) {
	c, _ := testCLI(t)
	run(t, c, "", "   ", "# a comment", "start goal Performance # trailing")
	if c.flow == nil {
		t.Error("flow not started")
	}
}

func TestExpandUpAndConnectCommands(t *testing.T) {
	c, buf := testCLI(t)
	run(t, c,
		"start data stim.exhaustive3",
		"expandup 1 Performance Stimuli",
		"expand 2",
	)
	if !strings.Contains(buf.String(), "added node 2 (Performance)") {
		t.Errorf("expandup output:\n%s", buf.String())
	}
	// The stimuli node is shared: Performance's Stimuli dep is node 1.
	dep, ok := c.flow.Node(2).Dep("Stimuli")
	if !ok || dep != 1 {
		t.Errorf("Stimuli dep = %v, %v", dep, ok)
	}
}

func TestVersionsTraceRetraceCommands(t *testing.T) {
	c, buf := testCLI(t)
	// Build a netlist and edit it once, then exercise versions/trace.
	run(t, c,
		"start goal EditedNetlist",
		"expand 1",
		"bind 2 netEd.fulladder",
		"run",
	)
	first := c.last
	run(t, c,
		"start goal EditedNetlist",
		"expand 1",
		"expandopt 1 Netlist",
		"bind 2 netEd.retouch",
		"bind 3 "+string(first),
		"run",
	)
	buf.Reset()
	run(t, c, "versions last", "trace last", "annotate last v2 of the adder")
	out := buf.String()
	if !strings.Contains(out, string(first)) || !strings.Contains(out, "[via ") {
		t.Errorf("versions/trace output:\n%s", out)
	}
}

// The -metrics/-trace machinery: a run through an instrumented session
// feeds both the metrics registry (the "metrics" command prints its
// exposition) and any extra trace sink.
func TestMetricsCommandAndTraceSink(t *testing.T) {
	c, buf := testCLI(t)
	var jsonl bytes.Buffer
	c.enableMetrics(trace.NewWriter(&jsonl))
	run(t, c,
		"start goal EditedNetlist",
		"expand 1",
		"bind 2 netEd.fulladder",
		"run",
		"metrics",
	)
	out := buf.String()
	for _, want := range []string{"executed 1 task(s)", "flow_units_committed_total 1", "flow_runs_total 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	for _, want := range []string{`"kind":"PlanBuilt"`, `"kind":"UnitCommitted"`, `"kind":"RunFinished"`} {
		if !strings.Contains(jsonl.String(), want) {
			t.Errorf("trace file missing %q:\n%s", want, jsonl.String())
		}
	}
}

// Without -metrics the command explains itself instead of crashing.
func TestMetricsCommandDisabled(t *testing.T) {
	c, _ := testCLI(t)
	if err := c.exec("metrics"); err == nil || !strings.Contains(err.Error(), "-metrics") {
		t.Errorf("err = %v, want a pointer at the -metrics flag", err)
	}
}

// setFlag sets a command-line flag for the rest of the test.
func setFlag(t *testing.T, name, value string) {
	t.Helper()
	f := flag.Lookup(name)
	old := f.Value.String()
	if err := f.Value.Set(value); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Value.Set(old) })
}

// TestRobustnessFlagsReachEveryCommand: the robustness flags configure
// the session, and every command that runs tools — run, run <node> and
// retrace — runs under them. In the -trace output a transient fault is
// retried (-retries), a plan spreads over two workers (-workers), a
// rerun is served from the cache (-memo), and a hung tool is cut off
// (-timeout) with its dependent skipped rather than the run stopped
// (-policy continue).
func TestRobustnessFlagsReachEveryCommand(t *testing.T) {
	for name, value := range map[string]string{
		"policy": "continue", "retries": "3", "retry-base": "10us",
		"timeout": "100ms", "memo": "-1", "workers": "2",
	} {
		setFlag(t, name, value)
	}
	c, _ := testCLI(t)
	if err := configureEngine(c.session); err != nil {
		t.Fatal(err)
	}
	var jsonl bytes.Buffer
	c.session.Options.Tracer = trace.NewWriter(&jsonl)
	// Every tool site fails once; every layout editor hangs for a minute.
	inj := faults.New(1993, faults.Config{TransientRate: 1, TransientRuns: 1})
	inj.SetToolConfig("LayoutEditor", faults.Config{HangRate: 1, HangLimit: time.Minute})
	inj.Instrument(c.session.Registry)

	// traced runs the commands and counts the kinds of the events they
	// traced; "workers" is the widest plan's worker count.
	traced := func(wantErr bool, lines ...string) map[string]int {
		t.Helper()
		jsonl.Reset()
		for _, l := range lines {
			if err := c.exec(l); (err != nil) != wantErr {
				t.Fatalf("%q: err = %v, want error %v", l, err, wantErr)
			}
		}
		got := map[string]int{}
		for _, line := range bytes.Split(bytes.TrimSpace(jsonl.Bytes()), []byte("\n")) {
			var ev trace.Event
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatalf("trace line %q: %v", line, err)
			}
			got[string(ev.Kind)]++
			if ev.Kind == trace.KindPlanBuilt && ev.Workers > got["workers"] {
				got["workers"] = ev.Workers
			}
		}
		return got
	}
	check := func(cmd string, got map[string]int, want map[string]int) {
		t.Helper()
		for k, n := range want {
			if got[k] != n {
				t.Errorf("%s: %d %s, want %d (trace counts %v)", cmd, got[k], k, n, got)
			}
		}
	}
	simulation := func(netEd string) []string {
		return []string{"start goal Performance", "expand 1", "expand 3", "specialize 6 EditedNetlist",
			"expand 6", "expand 5", "bind 2 sim", "bind 4 stim.exhaustive3", "bind 7 " + netEd, "bind 8 dmEd.default"}
	}

	// run: three new tool sites, each retried once, and the circuit
	// composed without a tool, on two workers.
	run(t, c, simulation("netEd.fulladder")...)
	check("run", traced(false, "run"), map[string]int{"UnitRetried": 3, "UnitCommitted": 4, "workers": 2})
	perf := c.last
	check("run again", traced(false, "run"), map[string]int{"UnitCacheHit": 4, "UnitRetried": 0})

	// run <node>: the circuit of another netlist; the device models
	// are served from the cache and the new netlist is retried.
	run(t, c, simulation("netEd.ripple4")...)
	check("run 3", traced(false, "run 3"), map[string]int{"UnitCacheHit": 1, "UnitRetried": 1, "UnitCommitted": 3, "workers": 2})

	// retrace: a new version of the first netlist makes the first
	// performance stale; the rebuilt simulation is a new tool site.
	net := input(t, c.session.DB, input(t, c.session.DB, perf, "Circuit"), "Netlist")
	run(t, c, "start goal EditedNetlist", "expand 1", "expandopt 1 Netlist",
		"bind 2 netEd.retouch", "bind 3 "+string(net), "run")
	check("retrace", traced(false, "retrace "+string(perf)), map[string]int{"UnitRetried": 1, "UnitCommitted": 2, "workers": 2})

	// A hung layout editor is cut off; the extraction statistics that
	// need its layout are skipped and the run still fails.
	run(t, c, "start goal ExtractionStatistics", "expand 1", "specialize 3 EditedLayout", "expand 3",
		"bind 2 extractor", "bind 4 layEd.fulladder")
	start := time.Now()
	check("run (hung)", traced(true, "run"), map[string]int{"UnitTimedOut": 1, "UnitSkipped": 1})
	check("run 3 (hung)", traced(true, "run 3"), map[string]int{"UnitTimedOut": 1})
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("hung runs took %v: the timeout did not cut them off", d)
	}
}

// input returns the instance an instance consumed under key.
func input(t *testing.T, db *history.DB, id history.ID, key string) history.ID {
	t.Helper()
	for _, in := range db.Get(id).Inputs {
		if in.Key == key {
			return in.Inst
		}
	}
	t.Fatalf("%s has no %s input", id, key)
	return ""
}
