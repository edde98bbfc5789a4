// Command flowbench regenerates every figure of the DAC'93 paper as a
// runnable scenario and prints the measurements EXPERIMENTS.md records.
// The paper's evaluation is qualitative (eleven figures, no tables);
// each section below reproduces one figure's content and, where the
// claim is quantitative in spirit ("parallel branches can be executed in
// parallel", "a compiled simulator is executed on different stimuli"),
// measures it.
//
// Usage:
//
//	flowbench            # all figures
//	flowbench fig6 fig11 # selected figures
//	flowbench -quick     # smoke subset (CI): fig1 fig6 sched chaos trace memo
//	flowbench -out BENCH_provenance.json provenance
//	                     # graph chaining at scale, JSON measurements
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/baseline/staticflow"
	"repro/internal/baseline/trace"
	"repro/internal/cad/cosmos"
	"repro/internal/cad/extract"
	"repro/internal/cad/layout"
	"repro/internal/cad/models"
	"repro/internal/cad/netlist"
	"repro/internal/cad/sim"
	"repro/internal/encap"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/figures"
	"repro/internal/flow"
	"repro/internal/flowgen"
	"repro/internal/hercules"
	"repro/internal/history"
	"repro/internal/memo"
	"repro/internal/provenance"
	"repro/internal/scenario"
	"repro/internal/schema"
	"repro/internal/service"
	"repro/internal/storage"
	runtrace "repro/internal/trace"
)

// sections is the single registry of benchmark sections; everything
// else — name validation, the -quick subset — derives from it, so
// adding a section here is the whole job of adding a section.
var sections = []struct {
	name  string
	desc  string
	quick bool // part of the -quick smoke subset (CI)
	run   func()
}{
	{"fig1", "the example task schema", true, fig1},
	{"fig2", "a tool created during design (compiled simulator)", false, fig2},
	{"fig3", "three representations of one flow", false, fig3},
	{"fig4", "expansions of a flow, with specialization", false, fig4},
	{"fig5", "complex flow: reuse, multiple outputs", false, fig5},
	{"fig6", "parallel execution of disjoint branches", true, fig6},
	{"sched", "dataflow scheduler vs the level-barrier bound", true, schedSection},
	{"fig7", "three views of an inverter cell", false, fig7},
	{"fig8", "view synthesis and verification flows", false, fig8},
	{"fig9", "browser filters over the design history", false, fig9},
	{"fig10", "backward chaining through the history", false, fig10},
	{"fig11", "version tree vs flow trace", false, fig11},
	{"retrace", "consistency maintenance by automatic retracing", false, retraceSection},
	{"chaos", "fault injection: retries, degradation, timeouts", true, chaosSection},
	{"trace", "run tracing: determinism, metrics, overhead", true, traceSection},
	{"memo", "incremental re-execution via the derivation-keyed cache", true, memoSection},
	{"approaches", "the four design approaches", false, approachesSection},
	{"baselines", "dynamic flows vs static flows vs traces", false, baselinesSection},
	{"corpus", "the scenario corpus submitted to a live service over HTTP", false, corpusSection},
	{"provenance", "graph chaining + hash chain over a million-instance history", false, provenanceSection},
}

// benchOut, when set with -out <file>, makes the provenance section
// write its measurements as JSON (BENCH_provenance.json).
var benchOut string

// cpuProfile / memProfile, set with -cpuprofile/-memprofile <file>,
// capture pprof profiles over the selected sections.
var cpuProfile, memProfile string

func main() {
	valid := map[string]bool{}
	for _, s := range sections {
		valid[s.name] = true
	}
	want := map[string]bool{}
	quick := false
	args := os.Args[1:]
	needValue := func(i int, name string) string {
		if i+1 >= len(args) {
			fmt.Fprintf(os.Stderr, "flowbench: %s requires a value\n", name)
			os.Exit(2)
		}
		return args[i+1]
	}
	for i := 0; i < len(args); i++ {
		switch a := args[i]; strings.TrimPrefix(a, "-") {
		case "quick":
			quick = true
		case "out":
			benchOut = needValue(i, a)
			i++
		case "cpuprofile":
			cpuProfile = needValue(i, a)
			i++
		case "memprofile":
			memProfile = needValue(i, a)
			i++
		default:
			if !valid[a] {
				fmt.Fprintf(os.Stderr, "flowbench: unknown section or flag %q; sections are: %s\n",
					a, strings.Join(sectionNames(), " "))
				os.Exit(2)
			}
			want[a] = true
		}
	}
	if quick {
		for _, s := range sections {
			if s.quick {
				want[s.name] = true
			}
		}
	}
	if cpuProfile != "" {
		f := must1(os.Create(cpuProfile))
		must(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			must(f.Close())
		}()
	}
	for _, s := range sections {
		if len(want) > 0 && !want[s.name] {
			continue
		}
		fmt.Printf("==== %s: %s ====\n", s.name, s.desc)
		s.run()
		fmt.Println()
	}
	if memProfile != "" {
		f := must1(os.Create(memProfile))
		runtime.GC()
		must(pprof.WriteHeapProfile(f))
		must(f.Close())
	}
}

func sectionNames() []string {
	names := make([]string, len(sections))
	for i, s := range sections {
		names[i] = s.name
	}
	return names
}

// session returns a bootstrapped session.
func session() *hercules.Session {
	s := hercules.NewSession("flowbench")
	if err := s.Bootstrap(); err != nil {
		panic(err)
	}
	return s
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func must1[T any](v T, err error) T {
	must(err)
	return v
}

// ---- fig 1 -----------------------------------------------------------------

func fig1() {
	s := schema.Fig1()
	fmt.Printf("entity types: %d (%d tools, %d data)\n", s.Len(), count(s, schema.KindTool), count(s, schema.KindData))
	fds, dds, opts := 0, 0, 0
	for _, t := range s.Types() {
		if t.FuncDep != nil {
			fds++
		}
		for _, d := range t.DataDeps {
			dds++
			if d.Optional {
				opts++
			}
		}
	}
	fmt.Printf("dependencies: %d functional, %d data (%d optional, breaking loops)\n", fds, dds, opts)
	fmt.Printf("Netlist construction methods (subtypes): %v\n", s.Subtypes("Netlist"))
	fmt.Printf("composite entities: Circuit -> %v\n", depNames(s.Type("Circuit")))
	fmt.Printf("validation: %v\n", errString(s.Validate()))
}

func count(s *schema.Schema, k schema.Kind) int {
	n := 0
	for _, t := range s.Types() {
		if t.Kind == k {
			n++
		}
	}
	return n
}

func depNames(t *schema.EntityType) []string {
	var out []string
	for _, d := range t.DataDeps {
		out = append(out, d.Key())
	}
	return out
}

func errString(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

// ---- fig 2 -----------------------------------------------------------------

func fig2() {
	// Compare interpreted (event-driven) against compiled simulation of
	// the same circuit over growing vector counts; report the crossover
	// where compilation pays for itself.
	nl := netlist.RippleAdder(8)
	lib := models.Default()

	compileStart := time.Now()
	prog := must1(cosmos.Compile(nl))
	compileCost := time.Since(compileStart)
	fmt.Printf("circuit: %s (%d gates); compile cost: %v, program %d steps\n",
		nl.Name, len(nl.Gates), compileCost, prog.Steps())
	fmt.Printf("%8s %14s %14s %10s\n", "vectors", "event-driven", "compiled+comp", "winner")
	for _, n := range []int{1, 4, 16, 64, 256, 1024} {
		st := figures.Vectors(nl, n)
		t0 := time.Now()
		sm := must1(sim.New(nl, lib))
		_, err := sm.Run(st)
		must(err)
		ev := time.Since(t0)
		t1 := time.Now()
		p := must1(cosmos.Compile(nl))
		_, err = p.RunVectors(st)
		must(err)
		comp := time.Since(t1)
		winner := "compiled"
		if ev < comp {
			winner = "event-driven"
		}
		fmt.Printf("%8d %14v %14v %10s\n", n, ev, comp, winner)
	}
	// The full COSMOS scenario: compile the *extracted transistor*
	// netlist of a layout (switch-level compilation) and check it
	// computes the same function.
	small := netlist.FullAdder()
	lay := must1(layout.Generate(small, nil))
	ext := must1(extract.Extract(lay))
	xprog := must1(cosmos.Compile(ext.Netlist))
	agree := true
	for v := 0; v < 8; v++ {
		in := map[string]bool{"a": v&1 != 0, "b": v&2 != 0, "cin": v&4 != 0}
		got := must1(xprog.Run(in))
		want := must1(sim.Evaluate(small, in))
		for _, o := range small.Outputs() {
			if got[o] != want[o] {
				agree = false
			}
		}
	}
	fmt.Printf("switch-level compile of the extracted %s: %d steps, matches gate level: %v\n",
		ext.Netlist.Name, xprog.Steps(), agree)
}

// ---- fig 3 -----------------------------------------------------------------

func fig3() {
	// The placement flow of Fig. 3 over our schema, rendered three ways.
	s := session()
	f := s.NewFlow()
	lay := f.MustAdd("PlacedLayout")
	must(f.ExpandDown(lay, false))
	netN, _ := f.Node(lay).Dep("Netlist")
	must(f.Specialize(netN, "EditedNetlist"))
	must(f.ExpandDown(netN, false))
	fmt.Println("task graph (the paper's chosen representation):")
	fmt.Print(indent(f.Render()))
	fmt.Println("traditional bipartite flow diagram:")
	for _, a := range must1(f.Bipartite()) {
		fmt.Printf("  %s\n", a)
	}
	fmt.Println("functional form (footnote 2):")
	fmt.Printf("  %s\n", f.LispForm())
}

// ---- fig 4 -----------------------------------------------------------------

func fig4() {
	s := session()
	f := s.NewFlow()
	perf := f.MustAdd("Performance")
	must(f.ExpandDown(perf, false))
	fmt.Println("flow after one expansion of the goal:")
	fmt.Print(indent(f.Render()))

	// Expansion (a): expand the circuit composite.
	fa := f.Clone()
	cct := childByKey(fa, rootOf(fa), "Circuit")
	must(fa.ExpandDown(cct, false))
	fmt.Println("expansion (a): the circuit's components:")
	fmt.Print(indent(fa.Render()))

	// Expansion (b): specialize the netlist to Extracted first (as in
	// the paper), then expand.
	fb := fa.Clone()
	cctB := childByKey(fb, rootOf(fb), "Circuit")
	netB := childByKey(fb, cctB, "Netlist")
	must(fb.Specialize(netB, "ExtractedNetlist"))
	must(fb.ExpandDown(netB, false))
	fmt.Println("expansion (b): netlist specialized to ExtractedNetlist, then expanded:")
	fmt.Print(indent(fb.Render()))
}

func rootOf(f *flow.Flow) flow.NodeID { return f.Roots()[0] }

func childByKey(f *flow.Flow, id flow.NodeID, key string) flow.NodeID {
	c, ok := f.Node(id).Dep(key)
	if !ok {
		panic("missing dep " + key)
	}
	return c
}

// ---- fig 5 -----------------------------------------------------------------

func fig5() {
	s := session()
	// Extraction with two outputs, netlist reused by verification and by
	// a circuit that is simulated and plotted.
	f, e, err := figures.Fig5(s)
	must(err)
	net := e.Netlist
	cct := f.MustAdd("Circuit")
	must(f.Connect(cct, "Netlist", net))
	dm := f.MustAdd("DeviceModels")
	must(f.ExpandDown(dm, false))
	dmToolN, _ := f.Node(dm).Dep("fd")
	must(f.Connect(cct, "DeviceModels", dm))
	perf := must1(f.ExpandUp(cct, "Performance", "Circuit"))
	must(f.ExpandDown(perf, false))
	simN, _ := f.Node(perf).Dep("fd")
	stimN, _ := f.Node(perf).Dep("Stimuli")
	plotN := must1(f.ExpandUp(perf, "PerformancePlot", "Performance"))
	must(f.ExpandDown(plotN, false))
	plotterN, _ := f.Node(plotN).Dep("fd")

	must(f.Bind(dmToolN, s.Must("dmEd.default")))
	must(f.Bind(simN, s.Must("sim")))
	must(f.Bind(stimN, s.Must("stim.exhaustive3")))
	must(f.Bind(plotterN, s.Must("plotter")))

	fmt.Printf("flow: %d nodes, %d roots (multiple outputs), netlist reused by %d consumers\n",
		f.Len(), len(f.Roots()), len(f.Parents(net)))
	res := must1(s.Run(f))
	fmt.Printf("executed %d tool runs; extraction shared between netlist and statistics\n", res.TasksRun)
	entities := 0
	for range res.Created {
		entities++
	}
	fmt.Printf("flow nodes realized: %d\n", entities)
}

// ---- fig 6 -----------------------------------------------------------------

func fig6() {
	s := session()
	const delay = 10 * time.Millisecond
	s.Options.TaskDelay = func(flow.NodeID, string) time.Duration { return delay }
	fmt.Printf("8 disjoint branches, %v simulated tool-dispatch latency each\n", delay)
	fmt.Printf("%9s %12s %9s %10s\n", "machines", "elapsed", "speedup", "occupancy")
	var base time.Duration
	var last *exec.Stats
	for _, w := range []int{1, 2, 4, 8} {
		s.Engine.SetWorkers(w)
		res := must1(s.Run(must1(figures.Branches(s, 8, "netEd.fulladder"))))
		if w == 1 {
			base = res.Elapsed
		}
		fmt.Printf("%9d %12v %8.1fx %9.0f%%\n", w, res.Elapsed.Round(time.Millisecond),
			float64(base)/float64(res.Elapsed), res.Stats.Occupancy*100)
		last = res.Stats
	}
	fmt.Println("last run (8 machines):")
	fmt.Println(indent(last.Summary()))
}

// ---- scheduler: dataflow vs the level-barrier bound -------------------------

// schedSection runs two interleaved slow/fast chains under the dataflow
// scheduler and sets its elapsed time against the level-barrier lower
// bound: a schedule that drains each dependency level before starting
// the next takes at least the sum of the level maxima, whatever its
// worker count.
func schedSection() {
	const depth = 6
	const workers = 4
	slow, fast := 20*time.Millisecond, time.Millisecond
	barrierBound := time.Duration(depth) * slow
	fmt.Printf("two chains of %d tasks, slow/fast latencies interleaved per level (%v / %v), %d machines\n",
		depth, slow, fast, workers)
	fmt.Printf("level-barrier lower bound (sum of level maxima): %v; dataflow ideal (max branch): %v\n",
		barrierBound, time.Duration(depth/2)*(slow+fast))
	s := session()
	s.Engine.SetWorkers(workers)
	res := must1(s.Run(must1(figures.Unbalanced(s, depth, slow, fast))))
	fmt.Printf("dataflow:\n%s\n", indent(res.Stats.Summary()))
	fmt.Printf("dataflow speedup over the level-barrier bound: %.2fx\n",
		float64(barrierBound)/float64(res.Stats.Elapsed))
}

// ---- fig 7 -----------------------------------------------------------------

func fig7() {
	inv := netlist.Inverter()
	fmt.Println("logic view:")
	fmt.Print(indent(netlist.Format(inv)))
	x := must1(netlist.ToTransistor(inv))
	fmt.Println("transistor view:")
	fmt.Print(indent(netlist.Format(x)))
	fmt.Println("physical view (excerpt):")
	s := session()
	f := s.NewFlow()
	layN := f.MustAdd("EditedLayout")
	must(f.ExpandDown(layN, false))
	tn, _ := f.Node(layN).Dep("fd")
	invTool := must1(s.Import("LayoutEditor", "inverter gen", "generate inverter"))
	must(f.Bind(tn, invTool))
	res := must1(s.Run(f))
	lay := must1(res.One(layN))
	text := must1(s.ArtifactText(lay))
	fmt.Print(indent(firstLines(text, 8)))
	fmt.Printf("  ... (%d lines total)\n", strings.Count(text, "\n"))
}

// ---- fig 8 -----------------------------------------------------------------

func fig8() {
	s := session()
	netInst := must1(figures.Netlist(s, "netEd.fulladder"))
	t0 := time.Now()
	layInst := must1(figures.Synthesis(s, netInst))
	fmt.Printf("synthesis (Fig. 8a): %s in %v\n", layInst, time.Since(t0).Round(time.Millisecond))

	// Connecting a layout as a verification's reference netlist is
	// refused: the schema's typing at work.
	f := s.NewFlow()
	layN, verN := f.MustAdd("Layout"), f.MustAdd("Verification")
	fmt.Printf("  ill-typed connect refused: %v\n", f.Connect(verN, "Netlist/reference", layN))
	t1 := time.Now()
	vid := must1(figures.Verification(s, layInst, netInst))
	text := must1(s.ArtifactText(vid))
	fmt.Printf("verification (Fig. 8b) in %v: %s", time.Since(t1).Round(time.Millisecond), text)
}

// ---- fig 9 -----------------------------------------------------------------

func fig9() {
	s := session()
	// Populate the history with simulations from three users.
	users := []string{"jbb", "director", "sutton"}
	names := []string{"Low pass filter", "CMOS Full adder", "Operational Amplifier"}
	for i, u := range users {
		s.Options.User = u
		must(s.Annotate(must1(figures.Simulation(s)), names[i], "run by "+u))
	}
	fmt.Printf("history holds %d instances\n", s.DB.Len())
	queries := []struct {
		desc   string
		filter history.Filter
	}{
		{"user jbb", history.Filter{User: "jbb"}},
		{"type Netlist (subtypes included)", history.Filter{Type: "Netlist"}},
		{"keyword 'adder'", history.Filter{Keyword: "adder"}},
		{"type Performance + user sutton", history.Filter{Type: "Performance", User: "sutton"}},
	}
	for _, q := range queries {
		t0 := time.Now()
		got := s.Browse(q.filter)
		fmt.Printf("  browse %-36s -> %2d instance(s) in %v\n", q.desc, len(got), time.Since(t0))
	}
}

// ---- fig 10 ----------------------------------------------------------------

func fig10() {
	s := session()
	// Build an edit chain of growing depth; measure backchain latency.
	cur := must1(figures.Netlist(s, "netEd.fulladder"))
	fmt.Printf("%12s %12s %12s\n", "chain depth", "nodes found", "query time")
	for _, depth := range []int{1, 8, 64, 256} {
		for chainLen(s, cur) < depth {
			cur = s2edit(s, cur)
		}
		t0 := time.Now()
		d := must1(s.DB.Backchain(cur, -1))
		fmt.Printf("%12d %12d %12v\n", depth, len(d.Nodes), time.Since(t0))
	}
	// The Fig. 10 rendering itself.
	shallow := must1(s.DB.Backchain(cur, 1))
	fmt.Println("History pop-up (depth 1), as in Fig. 10:")
	fmt.Print(indent(shallow.Render(s.DB)))
}

// s2edit retouches base once and returns the new version.
func s2edit(s *hercules.Session, base history.ID) history.ID {
	return must1(figures.Edit(s, s.Must("netEd.retouch"), base))
}

// chainLen computes the version-chain length of an instance.
func chainLen(s *hercules.Session, id history.ID) int {
	d := must1(s.DB.Backchain(id, -1))
	n := 0
	for _, x := range d.Nodes {
		if strings.HasPrefix(string(x), "EditedNetlist") {
			n++
		}
	}
	return n
}

// ---- fig 11 ----------------------------------------------------------------

func fig11() {
	s := session()
	c1 := must1(figures.Netlist(s, "netEd.fulladder"))
	c2 := s2edit(s, c1)
	c3 := s2edit(s, c2)
	c4 := s2edit(s, c1)
	c5 := s2edit(s, c4)
	fmt.Printf("two branches from %s: leaf %s (chain %d) and leaf %s (chain %d)\n",
		c1, c3, chainLen(s, c3), c5, chainLen(s, c5))
	fmt.Println("classic version tree (Fig. 11a):")
	fmt.Print(indent(must1(s.VersionTree(c1))))
	fmt.Println("flow trace (Fig. 11b) — same data, plus the tools used:")
	fmt.Print(indent(must1(s.FlowTrace(c1))))
	fmt.Println("query capability:")
	fmt.Println("  'what versions exist?'           -> both answer")
	trace := must1(s.DB.FlowTrace(c4))
	var tool history.ID
	var find func(tn2 *history.TraceNode)
	find = func(tn2 *history.TraceNode) {
		if tn2.Inst == c4 {
			tool = tn2.Tool
		}
		for _, c := range tn2.Children {
			find(c)
		}
	}
	find(trace)
	fmt.Printf("  'which tool created version c4?' -> only the flow trace: %s\n", tool)
	// Storage: both are views over the same derivation records — zero
	// extra storage for versioning (the paper's point).
	fmt.Printf("storage: versioning adds 0 bytes; it reuses %d derivation records\n", s.DB.Len())
}

// ---- retrace ----------------------------------------------------------------

func retraceSection() {
	s := session()
	perf := must1(figures.Simulation(s))
	net := s.DB.InstancesOf("EditedNetlist")[0].ID
	s2edit(s, net)
	fmt.Printf("after editing the netlist, performance stale: %v\n", must1(s.OutOfDate(perf)))
	// A retrace takes well under a millisecond; BenchmarkRetrace times it.
	rr := must1(s.Retrace(perf))
	fmt.Printf("retrace: %d step(s) re-run, %d cache hit(s)\n", len(rr.Rebuilt), rr.CacheHits)
	fmt.Printf("plan was:\n%s\n", indent(rr.Plan.String()))
	fmt.Printf("new target %s stale: %v\n", rr.NewTarget(perf), must1(s.OutOfDate(rr.NewTarget(perf))))
}

// ---- chaos ----------------------------------------------------------------

// chaosSection measures the fault-tolerance layer against the seeded
// injector (internal/faults): transient faults absorbed by retries with
// full-jitter backoff, graceful degradation committing every branch a
// failure cannot reach, and a hung tool cut off by the task timeout.
func chaosSection() {
	const branches = 8
	// Alternating generators make the branches distinct injection sites.
	branchFlow := func(s *hercules.Session) *flow.Flow {
		return must1(figures.Branches(s, branches, "netEd.fulladder", "netEd.ripple4"))
	}

	// Transient faults + retry: every tool site fails twice; retries
	// absorb the faults and the run commits everything.
	s1 := session()
	inj := faults.New(1993, faults.Config{TransientRate: 1, TransientRuns: 2})
	inj.Instrument(s1.Registry)
	s1.Options.Retry = &exec.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 7}
	t0 := time.Now()
	res := must1(s1.Run(branchFlow(s1)))
	fmt.Printf("transient: %d/%d tasks committed after %d retries in %v (%d transient faults injected)\n",
		res.TasksRun, branches, res.Stats.Retries,
		time.Since(t0).Round(time.Millisecond), inj.Counters().Transients)

	// Graceful degradation: a poisoned layout editor kills one producer
	// chain; under ContinueOnError the independent branches still commit
	// and the aggregate error names the root cause and the skipped node.
	s2 := session()
	inj2 := faults.New(1993, faults.Config{})
	inj2.SetToolConfig("LayoutEditor", faults.Config{PermanentRate: 1})
	inj2.Instrument(s2.Registry)
	continueOnError := exec.ContinueOnError
	s2.Options.Policy = &continueOnError
	f2 := branchFlow(s2)
	must1(figures.Extraction(s2, f2))
	res2, err2 := s2.Run(f2)
	fmt.Printf("degraded : %d/%d tasks committed under %s, %d failed, %d skipped\n",
		res2.TasksRun, branches+2, exec.ContinueOnError,
		res2.Stats.UnitsFailed, res2.Stats.JobsSkipped)
	fmt.Printf("           error lines (root cause + each skipped node): %d\n",
		len(strings.Split(err2.Error(), "\n")))

	// Hung tool + timeout: an hour-long hang is cut off by the 50ms
	// per-task deadline; the run returns promptly.
	s3 := session()
	inj3 := faults.New(1993, faults.Config{HangRate: 1, HangLimit: time.Hour})
	inj3.Instrument(s3.Registry)
	timeout := 50 * time.Millisecond
	s3.Options.TaskTimeout = &timeout
	f3 := must1(figures.Branches(s3, 1, "netEd.fulladder"))
	t0 = time.Now()
	res3, err3 := s3.Run(f3)
	fmt.Printf("hung tool: cut off in %v (deadline exceeded: %v, attempts timed out: %d)\n",
		time.Since(t0).Round(time.Millisecond),
		errors.Is(err3, context.DeadlineExceeded), res3.Stats.Timeouts)
}

// ---- trace --------------------------------------------------------------------

func traceSection() {
	const branches = 8
	const workers = 4
	branchFlow := func(s *hercules.Session) *flow.Flow {
		return must1(figures.Branches(s, branches, "netEd.fulladder", "netEd.ripple4"))
	}

	// Determinism: events are sequenced in plan commit order, so after
	// masking wall-clock fields every worker count emits the same bytes.
	collect := func(workers int) []runtrace.Event {
		s := session()
		s.Engine.SetWorkers(workers)
		buf := runtrace.NewBuffer()
		s.Options.Tracer = buf
		must1(s.Run(branchFlow(s)))
		return buf.Events()
	}
	evPar, evSer := collect(workers), collect(1)
	parJSONL := runtrace.MaskedJSONL(evPar)
	fmt.Printf("fig6 flow (%d branches, %d workers): %d events per run\n", branches, workers, len(evPar))
	fmt.Printf("byte-identical masked traces across 1 and %d workers: %v\n",
		workers, bytes.Equal(parJSONL, runtrace.MaskedJSONL(evSer)))
	lines := strings.Split(strings.TrimSpace(string(parJSONL)), "\n")
	fmt.Println("masked JSONL (first 3 lines + last):")
	for _, l := range lines[:3] {
		fmt.Printf("  %s\n", l)
	}
	fmt.Printf("  ... %s\n", lines[len(lines)-1])

	// Metrics: the registry is a fold over the same event stream; a
	// chaos run shows the fault counters moving.
	sm := session()
	inj := faults.New(1993, faults.Config{TransientRate: 1, TransientRuns: 2})
	inj.Instrument(sm.Registry)
	sm.Options.Retry = &exec.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 7}
	metrics := runtrace.NewMetrics()
	sm.Options.Tracer = metrics
	must1(sm.Run(branchFlow(sm)))
	fmt.Println("metrics exposition after a transient-chaos run (excerpt):")
	for _, l := range strings.Split(metrics.Expose(), "\n") {
		if strings.HasPrefix(l, "flow_") && !strings.Contains(l, "_bucket") &&
			!strings.Contains(l, "_sum") && !strings.Contains(l, "_seconds_total") {
			fmt.Printf("  %s\n", l)
		}
	}

	// Overhead: the BenchmarkFig6UnbalancedBranches workload untraced
	// vs with the ring sink (the ≤5%% acceptance budget) vs streaming
	// JSONL. Delay-dominated by design: tracing cost is microseconds
	// per event.
	const depth = 6
	slow, fast := 8*time.Millisecond, 500*time.Microsecond
	measure := func(sink runtrace.Sink) time.Duration {
		best := time.Duration(0)
		for i := 0; i < 5; i++ {
			s := session()
			s.Engine.SetWorkers(workers)
			s.Options.Tracer = sink
			res := must1(s.Run(must1(figures.Unbalanced(s, depth, slow, fast))))
			if best == 0 || res.Stats.Elapsed < best {
				best = res.Stats.Elapsed
			}
		}
		return best
	}
	base := measure(nil)
	ring := measure(runtrace.NewRing(4096))
	fmt.Printf("unbalanced fig6 workload (best of 5): untraced %v, ring sink %v — overhead %+.2f%%\n",
		base.Round(time.Microsecond), ring.Round(time.Microsecond),
		100*(float64(ring)-float64(base))/float64(base))
}

// ---- memo ---------------------------------------------------------------------

// memoSection demonstrates incremental re-execution: with the
// derivation-keyed result cache (internal/memo) installed, re-running
// the unbalanced fig6 workload executes no tool at all — every unit's
// output is served from cache by content-addressed derivation key, yet
// the warm run still mints fresh history instances with the same
// artifacts and derivations as the cold run.
func memoSection() {
	const depth = 6
	const workers = 4
	slow, fast := 20*time.Millisecond, time.Millisecond
	s := session()
	s.Engine.SetWorkers(workers)
	cache := memo.New(0)
	s.Options.Memo = cache
	build := func() *flow.Flow { return must1(figures.Unbalanced(s, depth, slow, fast)) }
	fmt.Printf("unbalanced fig6 workload (two chains of %d, %v/%v latencies, %d machines)\n",
		depth, slow, fast, workers)
	cold := must1(s.Run(build()))
	fWarm := build()
	warm := must1(s.Run(fWarm))
	fmt.Printf("cold run: %v (%d/%d units executed)\n",
		cold.Elapsed.Round(time.Millisecond),
		cold.Stats.Units-cold.Stats.CacheHits, cold.Stats.Units)
	fmt.Printf("warm run: %v (%d/%d units served from cache)\n",
		warm.Elapsed.Round(time.Microsecond),
		warm.Stats.CacheHits, warm.Stats.Units)
	fmt.Printf("warm-rerun speedup: %.0fx (acceptance floor 5x)\n",
		float64(cold.Elapsed)/float64(warm.Elapsed))
	st := cache.Stats()
	fmt.Printf("cache: %d entries — %d hits, %d misses, %d stores\n",
		cache.Len(), st.Hits, st.Misses, st.Puts)
	// The warm run minted its own instances: none of its unbound nodes
	// reused an ID from the cold run's result.
	coldIDs := make(map[history.ID]bool)
	for _, ids := range cold.Created {
		for _, id := range ids {
			coldIDs[id] = true
		}
	}
	fresh := true
	for n, ids := range warm.Created {
		if fWarm.Node(n).IsBound() {
			continue
		}
		for _, id := range ids {
			if coldIDs[id] {
				fresh = false
			}
		}
	}
	fmt.Printf("fresh history instances on warm re-run: %v\n", fresh)
}

// ---- approaches ---------------------------------------------------------------

func approachesSection() {
	s := session()
	fmt.Println("all four §3.4 approaches reach a Performance:")
	// Goal-based.
	fmt.Println("  goal-based : start Performance, expand, bind (see examples/approaches)")
	// Tool-based choices.
	ft, toolN, err := s.Catalogs.StartFromTool(s.Must("sim"))
	must(err)
	fmt.Printf("  tool-based : simulator seeds node %d (%s); can produce %v\n",
		toolN, ft.Node(toolN).Type, s.Catalogs.GoalsFor("InstalledSimulator"))
	// Data-based choices.
	uses := s.Catalogs.UsesFor("Stimuli")
	var consumers []string
	for _, u := range uses {
		consumers = append(consumers, u.Consumer)
	}
	sort.Strings(consumers)
	fmt.Printf("  data-based : stimuli usable by %v\n", consumers)
	// Plan-based.
	fmt.Printf("  plan-based : catalog offers %v\n", s.Catalogs.FlowNames())
}

// ---- baselines ------------------------------------------------------------------

func baselinesSection() {
	s := schema.Full()
	// Expressiveness: legal primitive tasks derivable from the schema vs
	// a static catalog of the same description size.
	tasks := 0
	for _, t := range s.Types() {
		if t.HasTask() {
			tasks++
		}
	}
	fmt.Printf("dynamic: %d schema types induce %d primitive tasks, composable into unbounded flows\n",
		s.Len(), tasks)

	cat := staticflow.NewCatalog()
	must(cat.Install(&staticflow.Flow{Name: "extract", Steps: []staticflow.Step{
		{Name: "draw", ToolType: "LayoutEditor", Tool: []byte("generate fulladder"), Inputs: map[string]string{}, Output: "lay", Produces: "EditedLayout"},
		{Name: "extract", ToolType: "Extractor", Inputs: map[string]string{"Layout": "lay"}, Output: "net", Produces: "ExtractedNetlist"},
	}}))
	must(cat.Install(&staticflow.Flow{Name: "extract-mux", Steps: []staticflow.Step{
		{Name: "draw", ToolType: "LayoutEditor", Tool: []byte("generate mux2"), Inputs: map[string]string{}, Output: "lay", Produces: "EditedLayout"},
		{Name: "extract", ToolType: "Extractor", Inputs: map[string]string{"Layout": "lay"}, Output: "net", Produces: "ExtractedNetlist"},
	}}))
	fmt.Printf("static : %d flow definitions cover %d tool sequence(s); reordering is refused\n",
		cat.Len(), len(cat.Sequences()))
	fmt.Printf("         tool change cost: editing Extractor touches %d definition(s) (dynamic: 0)\n",
		cat.ToolChangeCost("Extractor"))
	// Demonstrate the straight-jacket.
	sf, _ := cat.Get("extract")
	e := staticflow.Start(sf, s, encap.StandardRegistry(), nil)
	err := e.RunStep("extract")
	fmt.Printf("         out-of-order attempt: %v\n", err)

	// Traces: replay works, methodology does not.
	sess := session()
	f := sess.NewFlow()
	x := must1(figures.Extraction(sess, f))
	target := must1(must1(sess.Run(f)).One(x.Netlist))
	tr := must1(trace.Capture(sess.DB, target))
	fmt.Printf("trace  : captured %d events (%v); replays as a prototype but enforces nothing\n",
		len(tr.Events), tr.ToolSequence())
}

// ---- corpus -----------------------------------------------------------------

// tinyScenario is a pipeline whose instance IDs are known in advance
// (IDs carry the database-global commit sequence: Src:1, T:2, Mid:3,
// Out:4), so the provenance endpoint can be queried blind.
const tinyScenario = `{
  "name": "bench-tiny",
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
  ]
}`

// corpusSection drives a live service with the conformance corpus
// (testdata/scenarios/): every scenario is posted verbatim to
// POST /v1/runs and polled to a terminal state — first serially, then
// all at once against the shared engine — and each outcome is checked
// against the scenario's own expectation (success, or failure naming
// the expected error). One run's chaining is then queried back through
// GET /v1/runs/{id}/provenance as an end-to-end check of the
// provenance endpoint. Scenarios driven by harness-side hooks the HTTP
// API does not expose (cancel-mid-run) are skipped.
func corpusSection() {
	srv := must1(service.New(service.Config{Workers: 4}))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	files := must1(filepath.Glob(filepath.Join("testdata", "scenarios", "*.json")))
	if len(files) == 0 {
		panic("no scenarios under testdata/scenarios (run from the repository root)")
	}
	type entry struct {
		name    string
		raw     []byte
		wantErr string // expect.error substring; empty = must succeed
	}
	var corpus []entry
	skipped := 0
	for _, path := range files {
		raw := must1(os.ReadFile(path))
		sc := must1(scenario.Decode(raw))
		if sc.Cancel != nil {
			skipped++
			continue
		}
		corpus = append(corpus, entry{name: sc.Name, raw: raw, wantErr: sc.Expect.Error})
	}
	fmt.Printf("corpus: %d scenarios (%d skipped: cancel is a harness hook, not an HTTP call)\n",
		len(corpus), skipped)

	type view struct {
		ID       string `json:"id"`
		State    string `json:"state"`
		TasksRun int    `json:"tasks_run"`
		Error    string `json:"error"`
	}
	post := func(e entry) view {
		body := must1(json.Marshal(map[string]json.RawMessage{
			"scenario": e.raw,
			"user":     json.RawMessage(`"bench"`),
		}))
		resp := must1(http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body)))
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			var m map[string]string
			_ = json.NewDecoder(resp.Body).Decode(&m)
			panic(fmt.Sprintf("submit %s: status %d (%v)", e.name, resp.StatusCode, m))
		}
		var v view
		must(json.NewDecoder(resp.Body).Decode(&v))
		return v
	}
	wait := func(id string) view {
		for {
			resp := must1(http.Get(ts.URL + "/v1/runs/" + id))
			var v view
			must(json.NewDecoder(resp.Body).Decode(&v))
			must(resp.Body.Close())
			if v.State != "running" {
				return v
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	conforms := func(e entry, v view) bool {
		if e.wantErr == "" {
			return v.State == "succeeded"
		}
		return v.State == "failed" && strings.Contains(v.Error, e.wantErr)
	}

	bad := 0
	fmt.Printf("%-24s %-9s %5s %9s\n", "scenario", "state", "tasks", "elapsed")
	t0 := time.Now()
	for _, e := range corpus {
		s0 := time.Now()
		v := wait(post(e).ID)
		line := fmt.Sprintf("%-24s %-9s %5d %8.0fms", e.name, v.State, v.TasksRun,
			float64(time.Since(s0).Microseconds())/1000)
		if !conforms(e, v) {
			line += fmt.Sprintf("  UNEXPECTED (want error %q, got %q)", e.wantErr, v.Error)
			bad++
		}
		fmt.Println(line)
	}
	serial := time.Since(t0)

	// The same corpus all at once: every run is its own world (own
	// schema, registry, history database) on the one shared pool.
	t0 = time.Now()
	views := make([]view, len(corpus))
	var wg sync.WaitGroup
	for i, e := range corpus {
		wg.Add(1)
		go func(i int, e entry) {
			defer wg.Done()
			views[i] = wait(post(e).ID)
		}(i, e)
	}
	wg.Wait()
	conc := time.Since(t0)
	for i, e := range corpus {
		if !conforms(e, views[i]) {
			fmt.Printf("concurrent %s: UNEXPECTED state %s (%s)\n", e.name, views[i].State, views[i].Error)
			bad++
		}
	}
	fmt.Printf("serial %v, concurrent %v (%.1fx) — %d/%d outcomes as expected\n",
		serial.Round(time.Millisecond), conc.Round(time.Millisecond),
		float64(serial)/float64(conc), 2*len(corpus)-bad, 2*len(corpus))

	// End-to-end chaining over HTTP: a run with known instance IDs,
	// queried back with the inline chain verdict — which, for a server
	// without a data dir, is that there is no log to verify.
	tv := wait(post(entry{name: "bench-tiny", raw: []byte(tinyScenario)}).ID)
	var pv struct {
		Nodes []string `json:"nodes"`
		Chain struct {
			Verified bool   `json:"verified"`
			Error    string `json:"error"`
		} `json:"chain"`
	}
	resp := must1(http.Get(ts.URL + "/v1/runs/" + tv.ID + "/provenance?inst=Out:4&verify=1"))
	must(json.NewDecoder(resp.Body).Decode(&pv))
	must(resp.Body.Close())
	fmt.Printf("provenance over HTTP: backchain %v, chain verified=%v (%s)\n",
		pv.Nodes, pv.Chain.Verified, pv.Chain.Error)

	if forced, err := srv.Shutdown(10 * time.Second); err != nil || forced {
		panic(fmt.Sprintf("Shutdown = (forced %v, err %v)", forced, err))
	}
	if bad != 0 {
		panic(fmt.Sprintf("%d corpus runs diverged from their expectations", bad))
	}
}

// ---- provenance -------------------------------------------------------------

// provenanceSection measures the design-history layer at scale: a
// chain-shaped flowgen world of 600k cells — 1.2M committed instances,
// each added to the database's derivation graph as it commits — then
// the paper's chaining queries answered by that graph, and the
// tamper-evident hash chain's append and verify throughput. The graph
// is checked against a reference walker in the default test suite
// (internal/history TestGraphDeepChainMatchesOracle) and timed against
// it by the BenchmarkBackchainGraph/Oracle pair. With -out the
// measurements are written as JSON (BENCH_provenance.json).
func provenanceSection() {
	const cells = 600000
	spec := flowgen.Spec{Cells: cells, Shape: flowgen.Chain, Seed: 1993}
	g := must1(flowgen.Generate(spec))
	t0 := time.Now()
	b, ids := must2(g.Populate())
	popTime := time.Since(t0)
	graph := b.DB.Graph()
	fmt.Printf("world: %s shape, %d cells -> %d instances / %d arcs committed and graphed in %v (%.0f inst/s)\n",
		spec.Shape, cells, graph.Len(), graph.Edges(), popTime.Round(time.Millisecond),
		float64(graph.Len())/popTime.Seconds())

	// minOf times five consecutive reps and takes the best: min-of-N is
	// the right estimator under additive noise from shared-core
	// neighbours.
	minOf := func(f func()) time.Duration {
		runtime.GC() // start the block with a clean pacer: no assist debt in the timings
		var best time.Duration
		for i := 0; i < 5; i++ {
			t := time.Now()
			f()
			if d := time.Since(t); best == 0 || d < best {
				best = d
			}
		}
		return best
	}

	// Deep backchain: the tail of the longest edit chain, unbounded
	// depth — the Fig. 10 history query at version-tree scale.
	deep := ids[len(ids)-1]
	backD := must1(b.DB.Backchain(deep, -1))
	back := minOf(func() { must1(b.DB.Backchain(deep, -1)) })
	fmt.Printf("backchain (deep, %d nodes / %d arcs): %v\n",
		len(backD.Nodes), len(backD.Edges), back.Round(time.Microsecond))

	// Forward chain from the first cell: the whole first edit chain.
	fwdRoot := ids[0]
	fwdD := must1(b.DB.Forwardchain(fwdRoot, -1))
	fwd := minOf(func() { must1(b.DB.Forwardchain(fwdRoot, -1)) })
	fmt.Printf("forwardchain (%d nodes): %v\n", len(fwdD.Nodes), fwd.Round(time.Microsecond))

	// Hash chain: append (SHA-256 over the canonical record, linked to
	// the previous digest) and full verification, over an in-memory log.
	log := storage.NewMemLog()
	ch := provenance.NewChain(log)
	t0 = time.Now()
	b.DB.Observe(ch)
	must(ch.Sync())
	appendTime := time.Since(t0)
	t0 = time.Now()
	must(ch.Verify())
	verifyTime := time.Since(t0)
	recs := ch.Len()
	fmt.Printf("chain: %d records hashed+appended in %v (%.0f rec/s), verified in %v\n",
		recs, appendTime.Round(time.Millisecond),
		float64(recs)/appendTime.Seconds(), verifyTime.Round(time.Millisecond))
	must(ch.Close())

	if benchOut != "" {
		ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
		out := struct {
			Bench         string  `json:"bench"`
			Cells         int     `json:"cells"`
			Shape         string  `json:"shape"`
			Seed          int64   `json:"seed"`
			Instances     int     `json:"instances"`
			Arcs          int     `json:"arcs"`
			PopulateMS    float64 `json:"populate_ms"`
			BackNodes     int     `json:"backchain_nodes"`
			BackArcs      int     `json:"backchain_arcs"`
			BackMS        float64 `json:"backchain_ms"`
			FwdNodes      int     `json:"forwardchain_nodes"`
			FwdMS         float64 `json:"forwardchain_ms"`
			ChainRecords  int     `json:"chain_records"`
			ChainAppendMS float64 `json:"chain_append_ms"`
			ChainRecPerS  float64 `json:"chain_records_per_s"`
			ChainVerifyMS float64 `json:"chain_verify_ms"`
		}{"flowbench provenance", cells, string(spec.Shape), spec.Seed,
			graph.Len(), graph.Edges(), ms(popTime),
			len(backD.Nodes), len(backD.Edges), ms(back),
			len(fwdD.Nodes), ms(fwd),
			recs, ms(appendTime), float64(recs) / appendTime.Seconds(), ms(verifyTime)}
		data := must1(json.MarshalIndent(out, "", "  "))
		must(os.WriteFile(benchOut, append(data, '\n'), 0o644))
		fmt.Printf("wrote %s\n", benchOut)
	}
}

// must2 is must1 over two-value returns.
func must2[A, B any](a A, b B, err error) (A, B) {
	must(err)
	return a, b
}

// ---- helpers ---------------------------------------------------------------

func indent(s string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		b.WriteString("  " + line + "\n")
	}
	return b.String()
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n") + "\n"
}
