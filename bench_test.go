package repro

// One benchmark per figure of the DAC'93 paper, plus the ablations named
// in DESIGN.md §4. The paper reports no absolute numbers — its
// evaluation is architectural — so these benchmarks measure the cost of
// each reproduced capability and the comparisons whose *shape* the paper
// implies (compiled vs interpreted simulation, parallel vs serial
// branches, dynamic vs static flows).

import (
	"fmt"
	"io"
	"testing"
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
	"repro/internal/hercules"
	"repro/internal/history"
	"repro/internal/memo"
	"repro/internal/schema"
	runtrace "repro/internal/trace"
)

func mustB(b *testing.B, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
}

func session(b *testing.B) *hercules.Session {
	b.Helper()
	s := hercules.NewSession("bench")
	mustB(b, s.Bootstrap())
	return s
}

// ---- Fig. 1: the task schema -----------------------------------------------

func BenchmarkFig1SchemaBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := schema.ParseString(schema.Fig1Text)
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() == 0 {
			b.Fatal("empty schema")
		}
	}
}

func BenchmarkFig1SchemaQueries(b *testing.B) {
	s := schema.Fig1()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Consumers("Netlist")
		_ = s.ConcreteSubtypes("Netlist")
		_ = s.ToolsProducing("Layout")
	}
}

// ---- Fig. 2: compiled vs event-driven simulation ----------------------------

func BenchmarkFig2CompiledSimulator(b *testing.B) {
	nl := netlist.RippleAdder(8)
	for _, vectors := range []int{16, 256} {
		st := figures.Vectors(nl, vectors)
		b.Run(fmt.Sprintf("event-driven/vectors=%d", vectors), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := sim.New(nl, models.Default())
				mustB(b, err)
				_, err = s.Run(st)
				mustB(b, err)
			}
		})
		b.Run(fmt.Sprintf("compiled/vectors=%d", vectors), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := cosmos.Compile(nl)
				mustB(b, err)
				_, err = p.RunVectors(st)
				mustB(b, err)
			}
		})
		b.Run(fmt.Sprintf("compiled-amortized/vectors=%d", vectors), func(b *testing.B) {
			p, err := cosmos.Compile(nl)
			mustB(b, err)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err = p.RunVectors(st)
				mustB(b, err)
			}
		})
	}
	// Switch-level compilation of the extracted transistor netlist — the
	// original COSMOS scenario.
	b.Run("switch-compile-extracted", func(b *testing.B) {
		lay, err := layout.Generate(netlist.FullAdder(), nil)
		mustB(b, err)
		res, err := extract.Extract(lay)
		mustB(b, err)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cosmos.Compile(res.Netlist); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Fig. 3: flow representations -------------------------------------------

func BenchmarkFig3Representations(b *testing.B) {
	f := flow.New(schema.Full(), nil)
	mustB(b, figures.Placement(f))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Render()
		if _, err := f.Bipartite(); err != nil {
			b.Fatal(err)
		}
		_ = f.LispForm()
	}
}

// ---- Fig. 4: expansion operations -------------------------------------------

func BenchmarkFig4Expand(b *testing.B) {
	s := schema.Full()
	for i := 0; i < b.N; i++ {
		_, fb, err := figures.Expansions(flow.New(s, nil))
		mustB(b, err)
		mustB(b, fb.Validate())
	}
}

// ---- Fig. 5: complex flow with reuse and multiple outputs --------------------

func BenchmarkFig5ComplexFlow(b *testing.B) {
	s := session(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, _, err := figures.Fig5(s)
		mustB(b, err)
		res, err := s.Run(f)
		mustB(b, err)
		if res.TasksRun != 3 { // layout + shared extraction + verification
			b.Fatalf("TasksRun = %d", res.TasksRun)
		}
	}
}

// ---- Fig. 6: parallel branches ----------------------------------------------

func BenchmarkFig6ParallelBranches(b *testing.B) {
	const branches = 8
	const delay = 2 * time.Millisecond
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("machines=%d", workers), func(b *testing.B) {
			s := session(b)
			s.Options.TaskDelay = func(flow.NodeID, string) time.Duration { return delay }
			s.Engine.SetWorkers(workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := figures.Branches(s, branches, "netEd.fulladder")
				mustB(b, err)
				_, err = s.Run(f)
				mustB(b, err)
			}
		})
	}
}

// BenchmarkFig6UnbalancedBranches measures the tentpole claim: on
// unbalanced flows the dependency-counting dataflow scheduler beats any
// level-barrier schedule (≥1.3× at 4 workers). A level barrier drains
// each dependency level before the next, so it takes at least the sum
// of the level maxima, depth×slow; the "x-vs-barrier-bound" metric is
// that bound over the measured time per run.
func BenchmarkFig6UnbalancedBranches(b *testing.B) {
	const depth = 6
	const workers = 4
	slow, fast := 8*time.Millisecond, 500*time.Microsecond
	s := session(b)
	s.Engine.SetWorkers(workers)
	var elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f, err := figures.Unbalanced(s, depth, slow, fast)
		mustB(b, err)
		b.StartTimer()
		res, err := s.Run(f)
		mustB(b, err)
		elapsed += res.Elapsed
	}
	b.ReportMetric(float64(time.Duration(depth)*slow)*float64(b.N)/float64(elapsed), "x-vs-barrier-bound")
}

// BenchmarkMemoWarmRerun measures the incremental re-execution claim:
// with the derivation-keyed result cache warm, re-running the Fig. 6
// unbalanced workload (dataflow, 4 workers) serves every unit from
// cache and skips all simulated tool latency. Acceptance: the warm
// sub-benchmark is ≥5× faster than the cold one.
func BenchmarkMemoWarmRerun(b *testing.B) {
	const depth = 6
	const workers = 4
	slow, fast := 8*time.Millisecond, 500*time.Microsecond
	for _, mode := range []string{"cold", "warm"} {
		b.Run("cache="+mode, func(b *testing.B) {
			s := session(b)
			s.Engine.SetWorkers(workers)
			if mode == "warm" {
				s.Options.Memo = memo.New(0)
				// Prime the cache with one full run.
				f, err := figures.Unbalanced(s, depth, slow, fast)
				mustB(b, err)
				_, err = s.Run(f)
				mustB(b, err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f, err := figures.Unbalanced(s, depth, slow, fast)
				mustB(b, err)
				var hits int64
				if mode == "warm" {
					hits = s.Options.Memo.Stats().Hits
				}
				b.StartTimer()
				res, err := s.Run(f)
				mustB(b, err)
				if mode == "warm" {
					if hits = s.Options.Memo.Stats().Hits - hits; hits != int64(res.Finished.Units) {
						b.Fatalf("warm run hit %d/%d units", hits, res.Finished.Units)
					}
				}
			}
		})
	}
}

// BenchmarkTraceOverhead measures what the run-event layer costs on the
// Fig. 6 unbalanced workload of BenchmarkFig6UnbalancedBranches
// (dataflow, 4 workers): untraced, with the constant-memory ring sink,
// and streaming JSONL to io.Discard. The acceptance budget for the
// ring sink is ≤5% over sink=none.
func BenchmarkTraceOverhead(b *testing.B) {
	const depth = 6
	const workers = 4
	slow, fast := 8*time.Millisecond, 500*time.Microsecond
	sinks := []struct {
		name string
		make func() runtrace.Sink
	}{
		{"none", func() runtrace.Sink { return nil }},
		{"ring", func() runtrace.Sink { return runtrace.NewRing(4096) }},
		{"jsonl", func() runtrace.Sink { return runtrace.NewWriter(io.Discard) }},
	}
	for _, sk := range sinks {
		b.Run("sink="+sk.name, func(b *testing.B) {
			s := session(b)
			s.Engine.SetWorkers(workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f, err := figures.Unbalanced(s, depth, slow, fast)
				mustB(b, err)
				s.Options.Tracer = sk.make()
				b.StartTimer()
				_, err = s.Run(f)
				mustB(b, err)
			}
		})
	}
}

// ---- chaos: fault-tolerance overhead ------------------------------------------

// BenchmarkChaosTransientRetries measures what the fault-tolerance
// layer costs: a Fig. 6-style branch flow run clean (retry layer armed
// but idle) vs under full transient injection, where every distinct
// tool site fails twice and is absorbed by full-jitter backoff retries.
func BenchmarkChaosTransientRetries(b *testing.B) {
	const branches = 8
	for _, faulty := range []bool{false, true} {
		name := "clean"
		if faulty {
			name = "transient-faults"
		}
		b.Run(name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Registry.Wrap composes, so a fresh session per
				// iteration keeps exactly one injector in the chain
				// (and resets its per-site attempt counters).
				b.StopTimer()
				s := session(b)
				s.Engine.SetWorkers(4)
				s.Options.Retry = &exec.RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Microsecond, Seed: 1}
				if faulty {
					faults.New(1993, faults.Config{TransientRate: 1, TransientRuns: 2}).Instrument(s.Registry)
				}
				f, err := figures.Branches(s, branches, "netEd.fulladder", "netEd.ripple4")
				mustB(b, err)
				b.StartTimer()
				_, err = s.Run(f)
				mustB(b, err)
			}
		})
	}
}

// ---- Fig. 7: views -----------------------------------------------------------

func BenchmarkFig7Views(b *testing.B) {
	inv := netlist.Inverter()
	for i := 0; i < b.N; i++ {
		x, err := netlist.ToTransistor(inv)
		mustB(b, err)
		l, err := layout.Generate(inv, nil)
		mustB(b, err)
		_ = x
		_ = l
	}
}

// ---- Fig. 8: synthesis + verification -----------------------------------------

func BenchmarkFig8SynthesisVerify(b *testing.B) {
	s := session(b)
	netInst, err := figures.Netlist(s, "netEd.fulladder")
	mustB(b, err)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layInst, err := figures.Synthesis(s, netInst)
		mustB(b, err)
		_, err = figures.Verification(s, layInst, netInst)
		mustB(b, err)
	}
}

// ---- Fig. 9: browser -----------------------------------------------------------

func populatedSession(b *testing.B, edits int) (*hercules.Session, history.ID) {
	b.Helper()
	s := session(b)
	cur, err := figures.Netlist(s, "netEd.fulladder")
	mustB(b, err)
	for i := 0; i < edits; i++ {
		cur, err = figures.Edit(s, s.Must("netEd.retouch"), cur)
		mustB(b, err)
	}
	return s, cur
}

func BenchmarkFig9Browser(b *testing.B) {
	s, _ := populatedSession(b, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Browse(history.Filter{Type: "Netlist", User: "bench"})
	}
}

// ---- Fig. 10: backward chaining -------------------------------------------------

func BenchmarkFig10History(b *testing.B) {
	for _, depth := range []int{16, 128} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			s, tip := populatedSession(b, depth)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.DB.Backchain(tip, -1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- history scaling ------------------------------------------------------------

// BenchmarkHistoryScaling measures the paper's central queries as the
// derivation database grows (the cost that a CAD framework pays for
// replacing version management with derivation meta-data).
func BenchmarkHistoryScaling(b *testing.B) {
	for _, size := range []int{100, 1000} {
		s, tip := populatedSession(b, size)
		b.Run(fmt.Sprintf("browse/instances=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = s.Browse(history.Filter{Type: "Netlist"})
			}
		})
		b.Run(fmt.Sprintf("backchain/instances=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.DB.Backchain(tip, -1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("stale-check/instances=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.DB.OutOfDate(tip); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("pattern-query/instances=%d", size), func(b *testing.B) {
			p := history.Pattern{
				Nodes: []history.PatternNode{
					{Ref: "new", Type: "EditedNetlist"},
					{Ref: "old", Type: "Netlist", Bound: tip},
				},
				Edges: []history.PatternEdge{{Parent: "new", Child: "old", Key: "Netlist"}},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.DB.MatchPattern(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Fig. 11: version tree vs flow trace ------------------------------------------

func BenchmarkFig11VersionTreeVsFlowTrace(b *testing.B) {
	s, tip := populatedSession(b, 64)
	b.Run("version-tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.DB.VersionTree(tip); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("flow-trace", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.DB.FlowTrace(tip); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- consistency maintenance ---------------------------------------------------

func BenchmarkRetrace(b *testing.B) {
	s := session(b)
	perf, err := figures.Simulation(s)
	mustB(b, err)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Make the current target stale with a fresh edit. Each round's
		// retoucher writes its own note, so the edit's bytes differ from
		// its base's: an edit with identical bytes changes nothing, and
		// the target would stay fresh.
		net, err := s.DB.DerivedWith(perf, "Netlist")
		mustB(b, err)
		newest, err := s.DB.NewestVersion(net[0])
		mustB(b, err)
		editor, err := s.Import("NetlistEditor", "noted retoucher", fmt.Sprintf("retouch round %d", i))
		mustB(b, err)
		_, err = figures.Edit(s, editor, newest)
		mustB(b, err)
		b.StartTimer()
		rr, err := s.Retrace(perf)
		mustB(b, err)
		if rr.Fresh {
			b.Fatal("expected stale target")
		}
		perf = rr.NewTarget(perf)
	}
}

// ---- §3.4: the four approaches ----------------------------------------------------

func BenchmarkApproaches(b *testing.B) {
	s := session(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Catalogs.StartFromGoal("Performance"); err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.Catalogs.StartFromTool(s.Must("sim")); err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.Catalogs.StartFromData(s.Must("stim.exhaustive3")); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Catalogs.StartFromPlan("simulate-netlist"); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- baseline comparison ------------------------------------------------------------

func BenchmarkBaselineComparison(b *testing.B) {
	reg := encap.StandardRegistry()
	sch := schema.Full()
	static := &staticflow.Flow{Name: "extract", Steps: []staticflow.Step{
		{Name: "draw", ToolType: "LayoutEditor", Tool: []byte("generate fulladder"),
			Inputs: map[string]string{}, Output: "lay", Produces: "EditedLayout"},
		{Name: "extract", ToolType: "Extractor",
			Inputs: map[string]string{"Layout": "lay"}, Output: "net", Produces: "ExtractedNetlist"},
	}}
	b.Run("static-flow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := staticflow.Start(static, sch, reg, nil)
			mustB(b, e.RunAll())
		}
	})
	b.Run("dynamic-flow", func(b *testing.B) {
		s := session(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := s.NewFlow()
			_, err := figures.Extraction(s, f)
			mustB(b, err)
			_, err = s.Run(f)
			mustB(b, err)
		}
	})
	b.Run("trace-replay", func(b *testing.B) {
		s := session(b)
		f := s.NewFlow()
		x, err := figures.Extraction(s, f)
		mustB(b, err)
		res, err := s.Run(f)
		mustB(b, err)
		target, err := res.One(x.Netlist)
		mustB(b, err)
		tr, err := trace.Capture(s.DB, target)
		mustB(b, err)
		tools := map[string][]byte{}
		for _, ev := range tr.Events {
			if ev.ToolType == "" {
				continue
			}
			if in := s.DB.Get(history.ID(ev.Tool)); in != nil && in.Data != "" {
				if bts, ok := s.Store.Get(in.Data); ok {
					tools[string(ev.Tool)] = bts
				}
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tr.Replay(s.Schema, s.Registry, nil, tools); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- ablations -----------------------------------------------------------------------

// BenchmarkAblationGoalOnlyExpansion compares constructing the Fig. 5
// structure with the full operation set (reuse via Connect, upward
// expansion) against the paper's older goal-only task trees [7], which
// must duplicate shared entities: the tree variant builds more nodes and
// later runs more tasks.
func BenchmarkAblationGoalOnlyExpansion(b *testing.B) {
	s := schema.Full()
	b.Run("dynamic-dag", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := flow.New(s, nil)
			net := f.MustAdd("ExtractedNetlist")
			mustB(b, f.ExpandDown(net, false))
			extrN, _ := f.Node(net).Dep("fd")
			layN, _ := f.Node(net).Dep("Layout")
			stats := f.MustAdd("ExtractionStatistics")
			mustB(b, f.Connect(stats, "fd", extrN))
			mustB(b, f.Connect(stats, "Layout", layN))
			ver, err := f.ExpandUp(net, "Verification", "Netlist/subject")
			mustB(b, err)
			mustB(b, f.Connect(ver, "Netlist/reference", net))
			mustB(b, f.ExpandDown(ver, false))
			if f.Len() >= 9 {
				b.Fatalf("DAG should share nodes; len=%d", f.Len())
			}
		}
	})
	b.Run("goal-only-trees", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Task trees: one tree per goal, no sharing — every goal
			// re-expands its whole support.
			total := 0
			for _, goal := range []string{"ExtractedNetlist", "ExtractionStatistics", "Verification"} {
				f := flow.New(s, nil)
				g := f.MustAdd(goal)
				mustB(b, f.ExpandDown(g, false))
				if goal == "Verification" {
					for _, key := range []string{"Netlist/reference", "Netlist/subject"} {
						c, _ := f.Node(g).Dep(key)
						mustB(b, f.Specialize(c, "ExtractedNetlist"))
						mustB(b, f.ExpandDown(c, false))
					}
				}
				total += f.Len()
			}
			if total <= 9 {
				b.Fatalf("trees should duplicate; total=%d", total)
			}
		}
	})
}

// BenchmarkAblationVersioning compares answering "what versions exist?"
// from derivation meta-data (the paper's approach: zero extra storage)
// against maintaining a separate version index updated on every edit.
func BenchmarkAblationVersioning(b *testing.B) {
	s, tip := populatedSession(b, 64)
	b.Run("derived-from-history", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.DB.VersionsOf(tip); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("explicit-index", func(b *testing.B) {
		// The alternative design: a separate parent->children index kept
		// alongside the database. Query is O(1) per node but the index
		// must be maintained and can drift; we measure its build cost
		// per lookup batch for honesty.
		for i := 0; i < b.N; i++ {
			index := make(map[history.ID][]history.ID)
			for _, in := range s.DB.All() {
				for _, x := range in.Inputs {
					index[x.Inst] = append(index[x.Inst], in.ID)
				}
			}
			_ = index[tip]
		}
	})
}

// BenchmarkAblationSharedTasks measures multi-output task sharing
// (Fig. 5): with sharing, the netlist and statistics cost one extraction;
// without (separate constructions), two.
func BenchmarkAblationSharedTasks(b *testing.B) {
	b.Run("shared", func(b *testing.B) {
		s := session(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := s.NewFlow()
			x, err := figures.Extraction(s, f)
			mustB(b, err)
			stats := f.MustAdd("ExtractionStatistics")
			mustB(b, f.Connect(stats, "fd", x.Extractor))
			mustB(b, f.Connect(stats, "Layout", x.Layout))
			res, err := s.Run(f)
			mustB(b, err)
			if res.TasksRun != 2 {
				b.Fatalf("TasksRun = %d, want 2", res.TasksRun)
			}
		}
	})
	b.Run("duplicated", func(b *testing.B) {
		s := session(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := s.NewFlow()
			lay := f.MustAdd("EditedLayout")
			mustB(b, f.ExpandDown(lay, false))
			ltn, _ := f.Node(lay).Dep("fd")
			mustB(b, f.Bind(ltn, s.Must("layEd.fulladder")))
			net := f.MustAdd("ExtractedNetlist")
			mustB(b, f.Connect(net, "Layout", lay))
			mustB(b, f.ExpandDown(net, false))
			extr1, _ := f.Node(net).Dep("fd")
			stats := f.MustAdd("ExtractionStatistics")
			mustB(b, f.Connect(stats, "Layout", lay))
			mustB(b, f.ExpandDown(stats, false))
			extr2, _ := f.Node(stats).Dep("fd")
			mustB(b, f.Bind(extr1, s.Must("extractor")))
			mustB(b, f.Bind(extr2, s.Must("extractor")))
			res, err := s.Run(f)
			mustB(b, err)
			if res.TasksRun != 3 {
				b.Fatalf("TasksRun = %d, want 3 (duplicated extraction)", res.TasksRun)
			}
		}
	})
}
