package exec

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/datastore"
	"repro/internal/flow"
	"repro/internal/flowgen"
	"repro/internal/history"
	"repro/internal/schema"
)

// planSchema has one tool type, one imported data type, two task
// outputs built by the same tool from the same input kind, and a
// composite over that input.
const planSchema = `
tool T
data Src
data A
  fd T
  dd Src
data B
  fd T
  dd Src
composite Pair
  dd Src
`

// TestPlanGrouping pins how the planner turns siblings into jobs: two
// nodes share one job exactly when they have the same tool child and
// fill the same keys with the same children, and composites never
// share. Each case lists its jobs in commit order, every job as its
// nodes in order with their planned instance IDs. The rig imports two
// tools and two sources (Seq 4), so planned IDs start at 5.
func TestPlanGrouping(t *testing.T) {
	type edge struct{ parent, key, child string }
	cases := []struct {
		name  string
		nodes []string // name:type, in creation order
		edges []edge
		want  [][]string // per job: "node=ID"
	}{
		{
			name:  "same tool node and inputs: one job",
			nodes: []string{"a:A", "b:B"},
			edges: []edge{{"a", "fd", "t1"}, {"a", "Src", "s1"}, {"b", "fd", "t1"}, {"b", "Src", "s1"}},
			want:  [][]string{{"a=A:5", "b=B:6"}},
		},
		{
			name:  "same tool node, one different input: two jobs",
			nodes: []string{"a:A", "b:B"},
			edges: []edge{{"a", "fd", "t1"}, {"a", "Src", "s1"}, {"b", "fd", "t1"}, {"b", "Src", "s2"}},
			want:  [][]string{{"a=A:5"}, {"b=B:6"}},
		},
		{
			name:  "same inputs, different tool nodes: two jobs",
			nodes: []string{"a:A", "b:B"},
			edges: []edge{{"a", "fd", "t1"}, {"a", "Src", "s1"}, {"b", "fd", "t2"}, {"b", "Src", "s1"}},
			want:  [][]string{{"a=A:5"}, {"b=B:6"}},
		},
		{
			name:  "later siblings join the matching candidate",
			nodes: []string{"a:A", "b:B", "c:A"},
			edges: []edge{{"a", "fd", "t1"}, {"a", "Src", "s1"}, {"b", "fd", "t1"}, {"b", "Src", "s2"},
				{"c", "fd", "t1"}, {"c", "Src", "s2"}},
			want: [][]string{{"a=A:5"}, {"b=B:6", "c=A:7"}},
		},
		{
			name:  "composites never group",
			nodes: []string{"p:Pair", "q:Pair"},
			edges: []edge{{"p", "Src", "s1"}, {"q", "Src", "s1"}},
			want:  [][]string{{"p=Pair:5"}, {"q=Pair:6"}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := schema.MustParseString(planSchema)
			db := history.NewDB(s)
			e := New(s, db, datastore.NewStore(), nil)
			f := flow.New(s, db)
			ids := make(map[string]flow.NodeID)
			names := make(map[flow.NodeID]string)
			add := func(name, typ string) flow.NodeID {
				id := f.MustAdd(typ)
				ids[name], names[id] = id, name
				return id
			}
			bind := func(name, typ string) {
				inst, err := db.Record(history.Instance{Type: typ, Name: name, User: "rig"})
				if err != nil {
					t.Fatal(err)
				}
				if err := f.Bind(add(name, typ), inst.ID); err != nil {
					t.Fatal(err)
				}
			}
			bind("t1", "T")
			bind("t2", "T")
			bind("s1", "Src")
			bind("s2", "Src")
			for _, nt := range tc.nodes {
				name, typ, _ := strings.Cut(nt, ":")
				add(name, typ)
			}
			for _, ed := range tc.edges {
				if err := f.Connect(ids[ed.parent], ed.key, ids[ed.child]); err != nil {
					t.Fatal(err)
				}
			}
			order, err := f.Check()
			if err != nil {
				t.Fatal(err)
			}
			r := &run{e: e, cfg: e.defaults, f: f}
			p, err := r.plan(order, f.Roots())
			if err != nil {
				t.Fatal(err)
			}
			var got [][]string
			for _, j := range p.jobs {
				var members []string
				for ni, nid := range j.nodes {
					members = append(members, fmt.Sprintf("%s=%s", names[nid], j.outIDs[ni][0]))
				}
				got = append(got, members)
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("jobs = %v, want %v", got, tc.want)
			}
		})
	}
}

// oneToolFlow builds a flow of tasks that all run on one tool node,
// alternately of type A and B, every per consecutive tasks reading one
// source of their own: siblings group per source, so the plan has
// tasks/per jobs however many tasks share the tool.
func oneToolFlow(tb testing.TB, tasks, per int) (*Engine, *flow.Flow) {
	s := schema.MustParseString(planSchema)
	db := history.NewDB(s)
	f := flow.New(s, db)
	bind := func(typ, name string) flow.NodeID {
		inst, err := db.Record(history.Instance{Type: typ, Name: name, User: "rig"})
		if err != nil {
			tb.Fatal(err)
		}
		id := f.MustAdd(typ)
		if err := f.Bind(id, inst.ID); err != nil {
			tb.Fatal(err)
		}
		return id
	}
	tool := bind("T", "t")
	var src flow.NodeID
	for i := 0; i < tasks; i++ {
		if i%per == 0 {
			src = bind("Src", fmt.Sprintf("s%d", i/per))
		}
		id := f.MustAdd([]string{"A", "B"}[i%2])
		if err := f.Connect(id, "fd", tool); err != nil {
			tb.Fatal(err)
		}
		if err := f.Connect(id, "Src", src); err != nil {
			tb.Fatal(err)
		}
	}
	return New(s, db, datastore.NewStore(), nil), f
}

// TestPlanOneToolManySiblings groups 4,000 tasks on one tool node into
// 2,000 A+B pairs, one per source: each job holds its pair in creation
// order, with consecutive planned IDs after the 2,001 bound instances.
func TestPlanOneToolManySiblings(t *testing.T) {
	e, f := oneToolFlow(t, 4000, 2)
	order, err := f.Check()
	if err != nil {
		t.Fatal(err)
	}
	r := &run{e: e, cfg: e.defaults, f: f}
	p, err := r.plan(order, f.Roots())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.jobs) != 2000 {
		t.Fatalf("%d jobs, want 2000", len(p.jobs))
	}
	for k, j := range p.jobs {
		a := flow.NodeID(3*k + 3) // tool 1, then source, A, B per pair
		if len(j.nodes) != 2 || j.nodes[0] != a || j.nodes[1] != a+1 {
			t.Fatalf("job %d holds nodes %v, want [%d %d]", k, j.nodes, a, a+1)
		}
		wantA, wantB := history.MakeID("A", 2002+2*k), history.MakeID("B", 2003+2*k)
		if j.outIDs[0][0] != wantA || j.outIDs[1][0] != wantB {
			t.Fatalf("job %d planned %s %s, want %s %s", k, j.outIDs[0][0], j.outIDs[1][0], wantA, wantB)
		}
	}
}

// BenchmarkPlanOneTool plans 5,000 tasks that share one tool node, each
// reading its own source, so no two group. Finding a node's grouping
// candidates costs O(1) however many jobs already run on its tool.
func BenchmarkPlanOneTool(b *testing.B) {
	e, f := oneToolFlow(b, 5000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if jobs, _, err := e.DryPlan(f); err != nil || jobs != 5000 {
			b.Fatalf("DryPlan = %d jobs, %v; want 5000 jobs", jobs, err)
		}
	}
}

// TestDryPlanAllocs ratchets the planner's allocations on a generated
// 2,000-cell layered world: validation, the executability check and
// the plan together. With map-keyed tables and string signatures the
// planner made 68,868 allocations here; over node-indexed slices,
// 27,693; with combos cut from one allocation per job and no per-node
// table, 25,692; with each planned ID built in one allocation, 23,692,
// and the bound leaves about 5% for toolchain drift.
func TestDryPlanAllocs(t *testing.T) {
	b, err := flowgen.Build(flowgen.Spec{Cells: 2000, Shape: flowgen.Layered, Seed: 1993})
	if err != nil {
		t.Fatal(err)
	}
	e := New(b.Schema, b.DB, b.Store, b.Reg)
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := e.DryPlan(b.Flow); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 24_900 {
		t.Fatalf("DryPlan made %.0f allocations, want at most 24,900", allocs)
	}
}

// TestRunFlowAllocs ratchets the allocations of executing a generated
// 2,000-cell layered world: a bare run on four workers, so the count
// covers planning, dispatch, the pending set, the history commit and
// its derivation-graph feed. Worlds are built before the measurement,
// one per run. With the history DB, a provenance index observing it and
// the pending set keyed by ID strings the run made 69,445 allocations
// here; with them addressed by sequence number and IDs, refs and
// dependency keys built without intermediate strings, 55,779; with the
// index and the DB's forward lists merged into the DB's own graph,
// 55,758, and the bound leaves about 5% for toolchain drift.
func TestRunFlowAllocs(t *testing.T) {
	const runs = 5
	engines := make([]*Engine, runs+1) // AllocsPerRun adds a warm-up run
	flows := make([]*flow.Flow, runs+1)
	for i := range engines {
		b, err := flowgen.Build(flowgen.Spec{Cells: 2000, Shape: flowgen.Layered, Seed: 1993})
		if err != nil {
			t.Fatal(err)
		}
		e := New(b.Schema, b.DB, b.Store, b.Reg)
		e.SetWorkers(4)
		t.Cleanup(func() {
			if err := e.Close(); err != nil {
				t.Error(err)
			}
		})
		engines[i], flows[i] = e, b.Flow
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		e, f := engines[next], flows[next]
		next++
		if _, err := e.RunFlow(f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 58_500 {
		t.Fatalf("RunFlow made %.0f allocations, want at most 58,500", allocs)
	}
}
