package exec

import (
	"fmt"
	"time"

	"repro/internal/datastore"
	"repro/internal/encap"
	"repro/internal/flow"
	"repro/internal/history"
	"repro/internal/memo"
)

// This file is the planning half of the engine: it turns a validated
// flow into a job graph whose outcome — the sequence of instance IDs
// committed to history — is fully determined before a single tool runs.
//
// History IDs are "Type:seq" with one global counter, so commit order
// determines IDs. The planner walks jobs in topological order, simulates
// the counter (starting from db.Seq()) and pre-assigns every output ID.
// Execution may then finish in any order: workers hand artifacts to
// dependents through an in-memory pending set keyed by planned ID, and
// the committer records jobs strictly in plan order, so the database
// ends up byte-identical to what the old level-barrier engine produced.

// plannedJob is one group of nodes computed by a shared sequence of tool
// runs, plus its scheduling state. A plan is used by exactly one run, so
// the mutable scheduler fields live here.
type plannedJob struct {
	idx       int           // position in plan.jobs == commit order
	nodes     []flow.NodeID // group members, representative first
	repType   string        // representative node's type (stats, delay keying)
	composite bool
	level     int // dependency level of the representative node
	// combos are the input combinations to execute, each a concrete
	// assignment of instances to dependency keys (plus "fd").
	combos []map[string]history.ID
	// outIDs[ci][ni] is the pre-assigned instance ID of nodes[ni] under
	// combos[ci].
	outIDs [][]history.ID
	// deps / dependents are edges of the job graph (indices into
	// plan.jobs). Dataflow mode: distinct producer jobs of the group's
	// inputs. Barrier mode: every job of the previous nonempty level.
	deps       []int
	dependents []int

	// Scheduler state (owned by the coordinator goroutine). The
	// committer reads a job's outcome — done, skipped, outputs, memo
	// keys, unit observations — only after advance has handed the job
	// over, and from then on the coordinator no longer changes it.
	pending   int // unfinished dependency jobs
	remaining int // unfinished combos
	done      bool
	failed    bool
	resumed   bool // restored from a recovered WAL, not executed (durable.go)
	skipped   bool // never dispatched: a producer failed (ContinueOnError)
	blame     int  // root-cause job index when skipped
	outputs   []encap.Outputs
	dur       time.Duration // longest single combo, for the critical path
	// Memoization state (allocated by execute only when a result cache
	// is installed): per-combo derivation keys, computed at ready time
	// and used by the commit-time publish, and per-combo hit marks.
	memoKeys []memo.Key
	cacheHit []bool
	// outRefs[ci] maps each grouped node's type to the content address
	// recordJob stored its artifact under — captured at commit so
	// memoPublish reuses the refs instead of re-hashing every output.
	outRefs []map[string]datastore.Ref

	// Per-unit observations buffered for deterministic trace emission
	// (allocated by newRunTracer only when a sink is installed).
	unitWait []time.Duration
	unitDur  []time.Duration
	unitLog  [][]attemptRec
}

// plan is the complete, deterministic execution plan of one run.
type plan struct {
	jobs  []*plannedJob
	bound map[flow.NodeID][]history.ID // needed nodes satisfied by bindings
	units int                          // total (job, combo) executions
}

// reachable returns the nodes needed to compute the targets, failing on
// a dependency edge that references a node no longer in the flow. Such
// dangling edges cannot be produced by the flow operations and are
// caught by Validate, but a hand-assembled graph must yield an error
// here, never a panic.
func reachable(f *flow.Flow, targets []flow.NodeID) (map[flow.NodeID]bool, error) {
	out := make(map[flow.NodeID]bool)
	var visit func(id flow.NodeID) error
	visit = func(id flow.NodeID) error {
		if out[id] {
			return nil
		}
		n := f.Node(id)
		if n == nil {
			return fmt.Errorf("exec: dangling dependency: node %d is not in the flow", id)
		}
		out[id] = true
		if n.IsBound() {
			return nil // bound nodes stand in for their subtree
		}
		for _, k := range n.DepKeys() {
			c, _ := n.Dep(k)
			if f.Node(c) == nil {
				return fmt.Errorf("exec: node %d (%s): dependency %q is a dangling reference to removed node %d",
					id, n.Type, k, c)
			}
			if err := visit(c); err != nil {
				return err
			}
		}
		return nil
	}
	for _, t := range targets {
		if err := visit(t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// plan builds the job graph for the targets: grouping (pass 1), combo
// enumeration and ID pre-assignment in commit order (pass 2), and job
// dependency edges for the run's scheduling mode (pass 3).
func (r *run) plan(targets []flow.NodeID) (*plan, error) {
	f := r.f
	needed, err := reachable(f, targets)
	if err != nil {
		return nil, err
	}
	order, err := f.Order()
	if err != nil {
		return nil, err
	}
	// Dependency level of each node, computed in one pass over the
	// already-obtained order (calling f.Levels would re-run the
	// topological sort — measurable at generator scale). Node IDs are
	// dense, so a flat slice replaces the map.
	maxID := flow.NodeID(0)
	for _, id := range order {
		if id > maxID {
			maxID = id
		}
	}
	levelOf := make([]int32, maxID+1)
	for _, id := range order {
		n := f.Node(id)
		var l int32
		for _, k := range n.DepKeys() {
			c, _ := n.Dep(k)
			if levelOf[c]+1 > l {
				l = levelOf[c] + 1
			}
		}
		levelOf[id] = l
	}

	// Pass 1: walk nodes in topological order, grouping shared
	// constructions into jobs (Fig. 5 multi-output tasks). Composites
	// never group. Bound nodes contribute their instances directly.
	p := &plan{bound: make(map[flow.NodeID][]history.ID)}
	grouped := make(map[string]*plannedJob)
	producer := make(map[flow.NodeID]*plannedJob)
	for _, id := range order {
		if !needed[id] {
			continue
		}
		n := f.Node(id)
		if n.IsBound() {
			p.bound[id] = n.Bound()
			continue
		}
		t := r.cfg.schema.Type(n.Type)
		if t.IsPrimitiveSource() {
			return nil, fmt.Errorf("exec: node %d (%s) is an unbound primitive source", id, n.Type)
		}
		sig := taskSignature(f, id)
		if j, ok := grouped[sig]; ok && !t.Composite {
			j.nodes = append(j.nodes, id)
			producer[id] = j
			continue
		}
		j := &plannedJob{idx: len(p.jobs), nodes: []flow.NodeID{id},
			repType: n.Type, composite: t.Composite, level: int(levelOf[id])}
		if !t.Composite {
			grouped[sig] = j
		}
		producer[id] = j
		p.jobs = append(p.jobs, j)
	}

	// Pass 2: enumerate combos and pre-assign output IDs in commit order.
	// Valid in job order because every producer of a job's inputs appears
	// earlier in p.jobs (grouped siblings share the full dependency set).
	created := make(map[flow.NodeID][]history.ID, len(order))
	for id, insts := range p.bound {
		created[id] = insts
	}
	vseq := r.cfg.db.Seq()
	for _, j := range p.jobs {
		combos, err := r.combosFor(j.nodes[0], created)
		if err != nil {
			return nil, err
		}
		j.combos = combos
		j.outputs = make([]encap.Outputs, len(combos))
		j.outIDs = make([][]history.ID, len(combos))
		for ci := range combos {
			j.outIDs[ci] = make([]history.ID, len(j.nodes))
			for ni, nid := range j.nodes {
				vseq++
				j.outIDs[ci][ni] = history.MakeID(f.Node(nid).Type, vseq)
			}
		}
		for ni, nid := range j.nodes {
			ids := make([]history.ID, len(combos))
			for ci := range combos {
				ids[ci] = j.outIDs[ci][ni]
			}
			created[nid] = ids
		}
		p.units += len(combos)
	}

	// Pass 3: job dependency edges.
	switch r.cfg.sched {
	case Barrier:
		// Baseline: every job waits on every job of the previous
		// nonempty level — the old stratum-drain discipline, expressed
		// as edges so both modes share one scheduler (and one commit
		// order, hence identical IDs).
		byLevel := make(map[int][]int)
		var lvls []int
		for _, j := range p.jobs {
			if _, ok := byLevel[j.level]; !ok {
				lvls = append(lvls, j.level)
			}
			byLevel[j.level] = append(byLevel[j.level], j.idx)
		}
		// p.jobs is in topological order, so lvls is ascending.
		for i := 1; i < len(lvls); i++ {
			for _, ji := range byLevel[lvls[i]] {
				p.jobs[ji].deps = append(p.jobs[ji].deps, byLevel[lvls[i-1]]...)
			}
		}
	default:
		// Dataflow: a job depends exactly on the jobs producing its
		// inputs. Bound inputs contribute no edge.
		for _, j := range p.jobs {
			rep := f.Node(j.nodes[0])
			seen := make(map[int]bool)
			for _, k := range rep.DepKeys() {
				c, _ := rep.Dep(k)
				pj, ok := producer[c]
				if !ok || seen[pj.idx] {
					continue
				}
				seen[pj.idx] = true
				j.deps = append(j.deps, pj.idx)
			}
		}
	}
	for _, j := range p.jobs {
		for _, d := range j.deps {
			p.jobs[d].dependents = append(p.jobs[d].dependents, j.idx)
		}
	}
	return p, nil
}

// combosFor enumerates the input combinations of a node: the cartesian
// product of its dependencies' instance lists, in deterministic order,
// capped at the run's combo limit.
func (r *run) combosFor(id flow.NodeID, created map[flow.NodeID][]history.ID) ([]map[string]history.ID, error) {
	n := r.f.Node(id)
	keys := n.DepKeys()
	combos := []map[string]history.ID{{}}
	for _, k := range keys {
		c, _ := n.Dep(k)
		insts := created[c]
		if len(insts) == 0 {
			return nil, fmt.Errorf("exec: node %d dependency %q (node %d) produced no instances", id, k, c)
		}
		if len(combos)*len(insts) > r.cfg.maxCombos {
			return nil, fmt.Errorf("exec: node %d (%s): input fan-out exceeds %d combinations (cartesian product over multi-instance bindings); raise Engine.SetMaxCombos if intended",
				id, n.Type, r.cfg.maxCombos)
		}
		next := make([]map[string]history.ID, 0, len(combos)*len(insts))
		for _, combo := range combos {
			for _, inst := range insts {
				cp := make(map[string]history.ID, len(combo)+1)
				for kk, vv := range combo {
					cp[kk] = vv
				}
				cp[k] = inst
				next = append(next, cp)
			}
		}
		combos = next
	}
	return combos, nil
}
