package exec

import (
	"fmt"
	"slices"
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
// dependents through an in-memory pending set indexed by planned
// sequence number, and the committer records jobs strictly in plan
// order, so the database ends up byte-identical to a one-worker run's.

// plannedJob is one group of nodes computed by a shared sequence of tool
// runs, plus its scheduling state. A plan is used by exactly one run, so
// the mutable scheduling fields live here.
type plannedJob struct {
	idx       int           // position in plan.jobs == commit order
	nodes     []flow.NodeID // group members, representative first
	repType   string        // representative node's type (events, delay keying)
	composite bool
	// keys are the representative's dependency keys in DepKeys order
	// ("fd" first when the job runs a tool); grouped siblings fill the
	// same keys. combos are the input combinations to execute: combos[ci]
	// assigns instance combos[ci][i] to keys[i]. All of a job's combos
	// share one backing array.
	keys   []string
	combos [][]history.ID
	// outIDs[ni][ci] is the pre-assigned instance ID of nodes[ni] under
	// combos[ci]; row ni is also the instance list nodes[ni] feeds to
	// the jobs that depend on it.
	outIDs [][]history.ID
	unit   int // global index of combo 0's unit, in plan order
	// deps / dependents are edges of the job graph (indices into
	// plan.jobs): deps are the distinct producer jobs of the group's
	// inputs.
	deps       []int
	dependents []int

	// Scheduling state (owned by the coordinator goroutine). The
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
	// digests[ci] is the chain head after combo ci's records, or on a
	// restored unit the logged head its commit must reproduce.
	digests []string
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
	// The planned instances take sequence numbers base+1 through
	// base+planned, in commit order.
	base, planned int
}

// criticalPath returns the longest dependency chain of measured job
// durations and the number of jobs on it: no schedule on any worker
// count beats it. It is a DP over the job graph, valid because plan
// order is topological; of two chains into a job that measure the
// same, it follows the one with more jobs.
func (p *plan) criticalPath() (time.Duration, int) {
	cp := make([]time.Duration, len(p.jobs))
	cpJobs := make([]int, len(p.jobs))
	var path time.Duration
	var pathJobs int
	for i, j := range p.jobs {
		var best time.Duration
		var bestJobs int
		for _, d := range j.deps {
			if cp[d] > best || (cp[d] == best && cpJobs[d] > bestJobs) {
				best, bestJobs = cp[d], cpJobs[d]
			}
		}
		cp[i] = best + j.dur
		cpJobs[i] = bestJobs + 1
		if cp[i] > path {
			path, pathJobs = cp[i], cpJobs[i]
		}
	}
	return path, pathJobs
}

// reachable returns the nodes needed to compute the targets, as a set
// indexed by node ID, failing on a dependency edge that references a
// node no longer in the flow. Such dangling edges cannot be produced by
// the flow operations and are caught by Validate, but a hand-assembled
// graph must yield an error here, never a panic.
func reachable(f *flow.Flow, targets []flow.NodeID) ([]bool, error) {
	out := make([]bool, f.MaxID()+1)
	var visit func(id flow.NodeID) error
	visit = func(id flow.NodeID) error {
		n := f.Node(id)
		if n == nil {
			return fmt.Errorf("exec: dangling dependency: node %d is not in the flow", id)
		}
		if out[id] {
			return nil
		}
		out[id] = true
		if n.IsBound() {
			return nil // bound nodes stand in for their subtree
		}
		for i, c := range n.Children() {
			if f.Node(c) == nil {
				return fmt.Errorf("exec: node %d (%s): dependency %q is a dangling reference to removed node %d",
					id, n.Type, n.DepKeys()[i], c)
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
// dependency edges (pass 3). order is the flow's execution order as
// validation (flow.Check) computed it, so the graph is sorted once per
// run.
func (r *run) plan(order []flow.NodeID, targets []flow.NodeID) (*plan, error) {
	f := r.f
	// Every per-node table below is a flat slice indexed by node ID.
	size := f.MaxID() + 1
	needed, err := reachable(f, targets)
	if err != nil {
		return nil, err
	}

	// Pass 1: walk nodes in topological order, grouping shared
	// constructions into jobs (Fig. 5 multi-output tasks): siblings that
	// fill the same keys with the same children, the tool child among
	// them, form one job. Composites never group. Bound nodes contribute
	// their instances directly.
	p := &plan{bound: make(map[flow.NodeID][]history.ID)}
	created := make([][]history.ID, size)
	producer := make([]*plannedJob, size)
	// Earlier non-composite jobs, keyed by the hash of their
	// representative's inputs. A job whose key is taken by one with
	// other inputs (a hash collision) takes the next free key, so a
	// search from a node's hash up to the first free key meets every
	// job the node could join; sameInputs confirms each.
	groups := make(map[uint64]*plannedJob)
	for _, id := range order {
		if !needed[id] {
			continue
		}
		n := f.Node(id)
		if n.IsBound() {
			insts := n.Bound()
			p.bound[id] = insts
			created[id] = insts
			continue
		}
		t := r.cfg.schema.Type(n.Type)
		if t.IsPrimitiveSource() {
			return nil, fmt.Errorf("exec: node %d (%s) is an unbound primitive source", id, n.Type)
		}
		var h uint64
		var sib *plannedJob
		if !t.Composite {
			for h = inputsHash(n); groups[h] != nil; h++ {
				if c := groups[h]; sameInputs(f.Node(c.nodes[0]), n) {
					sib = c
					break
				}
			}
		}
		if sib != nil {
			sib.nodes = append(sib.nodes, id)
			producer[id] = sib
			continue
		}
		j := &plannedJob{idx: len(p.jobs), nodes: []flow.NodeID{id}, keys: n.DepKeys(),
			repType: n.Type, composite: t.Composite}
		if !t.Composite {
			groups[h] = j // the free key the search stopped at
		}
		producer[id] = j
		p.jobs = append(p.jobs, j)
	}

	// Pass 2: enumerate combos and pre-assign output IDs in commit order.
	// Valid in job order because every producer of a job's inputs appears
	// earlier in p.jobs (grouped siblings share the full dependency set).
	p.base = r.cfg.db.Seq()
	vseq := p.base
	for _, j := range p.jobs {
		combos, err := r.combosFor(j.nodes[0], created)
		if err != nil {
			return nil, err
		}
		j.combos = combos
		j.unit = p.units
		j.outputs = make([]encap.Outputs, len(combos))
		j.outIDs = make([][]history.ID, len(j.nodes))
		for ni, nid := range j.nodes {
			j.outIDs[ni] = make([]history.ID, len(combos))
			created[nid] = j.outIDs[ni]
		}
		for ci := range combos {
			for ni, nid := range j.nodes {
				vseq++
				j.outIDs[ni][ci] = history.MakeID(f.Node(nid).Type, vseq)
			}
		}
		p.units += len(combos)
	}
	p.planned = vseq - p.base

	// Pass 3: job dependency edges. A job depends exactly on the jobs
	// producing its inputs; bound inputs contribute no edge. A job has a
	// handful of inputs, so duplicates are found by scanning its deps.
	for _, j := range p.jobs {
		children := f.Node(j.nodes[0]).Children()
		j.deps = make([]int, 0, len(children))
		for _, c := range children {
			pj := producer[c]
			if pj == nil || slices.Contains(j.deps, pj.idx) {
				continue
			}
			j.deps = append(j.deps, pj.idx)
		}
	}
	for _, j := range p.jobs {
		for _, d := range j.deps {
			p.jobs[d].dependents = append(p.jobs[d].dependents, j.idx)
		}
	}
	return p, nil
}

// inputsHash hashes a node's dependency keys and the children filling
// them (FNV-1a), so nodes sameInputs matches hash alike.
func inputsHash(n *flow.Node) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	children := n.Children()
	for i, k := range n.DepKeys() {
		for b := 0; b < len(k); b++ {
			h = (h ^ uint64(k[b])) * prime
		}
		h = (h ^ uint64(children[i])) * prime
	}
	return h
}

// sameInputs reports whether two nodes fill the same dependency keys
// (the tool's "fd" among them) with the same children: one shared
// construction.
func sameInputs(a, b *flow.Node) bool {
	return slices.Equal(a.DepKeys(), b.DepKeys()) && slices.Equal(a.Children(), b.Children())
}

// combosFor enumerates the input combinations of a node: the cartesian
// product of its dependencies' instance lists (created, indexed by node
// ID), in deterministic order, capped at the run's combo limit. Each
// combo is aligned with the node's DepKeys, and all of them are cut
// from one allocation.
func (r *run) combosFor(id flow.NodeID, created [][]history.ID) ([][]history.ID, error) {
	n := r.f.Node(id)
	keys, children := n.DepKeys(), n.Children()
	total := 1
	for i, c := range children {
		insts := created[c]
		if len(insts) == 0 {
			return nil, fmt.Errorf("exec: node %d dependency %q (node %d) produced no instances", id, keys[i], c)
		}
		if total*len(insts) > r.cfg.maxCombos {
			return nil, fmt.Errorf("exec: node %d (%s): input fan-out exceeds %d combinations (cartesian product over multi-instance bindings); raise RunOptions.MaxCombos if intended",
				id, n.Type, r.cfg.maxCombos)
		}
		total *= len(insts)
	}
	// Combo i reads i as a mixed-radix number over the keys' instance
	// counts, first key most significant: the last key varies fastest.
	w := len(children)
	flat := make([]history.ID, total*w)
	combos := make([][]history.ID, total)
	for i := range combos {
		combo := flat[i*w : (i+1)*w : (i+1)*w]
		rem := i
		for ki := w - 1; ki >= 0; ki-- {
			insts := created[children[ki]]
			combo[ki] = insts[rem%len(insts)]
			rem /= len(insts)
		}
		combos[i] = combo
	}
	return combos, nil
}
