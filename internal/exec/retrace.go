package exec

import (
	"context"
	"errors"
	"time"

	"repro/internal/flow"
	"repro/internal/history"
	"repro/internal/schema"
)

// This file implements automatic retracing (§3.3): when derived design
// data is out of date with respect to the data it was derived from, the
// recorded derivation history is enough to re-run the affected
// constructions with superseded inputs replaced by their newest
// versions. No flow needs to be kept around — the history *is* the flow
// trace: a retrace turns the history's RetracePlan back into a flow and
// runs it like any other.

// RetraceResult reports one retrace run. On error it is still
// returned: Rebuilt holds the constructions re-run before the failure
// and Elapsed the time spent, so diagnostics can report what did run.
type RetraceResult struct {
	// Plan is the analysis that drove the run.
	Plan *history.RetracePlan
	// Rebuilt maps each re-run construction's old instance to its new
	// one.
	Rebuilt map[history.ID]history.ID
	// Fresh is true when nothing needed to be done.
	Fresh bool
	// Elapsed is the wall-clock duration of the retrace.
	Elapsed time.Duration
}

// NewTarget returns the instance that now replaces the retrace target.
func (r *RetraceResult) NewTarget(target history.ID) history.ID {
	if n, ok := r.Rebuilt[target]; ok {
		return n
	}
	return target
}

// Retrace brings the named instance up to date: it plans the retrace
// from the history database and re-executes each stale construction
// with substituted inputs, recording the new instances.
func (e *Engine) Retrace(target history.ID) (*RetraceResult, error) {
	return e.RetraceOptions(context.Background(), target, nil)
}

// RetraceOptions is Retrace under a context with the run's options. A
// retrace is a run: inside the run's commit window on its history
// database it plans the retrace, builds a flow with one node per step
// (retraceFlow) and executes it through the planner, the scheduler and
// the in-order committer. The retry policy, timeouts, the failure
// policy, cancellation, the worker pool, the result cache and the
// tracer apply to it as to any run. Each rebuilt instance keeps its old
// instance's name and is annotated "retrace of <old>".
func (e *Engine) RetraceOptions(ctx context.Context, target history.ID, opts *RunOptions) (*RetraceResult, error) {
	rr := &RetraceResult{Rebuilt: make(map[history.ID]history.ID)}
	var (
		db    *history.DB
		nodes []flow.NodeID // nodes[i] rebuilds rr.Plan.Steps[i]
	)
	res, err := e.runTargets(ctx, opts, func(r *run) (*flow.Flow, []flow.NodeID, error) {
		db = r.cfg.db
		plan, err := db.PlanRetrace(target)
		if err != nil {
			return nil, nil, err
		}
		rr.Plan, rr.Fresh = plan, plan.Fresh()
		if rr.Fresh {
			return nil, nil, nil
		}
		var f *flow.Flow
		if f, nodes, err = retraceFlow(r.cfg.schema, db, plan); err != nil {
			return nil, nil, err
		}
		return f, f.Roots(), nil
	})
	rr.Elapsed = res.Elapsed
	for i, n := range nodes {
		insts := res.Created[n]
		if len(insts) == 0 {
			continue // failed, or never dispatched
		}
		old := db.Get(rr.Plan.Steps[i].Rebuild)
		rr.Rebuilt[old.ID] = insts[0]
		if aerr := db.Annotate(insts[0], old.Name, "retrace of "+string(old.ID)); aerr != nil {
			err = errors.Join(err, aerr)
		}
	}
	return rr, err
}

// retraceFlow turns a retrace plan into a flow with one node per step
// and returns the flow and each step's node. Each dependency of a step
// is filled by the node of the earlier step that rebuilds it or else by
// a leaf of its own, bound to the step's replacement for the old input
// or to the old input itself. A step shares no leaf, so steps do not
// group, and every node is created after its children, so the
// planner's order — and with it the order the new instances commit in
// — is step order.
func retraceFlow(s *schema.Schema, db *history.DB, plan *history.RetracePlan) (*flow.Flow, []flow.NodeID, error) {
	f := flow.New(s, db)
	nodes := make([]flow.NodeID, len(plan.Steps))
	rebuilt := make(map[history.ID]flow.NodeID, len(plan.Steps))
	for si, st := range plan.Steps {
		old := db.Get(st.Rebuild)
		deps := old.Inputs
		if old.Tool != "" {
			deps = append([]history.Input{{Key: "fd", Inst: old.Tool}}, deps...)
		}
		children := make([]flow.NodeID, len(deps))
		for i, in := range deps {
			if n, ok := rebuilt[in.Inst]; ok {
				children[i] = n
				continue
			}
			inst := in.Inst
			if n, ok := st.Replace[inst]; ok {
				inst = n
			}
			typ, _ := db.TypeOf(inst) // the plan just read inst, and history never drops an instance
			leaf, err := f.Add(typ)
			if err != nil {
				return nil, nil, err
			}
			if err := f.Bind(leaf, inst); err != nil {
				return nil, nil, err
			}
			children[i] = leaf
		}
		n, err := f.Add(old.Type)
		if err != nil {
			return nil, nil, err
		}
		for i, in := range deps {
			if err := f.Connect(n, in.Key, children[i]); err != nil {
				return nil, nil, err
			}
		}
		rebuilt[old.ID] = n
		nodes[si] = n
	}
	return f, nodes, nil
}
