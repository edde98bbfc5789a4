package harness

import (
	"context"
	"time"

	"repro/internal/datastore"
	"repro/internal/encap"
	"repro/internal/exec"
	"repro/internal/flow"
	"repro/internal/history"
	"repro/internal/scenario"
	"repro/internal/schema"
)

// World is a materialized scenario exported for embedding: the service
// runs submitted scenarios against its own engine by overlaying the
// world's schema, registry, database, store and run stanza
// (RunOptions), and flowbench's corpus section posts scenario files at
// a live flowd. The harness's own conformance sweep does not go
// through this type.
type World struct{ w *world }

// Materialize validates a scenario and builds its world — schema,
// history database on the frozen clock, registry (fault-instrumented
// when the scenario has a plan), and the constructed flow. store may
// supply a shared content-addressed datastore; nil builds a fresh one.
//
// The world owns an engine worker pool; call Close when done.
func Materialize(sc *scenario.Scenario, store *datastore.Store) (*World, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	w, err := buildWorld(sc, store)
	if err != nil {
		return nil, err
	}
	return &World{w: w}, nil
}

// Schema returns the world's schema.
func (m *World) Schema() *schema.Schema { return m.w.schema }

// DB returns the world's history database.
func (m *World) DB() *history.DB { return m.w.db }

// Registry returns the world's encapsulation registry.
func (m *World) Registry() *encap.Registry { return m.w.reg }

// Store returns the world's content-addressed datastore.
func (m *World) Store() *datastore.Store { return m.w.store }

// Flow returns the constructed flow.
func (m *World) Flow() *flow.Flow { return m.w.flow }

// Target returns the sub-flow root when the scenario sets run.target,
// 0 (run the whole flow) otherwise.
func (m *World) Target() flow.NodeID { return m.w.target }

// RunOptions returns the options that execute the world on any
// engine, run stanza included, recording user "harness"; the caller
// adds tracer and WAL, and may name another user.
func (m *World) RunOptions() *exec.RunOptions { return m.w.runOptions() }

// Run executes the world's flow, or the sub-flow rooted at its
// run.target, on engine e.
func (m *World) Run(ctx context.Context, e *exec.Engine, opts *exec.RunOptions) (*exec.Result, error) {
	return m.w.run(ctx, e, opts)
}

// runOptions translates the scenario's run stanza (fan-out cap,
// failure policy, retry, per-task timeout) into options over the
// world's schema, registry, database and store, recording user
// "harness" as the world's imports do.
func (w *world) runOptions() *exec.RunOptions {
	run := w.sc.Run
	o := &exec.RunOptions{Schema: w.schema, Registry: w.reg, DB: w.db, Store: w.store,
		User: "harness", MaxCombos: run.MaxCombos}
	if run.Policy == "continue" {
		p := exec.ContinueOnError
		o.Policy = &p
	}
	if r := run.Retry; r != nil {
		o.Retry = &exec.RetryPolicy{
			MaxAttempts: r.Attempts,
			BaseDelay:   time.Duration(r.BaseMicros) * time.Microsecond,
			Seed:        r.Seed,
		}
	}
	if run.TimeoutMs > 0 {
		d := time.Duration(run.TimeoutMs) * time.Millisecond
		o.TaskTimeout = &d
	}
	return o
}

// run executes the world's flow, or its run.target sub-flow, on e.
func (w *world) run(ctx context.Context, e *exec.Engine, opts *exec.RunOptions) (*exec.Result, error) {
	if w.target != 0 {
		return e.RunNodeOptions(ctx, w.flow, w.target, opts)
	}
	return e.RunFlowOptions(ctx, w.flow, opts)
}

// Close releases the world's engine.
func (m *World) Close() { m.w.close() }
