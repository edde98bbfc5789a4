package harness

import (
	"repro/internal/datastore"
	"repro/internal/encap"
	"repro/internal/flow"
	"repro/internal/history"
	"repro/internal/scenario"
	"repro/internal/schema"
)

// World is a materialized scenario exported for embedding: the service
// runs submitted scenarios against its own engine by overlaying the
// world's schema, registry and database through exec.RunOptions, and
// flowbench's corpus section posts scenario files at a live flowd. The
// harness's own conformance sweep does not go through this type.
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

// Close releases the world's engine.
func (m *World) Close() { m.w.close() }
