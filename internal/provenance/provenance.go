// Package provenance makes the design history tamper-evident. The
// paper's central claim (§3.3/§4.2) is that flow traces subsume version
// trees: backward and forward chaining over per-instance derivation
// records *is* the design-history query. Every history.DB answers it
// from its own derivation graph (history.Graph); this package makes the
// committed derivation records themselves trustworthy with a hash chain
// (chain.go) that attaches to a database as a commit observer
// (db.Observe(c)): the database replays its existing records into the
// chain and then feeds it every commit, in commit order, under the
// commit lock — so the chain is complete and gap-free no matter when it
// attaches.
package provenance

import "repro/internal/history"

// Index is the derivation graph under the name the benchmark module
// (bench/flowload) still uses to build its query oracle and to time a
// graph feed. Delete it, and NewIndex, once that module moves to
// history.Graph.
type Index = history.Graph

// NewIndex returns an empty graph; db.Observe(idx) builds a copy of the
// database's own graph in it. It exists for the benchmark module only.
func NewIndex() *Index { return history.NewGraph() }
