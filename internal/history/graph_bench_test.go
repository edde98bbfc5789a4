package history_test

import (
	"testing"

	"repro/internal/flowgen"
	"repro/internal/history"
)

// benchWorld caches one populated chain world across the chaining
// benchmarks (Populate dominates setup otherwise).
var benchWorld struct {
	b    *flowgen.Bench
	deep history.ID
}

func benchChainWorld(b *testing.B) (*flowgen.Bench, history.ID) {
	b.Helper()
	if benchWorld.b == nil {
		g, err := flowgen.Generate(flowgen.Spec{Cells: 100000, Shape: flowgen.Chain, Seed: 1993})
		if err != nil {
			b.Fatal(err)
		}
		w, ids, err := g.Populate()
		if err != nil {
			b.Fatal(err)
		}
		benchWorld.b, benchWorld.deep = w, ids[len(ids)-1]
	}
	return benchWorld.b, benchWorld.deep
}

// benchChain runs one chaining query b.N times.
func benchChain(b *testing.B, chain func(*history.DB, history.ID, int) (*history.Derivation, error), root func(*flowgen.Bench, history.ID) history.ID) {
	w, deep := benchChainWorld(b)
	r := root(w, deep)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chain(w.DB, r, -1); err != nil {
			b.Fatal(err)
		}
	}
}

// deepRoot is the tail of the last edit chain: an unbounded backchain
// from it has 25k nodes at 100k cells.
func deepRoot(_ *flowgen.Bench, deep history.ID) history.ID { return deep }

// toolRoot is the first tool instance, the forward benchmarks' root.
func toolRoot(w *flowgen.Bench, _ history.ID) history.ID { return w.Tools[0] }

// BenchmarkBackchainGraph / BenchmarkBackchainOracle: the deep
// unbounded backchain answered by the database's graph and by the
// oracle. The graph must stay at least 10x faster (EXPERIMENTS records
// the ratio).
func BenchmarkBackchainGraph(b *testing.B) { benchChain(b, (*history.DB).Backchain, deepRoot) }

func BenchmarkBackchainOracle(b *testing.B) { benchChain(b, history.NaiveBackchain, deepRoot) }

func BenchmarkForwardchainGraph(b *testing.B) { benchChain(b, (*history.DB).Forwardchain, toolRoot) }

func BenchmarkForwardchainOracle(b *testing.B) {
	benchChain(b, history.NaiveForwardchain, toolRoot)
}
