package exec

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/datastore"
	"repro/internal/flow"
	"repro/internal/memo"
	"repro/internal/trace"
)

// The cached≡clean property, over random flows: for any legal flow, a
// warm-cache run on a second engine (sharing the datastore and cache,
// with its own fresh history) must produce a trace that — after
// dropping the UnitCacheHit events and masking — is byte-identical to
// the cold run's, committed instance IDs included. And re-running the
// warm flow again must mint an entirely fresh but isomorphic
// derivation graph. This extends the retried≡clean projection of
// trace_golden_test.go to the memoization layer.

// buildSeededFlow reproduces one deterministic random flow: the rng
// draw order (workers, goal, construction) is fixed, so two rigs built
// from the same seed get byte-identical flows and worker counts.
func buildSeededFlow(t *testing.T, r *rig, seed int64) (*flow.Flow, flow.NodeID) {
	t.Helper()
	goals := []string{
		"Performance", "PerformancePlot", "Verification",
		"ExtractedNetlist", "ExtractionStatistics", "PlacedLayout",
		"EditedNetlist", "EditedLayout", "OptimizedModels",
	}
	rng := rand.New(rand.NewSource(seed))
	r.engine.SetWorkers(1 + rng.Intn(4))
	goal := goals[rng.Intn(len(goals))]
	f := flow.New(r.s, r.db)
	root := f.MustAdd(goal)
	if err := buildRandom(t, r, f, root, rng, 0, "", goal); err != nil {
		t.Fatalf("seed %d goal %s: build: %v", seed, goal, err)
	}
	return f, root
}

func TestMemoRandomWarmCachedMatchesClean(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		store := datastore.NewStore()
		cached := RunOptions{Memo: memo.New(0)}

		cold := newRigStore(t, nil, store)
		fCold, _ := buildSeededFlow(t, cold, seed)
		coldEvents := runTraced(t, cold, fCold, cached)

		warm := newRigStore(t, nil, store)
		fWarm, _ := buildSeededFlow(t, warm, seed)
		warmEvents := runTraced(t, warm, fWarm, cached)

		hits := 0
		for _, ev := range warmEvents {
			if ev.Kind == trace.KindUnitCacheHit {
				hits++
			}
		}
		units := 0
		for _, ev := range coldEvents {
			if ev.Kind == trace.KindUnitCommitted {
				units++
			}
		}
		if hits != units {
			t.Errorf("seed %d: warm run hit %d of %d units", seed, hits, units)
		}

		cleanJSONL := trace.MaskedJSONL(coldEvents)
		projected := trace.MaskedJSONL(trace.DropKinds(warmEvents, trace.KindUnitCacheHit))
		if !bytes.Equal(projected, cleanJSONL) {
			t.Fatalf("seed %d: warm trace (cache hits dropped) differs from clean:\n--- clean ---\n%s\n--- warm ---\n%s",
				seed, cleanJSONL, projected)
		}

		// A second warm run on the same engine mints fresh IDs but an
		// isomorphic derivation graph.
		res1, err := warm.run(fWarm, cached)
		if err != nil {
			t.Fatalf("seed %d: warm rerun 1: %v", seed, err)
		}
		rerun, m := counted(cached)
		res2, err := warm.run(fWarm, rerun)
		if err != nil {
			t.Fatalf("seed %d: warm rerun 2: %v", seed, err)
		}
		if hits := m.Snapshot().CacheHits; hits != int64(res2.Finished.Units) {
			t.Errorf("seed %d: rerun hit %d of %d units", seed, hits, res2.Finished.Units)
		}
		assertIsomorphicRerun(t, warm.db, fWarm, res1, res2)
	}
}
