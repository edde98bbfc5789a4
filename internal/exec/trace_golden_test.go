package exec

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/datastore"
	"repro/internal/faults"
	"repro/internal/flow"
	"repro/internal/memo"
	"repro/internal/trace"
)

// Golden-trace regression tests: the masked JSONL rendering of a run's
// event stream is pinned byte for byte in testdata/. Because events are
// emitted in plan commit order with wall-clock fields masked, the same
// flow must produce the same bytes across worker counts and
// interleavings, race-detector runs — and, projected through DropKinds,
// across fault injection. Regenerate with `go test ./internal/exec
// -run TestGoldenTrace -update` after an intentional change.

var updateGoldens = flag.Bool("update", false, "rewrite golden trace files in testdata/")

// runTraced runs the flow under o with a Buffer sink as its tracer and
// returns the collected events.
func runTraced(t *testing.T, r *rig, f *flow.Flow, o RunOptions) []trace.Event {
	t.Helper()
	buf := trace.NewBuffer()
	o.Tracer = buf
	if _, err := r.run(f, o); err != nil {
		t.Fatalf("traced run: %v", err)
	}
	return buf.Events()
}

// compareGolden diffs got against the named golden file, rewriting it
// under -update.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGoldens {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("trace differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
	t.Fatalf("trace differs from %s (length %d vs %d)", path, len(got), len(wl))
}

// fig6BranchFlow is the Fig. 6 disjoint-branch flow: n independent
// EditedNetlist constructions.
func fig6BranchFlow(t *testing.T, r *rig, n int) *flow.Flow {
	t.Helper()
	f := flow.New(r.s, r.db)
	for i := 0; i < n; i++ {
		addBranch(t, r, f)
	}
	return f
}

// TestGoldenTraceFig6AcrossWorkers pins the masked trace of the Fig. 6
// flow and asserts one worker and four produce it byte-identically:
// commit order — not completion order — sequences the events, so the
// dispatch order is invisible after masking.
func TestGoldenTraceFig6AcrossWorkers(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			r := newRig(t)
			r.engine.SetWorkers(workers)
			f := fig6BranchFlow(t, r, 8)
			got := trace.MaskedJSONL(runTraced(t, r, f, RunOptions{}))
			if workers != 1 && *updateGoldens {
				// The golden is written once, from the one-worker run;
				// the four-worker run must reproduce it rather than
				// overwrite it.
				*updateGoldens = false
				defer func() { *updateGoldens = true }()
			}
			compareGolden(t, "golden_fig6_trace.jsonl", got)
		})
	}
}

// TestGoldenTracePerfFlow pins the diamond-shaped Performance flow —
// grouped constructions, a composite, real dependencies — including
// the committed instance IDs.
func TestGoldenTracePerfFlow(t *testing.T) {
	r := newRig(t)
	r.engine.SetWorkers(2)
	f, _ := r.perfFlow(t)
	compareGolden(t, "golden_perf_trace.jsonl", trace.MaskedJSONL(runTraced(t, r, f, RunOptions{})))
}

// TestGoldenTraceRetriedMatchesClean is the acceptance test for the
// determinism contract: a chaos run whose every tool site fails
// transiently and is retried must produce — after dropping the
// fault-path events (UnitRetried, UnitTimedOut) and masking — exactly
// the clean run's golden trace. UnitCommitted is attempt-free by
// design, so the projection is the identity on everything the history
// can see.
func TestGoldenTraceRetriedMatchesClean(t *testing.T) {
	clean := newRig(t)
	clean.engine.SetWorkers(2)
	fClean, _ := clean.perfFlow(t)
	cleanTrace := trace.MaskedJSONL(runTraced(t, clean, fClean, RunOptions{}))
	compareGolden(t, "golden_perf_trace.jsonl", cleanTrace)

	faulty := newRig(t)
	inj := faults.New(99, faults.Config{TransientRate: 1, TransientRuns: 1})
	inj.Instrument(faulty.engine.reg)
	faulty.engine.SetWorkers(2)
	fFaulty, _ := faulty.perfFlow(t)
	events := runTraced(t, faulty, fFaulty, RunOptions{Retry: &RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Microsecond, Seed: 7}})

	retried := 0
	for _, ev := range events {
		if ev.Kind == trace.KindUnitRetried {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("injector produced no UnitRetried events; the projection below would be vacuous")
	}
	projected := trace.MaskedJSONL(trace.DropKinds(events, trace.KindUnitRetried, trace.KindUnitTimedOut))
	if !bytes.Equal(projected, cleanTrace) {
		t.Errorf("retried trace (with %d retries dropped) differs from the clean golden:\n--- clean ---\n%s\n--- retried ---\n%s",
			retried, cleanTrace, projected)
	}
}

// TestGoldenTraceWarmMatchesClean is the memoization analogue of the
// retried≡clean projection: a warm-cache run — every unit served from
// the derivation-keyed result cache, no tool executed — must produce,
// after dropping the UnitCacheHit events and masking, exactly the cold
// run's golden trace, committed instance IDs included. The cold rig and
// the warm rig share the datastore and the cache but have separate
// history databases, so equal instance IDs demonstrate the planner's
// pre-assignment, not shared state. Pinned on one worker and on four.
func TestGoldenTraceWarmMatchesClean(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			store := datastore.NewStore()
			cached := RunOptions{Memo: memo.New(0)}

			cold := newRigStore(t, nil, store)
			cold.engine.SetWorkers(workers)
			fCold, _ := cold.perfFlow(t)
			cleanTrace := trace.MaskedJSONL(runTraced(t, cold, fCold, cached))
			// A cold run with the cache installed is indistinguishable
			// from one without it.
			compareGolden(t, "golden_perf_trace.jsonl", cleanTrace)

			warm := newRigStore(t, nil, store)
			warm.engine.SetWorkers(workers)
			fWarm, _ := warm.perfFlow(t)
			events := runTraced(t, warm, fWarm, cached)

			hits := 0
			for _, ev := range events {
				if ev.Kind == trace.KindUnitCacheHit {
					hits++
				}
			}
			if hits != 4 {
				t.Fatalf("warm run hit %d of 4 units; the projection below would be vacuous", hits)
			}
			projected := trace.MaskedJSONL(trace.DropKinds(events, trace.KindUnitCacheHit))
			if !bytes.Equal(projected, cleanTrace) {
				t.Errorf("warm trace (with %d cache hits dropped) differs from the clean golden:\n--- clean ---\n%s\n--- warm ---\n%s",
					hits, cleanTrace, projected)
			}
		})
	}
}
