package exec

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/history"
)

// randomEditWorld runs the canonical performance flow on a fresh rig
// (history clock replaced when clock is non-nil), then lands 1-5
// random edits drawn from seed on the netlist lineage: chains,
// branches, edits of old versions. It returns the rig, the performance
// and the lineage in creation order.
func randomEditWorld(t *testing.T, seed int64, clock func() time.Time) (*rig, history.ID, []history.ID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	r := newRigClock(t, clock)
	f, perfN := r.perfFlow(t)
	res, err := r.engine.RunFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	perf, err := res.One(perfN)
	if err != nil {
		t.Fatal(err)
	}

	lineage := []history.ID{}
	for _, in := range r.db.InstancesOf("Netlist") {
		lineage = append(lineage, in.ID)
	}
	edits := 1 + rng.Intn(5)
	for i := 0; i < edits; i++ {
		base := lineage[rng.Intn(len(lineage))]
		lineage = append(lineage, r.editNetlist(t, base))
	}
	return r, perf, lineage
}

// editNetlist runs a one-node flow that edits base with the netlist
// copier and returns the new version. The copier strips comments and
// appends one fixed note, so an edit of an edit has its base's bytes.
func (r *rig) editNetlist(t *testing.T, base history.ID) history.ID {
	t.Helper()
	f := flow.New(r.s, r.db)
	n := f.MustAdd("EditedNetlist")
	if err := f.ExpandDown(n, false); err != nil {
		t.Fatal(err)
	}
	if err := f.ExpandOptional(n, "Netlist"); err != nil {
		t.Fatal(err)
	}
	tn, _ := f.Node(n).Dep("fd")
	bn, _ := f.Node(n).Dep("Netlist")
	if err := f.Bind(tn, r.ids["netEdCopy"]); err != nil {
		t.Fatal(err)
	}
	if err := f.Bind(bn, base); err != nil {
		t.Fatal(err)
	}
	res, err := r.engine.RunFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	id, err := res.One(n)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestRetraceConvergesAfterRandomEdits is the consistency-maintenance
// property: whatever sequence of edits lands on the netlist lineage —
// chains, branches, edits of old versions — a single retrace of the
// performance always yields a fresh instance derived from the newest
// version.
func TestRetraceConvergesAfterRandomEdits(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r, perf, lineage := randomEditWorld(t, seed, nil)
		ood, err := r.db.OutOfDate(perf)
		if err != nil {
			t.Fatal(err)
		}
		if !ood {
			t.Fatalf("seed %d: performance should be stale after %d edit(s)", seed, len(lineage)-1)
		}
		rr, err := r.engine.Retrace(perf)
		if err != nil {
			t.Fatalf("seed %d: retrace: %v", seed, err)
		}
		newPerf := rr.NewTarget(perf)
		if newPerf == perf {
			t.Fatalf("seed %d: retrace did not rebuild the target", seed)
		}
		ood, err = r.db.OutOfDate(newPerf)
		if err != nil {
			t.Fatal(err)
		}
		if ood {
			t.Errorf("seed %d: retraced performance still stale", seed)
		}
		// The new derivation uses the lineage's newest version.
		newest, err := r.db.NewestVersion(lineage[0])
		if err != nil {
			t.Fatal(err)
		}
		nets, err := r.db.DerivedWith(newPerf, "Netlist")
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, n := range nets {
			if n == newest {
				found = true
			}
		}
		if !found {
			t.Errorf("seed %d: new performance derives from %v, newest is %s", seed, nets, newest)
		}
	}
}

// retraceDumpDigests are the SHA-256 digests of DumpJSON after one
// retrace of randomEditWorld's performance under a ticking clock, for
// seeds 0-29. They were recorded with the serial retrace executor that
// running a retrace as a flow replaced: the flow run must rebuild the
// same instances under the same IDs, inputs, bytes, names, comments
// and timestamps.
var retraceDumpDigests = [30]string{
	"9b0ec6de107a205b1fbac98ae9d54633622478028fcde53e21463ab6f6072026",
	"2a2e8124e2da6026993fe0f8d70615145bb0d51acfd8a1fc33edc419744e5b51",
	"b8056373a07310ba9e3a9b805691963b28ca276d3b9ca820b30037de7ffe249b",
	"e63097a51f9ee159320257db7139ea094f9f7f40727f9ee6644553d18b55cd88",
	"7a1155d169516868da2ca21ac1ab2b428071bb22b0a33bccd9c1f6805a76c207",
	"2a2e8124e2da6026993fe0f8d70615145bb0d51acfd8a1fc33edc419744e5b51",
	"ef46f4a6c7311cb45fcbc679ed4702659ff097e2fbe127fd491b468435b90e4a",
	"2a2e8124e2da6026993fe0f8d70615145bb0d51acfd8a1fc33edc419744e5b51",
	"e2e741121798458e74d795096587144d7f591940fa1435959a2fe252b030eb44",
	"b8056373a07310ba9e3a9b805691963b28ca276d3b9ca820b30037de7ffe249b",
	"07f09b35b2b0307eaa3ffd24f8ff182165d3dc0d20d6fc0a32ad5661b098bed3",
	"ba8b477d9ead9d0b443830fe038e8fe71bd235d1fbd8ff40813b641bb86b8e27",
	"b5a67483615fc5fb804dcc0d2dc4ed7e22484dbb5f381e4caecf07efcc8d97a9",
	"faa79d6f8974d174921d5d6d30748cbd1368ee12585874547a939bc7d04bd5ab",
	"2a2e8124e2da6026993fe0f8d70615145bb0d51acfd8a1fc33edc419744e5b51",
	"ba8b477d9ead9d0b443830fe038e8fe71bd235d1fbd8ff40813b641bb86b8e27",
	"d4c2b75750aa694f60f75f6014198af6e1de8cb5f92c68e41334f1eb18fcfd51",
	"ba8b477d9ead9d0b443830fe038e8fe71bd235d1fbd8ff40813b641bb86b8e27",
	"2a2e8124e2da6026993fe0f8d70615145bb0d51acfd8a1fc33edc419744e5b51",
	"b8056373a07310ba9e3a9b805691963b28ca276d3b9ca820b30037de7ffe249b",
	"ba8b477d9ead9d0b443830fe038e8fe71bd235d1fbd8ff40813b641bb86b8e27",
	"ba8b477d9ead9d0b443830fe038e8fe71bd235d1fbd8ff40813b641bb86b8e27",
	"c46dda69a2818185c90034f30737c74239d11154bdb0c21c8dee2f2ea373c290",
	"faa79d6f8974d174921d5d6d30748cbd1368ee12585874547a939bc7d04bd5ab",
	"2a2e8124e2da6026993fe0f8d70615145bb0d51acfd8a1fc33edc419744e5b51",
	"2a2e8124e2da6026993fe0f8d70615145bb0d51acfd8a1fc33edc419744e5b51",
	"2a2e8124e2da6026993fe0f8d70615145bb0d51acfd8a1fc33edc419744e5b51",
	"ba8b477d9ead9d0b443830fe038e8fe71bd235d1fbd8ff40813b641bb86b8e27",
	"5c7540d858a5d8eb84fb26cad870d8f17cf5f464b9ab183c0cb74f14198ef7fe",
	"55e16468fd6ecc03de7f4edf1b888402181639098302647a3e9041f8235f8ddf",
}

func TestRetraceDumpsMatchSerialExecutor(t *testing.T) {
	for seed := int64(0); seed < int64(len(retraceDumpDigests)); seed++ {
		t0 := time.Date(1993, 6, 14, 12, 0, 0, 0, time.UTC)
		tick := 0
		clock := func() time.Time {
			tick++
			return t0.Add(time.Duration(tick) * time.Second)
		}
		r, perf, _ := randomEditWorld(t, seed, clock)
		if _, err := r.engine.Retrace(perf); err != nil {
			t.Fatalf("seed %d: retrace: %v", seed, err)
		}
		sum := sha256.Sum256(dumpHistory(t, r.db))
		if got := hex.EncodeToString(sum[:]); got != retraceDumpDigests[seed] {
			t.Errorf("seed %d: history dump digest %s, want %s", seed, got, retraceDumpDigests[seed])
		}
	}
}

// TestRetraceConeDoesNotGrow: the performance uses c2, an edit of c1.
// An edit of the newest version that reproduces its bytes changes
// nothing, so each of eight rounds of (identical-bytes edit, retrace)
// leaves the performance fresh and adds only the edit to the history.
// Judging c1, which the derivation uses only as c2's base, would find
// it superseded by other bytes and rebuild c2 on top of its own
// descendant, one more version per round.
func TestRetraceConeDoesNotGrow(t *testing.T) {
	r := newRig(t)
	f, perfN := r.perfFlow(t)
	res, err := r.engine.RunFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	cctN, _ := f.Node(perfN).Dep("Circuit")
	netN, _ := f.Node(cctN).Dep("Netlist")
	c1, err := res.One(netN)
	if err != nil {
		t.Fatal(err)
	}
	c2 := r.editNetlist(t, c1)
	if err := f.Bind(netN, c2); err != nil {
		t.Fatal(err)
	}
	res, err = r.engine.RunFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	perf, err := res.One(perfN)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 8; round++ {
		newest, err := r.db.NewestVersion(c1)
		if err != nil {
			t.Fatal(err)
		}
		before := r.db.Len()
		r.editNetlist(t, newest)
		rr, err := r.engine.Retrace(perf)
		if err != nil {
			t.Fatalf("round %d: retrace: %v", round, err)
		}
		if !rr.Fresh {
			t.Errorf("round %d: identical-bytes edit made the performance stale: %s", round, rr.Plan)
		}
		if grew := r.db.Len() - before; grew != 1 {
			t.Errorf("round %d: history grew by %d instances, want 1 (the edit)", round, grew)
		}
	}
}
