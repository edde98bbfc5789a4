package history

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/datastore"
	"repro/internal/schema"
)

func TestOutOfDateDetection(t *testing.T) {
	db, ids := fixture(t)
	// n1 was extracted from l1, and l2 now supersedes l1: the paper's
	// example query "is the extracted netlist out-of-date with respect
	// to the layout?" must answer yes.
	ood, err := db.OutOfDate(ids["n1"])
	if err != nil {
		t.Fatalf("OutOfDate: %v", err)
	}
	if !ood {
		t.Error("n1 should be out of date (l2 supersedes l1)")
	}
	stale, err := db.StaleInputs(ids["n1"])
	if err != nil {
		t.Fatalf("StaleInputs: %v", err)
	}
	if len(stale) != 1 || stale[0].Used != ids["l1"] || stale[0].Newest != ids["l2"] {
		t.Errorf("StaleInputs(n1) = %v", stale)
	}
}

func TestUpToDateInstance(t *testing.T) {
	db, ids := fixture(t)
	// l2 is the newest layout and derives only from l1 — but l1 being
	// superseded *by l2 itself* must not flag l2 as stale.
	ood, err := db.OutOfDate(ids["l2"])
	if err != nil {
		t.Fatalf("OutOfDate: %v", err)
	}
	if ood {
		t.Error("l2 must not be out of date with respect to itself")
	}
}

func TestStaleReachesTransitively(t *testing.T) {
	db, ids := fixture(t)
	// p1 <- c1 <- n1 <- l1, and l1 is superseded: p1 is stale too. Note
	// n1 is also superseded (by the edit n2).
	ood, err := db.OutOfDate(ids["p1"])
	if err != nil {
		t.Fatalf("OutOfDate: %v", err)
	}
	if !ood {
		t.Error("p1 should be transitively out of date")
	}
}

func TestPlanRetraceFresh(t *testing.T) {
	db, ids := fixture(t)
	plan, err := db.PlanRetrace(ids["l2"])
	if err != nil {
		t.Fatalf("PlanRetrace: %v", err)
	}
	if !plan.Fresh() {
		t.Errorf("plan for fresh instance should be empty: %s", plan)
	}
	if !strings.Contains(plan.String(), "up to date") {
		t.Errorf("String = %q", plan.String())
	}
}

func TestPlanRetraceOrdersLeavesFirst(t *testing.T) {
	db, ids := fixture(t)
	// Make l1 the only stale ancestor story for pp1's chain:
	// pp1 <- p1 <- c1 <- n1 <- l1 (superseded by l2), and n1 is
	// superseded by n2 (an edit). The plan rebuilds the constructed,
	// non-superseded instances bottom-up: c1, p1, pp1. n1 is superseded,
	// so it is *replaced* by n2, not rebuilt.
	plan, err := db.PlanRetrace(ids["pp1"])
	if err != nil {
		t.Fatalf("PlanRetrace: %v", err)
	}
	if plan.Fresh() {
		t.Fatal("plan should not be fresh")
	}
	var order []ID
	for _, s := range plan.Steps {
		order = append(order, s.Rebuild)
	}
	pos := func(id ID) int {
		for i, x := range order {
			if x == id {
				return i
			}
		}
		return -1
	}
	if pos(ids["c1"]) == -1 || pos(ids["p1"]) == -1 || pos(ids["pp1"]) == -1 {
		t.Fatalf("plan should rebuild c1, p1, pp1; got %v", order)
	}
	if !(pos(ids["c1"]) < pos(ids["p1"]) && pos(ids["p1"]) < pos(ids["pp1"])) {
		t.Errorf("plan order not leaves-first: %v", order)
	}
	if pos(ids["n1"]) != -1 {
		t.Errorf("superseded n1 must be replaced, not rebuilt: %v", order)
	}
	// c1's step must substitute n1 -> n2.
	for _, s := range plan.Steps {
		if s.Rebuild == ids["c1"] {
			if s.Replace[ids["n1"]] != ids["n2"] {
				t.Errorf("c1 step Replace = %v, want n1 -> n2", s.Replace)
			}
		}
	}
	if !strings.Contains(plan.String(), "rebuild") {
		t.Errorf("plan String = %q", plan.String())
	}
}

func TestPlanRetraceErrors(t *testing.T) {
	db, _ := fixture(t)
	if _, err := db.PlanRetrace("Nope:1"); err == nil {
		t.Error("PlanRetrace on missing instance should fail")
	}
	if _, err := db.StaleInputs("Nope:1"); err == nil {
		t.Error("StaleInputs on missing instance should fail")
	}
	if _, err := db.OutOfDate("Nope:1"); err == nil {
		t.Error("OutOfDate on missing instance should fail")
	}
	if _, err := db.NewestVersion("Nope:1"); err == nil {
		t.Error("NewestVersion on missing instance should fail")
	}
	if _, err := db.Superseded("Nope:1"); err == nil {
		t.Error("Superseded on missing instance should fail")
	}
}

func TestSuperseded(t *testing.T) {
	db, ids := fixture(t)
	for k, want := range map[string]bool{"l1": true, "l2": false, "n1": true, "n2": false, "st": false} {
		got, err := db.Superseded(ids[k])
		if err != nil {
			t.Fatalf("Superseded(%s): %v", k, err)
		}
		if got != want {
			t.Errorf("Superseded(%s) = %v, want %v", k, got, want)
		}
	}
}

// Property: a chain of n edits leaves exactly the non-newest versions
// superseded, and the newest version is never out of date.
func TestQuickEditChains(t *testing.T) {
	f := func(nEdits uint8) bool {
		n := int(nEdits%10) + 1
		db, ids := fixture(t)
		prev := ids["n2"]
		var all []ID
		all = append(all, ids["n1"], ids["n2"])
		for i := 0; i < n; i++ {
			in := db.MustRecord(Instance{Type: "EditedNetlist", Tool: ids["netlistEd"],
				Inputs: []Input{{Key: "Netlist", Inst: prev}}})
			prev = in.ID
			all = append(all, in.ID)
		}
		for i, id := range all {
			sup, err := db.Superseded(id)
			if err != nil {
				return false
			}
			if sup != (i != len(all)-1) {
				return false
			}
		}
		newest, err := db.NewestVersion(ids["n1"])
		return err == nil && newest == prev
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: backchain/forwardchain duality — y is in Backchain(x) iff x is
// in Forwardchain(y), over the fixture graph.
func TestQuickChainDuality(t *testing.T) {
	db, _ := fixture(t)
	all := db.All()
	f := func(i, j uint) bool {
		x := all[i%uint(len(all))].ID
		y := all[j%uint(len(all))].ID
		bx, err1 := db.Backchain(x, -1)
		fy, err2 := db.Forwardchain(y, -1)
		if err1 != nil || err2 != nil {
			return false
		}
		return bx.Contains(y) == fy.Contains(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestStaleJudgesVersionUsedBesideItsEdit: c1 is the base of the edit
// c2, and a verification compares c1 (reference) with c2 (subject).
// The verification uses c1 itself, not only as c2's base, so once c1's
// lineage gains c3 with other bytes, c1 is stale as well as c2.
func TestStaleJudgesVersionUsedBesideItsEdit(t *testing.T) {
	db, ids := fixture(t)
	edit := func(base ID, data string) ID {
		rec := Instance{Type: "EditedNetlist", Tool: ids["netlistEd"], Data: datastore.RefOf([]byte(data))}
		if base != "" {
			rec.Inputs = []Input{{Key: "Netlist", Inst: base}}
		}
		return db.MustRecord(rec).ID
	}
	c1 := edit("", "c1")
	c2 := edit(c1, "c2")
	ver := db.MustRecord(Instance{Type: "Verification", Tool: ids["verifier"],
		Inputs: []Input{{Key: "Netlist/reference", Inst: c1}, {Key: "Netlist/subject", Inst: c2}}}).ID
	if stale, err := db.StaleInputs(ver); err != nil || len(stale) != 0 {
		t.Fatalf("StaleInputs before c3 = %v, %v; want none (c2 is the newest version and is used)", stale, err)
	}
	c3 := edit(c2, "c3")
	stale, err := db.StaleInputs(ver)
	if err != nil {
		t.Fatal(err)
	}
	want := []Stale{{Used: c1, Newest: c3}, {Used: c2, Newest: c3}}
	if !slices.Equal(stale, want) {
		t.Errorf("StaleInputs = %v, want %v", stale, want)
	}
}

// TestCreationOrderUnderFrozenClock: with every instance created at one
// instant, creation order is commit order. Comparing ID strings would
// put EditedNetlist:10 first and make :9 the newest version, so a user
// of :9 would never go stale.
func TestCreationOrderUnderFrozenClock(t *testing.T) {
	db := NewDB(schema.Fig1())
	frozen := time.Date(1993, 6, 14, 12, 0, 0, 0, time.UTC)
	db.SetClock(func() time.Time { return frozen })
	ed := db.MustRecord(Instance{Type: "NetlistEditor"}).ID
	verifier := db.MustRecord(Instance{Type: "Verifier"}).ID
	for db.Seq() < 7 {
		db.MustRecord(Instance{Type: "Stimuli"})
	}
	var lineage []ID
	for i := 0; i < 3; i++ {
		rec := Instance{Type: "EditedNetlist", Tool: ed, Data: datastore.RefOf([]byte{byte(i)})}
		if i > 0 {
			rec.Inputs = []Input{{Key: "Netlist", Inst: lineage[i-1]}}
		}
		lineage = append(lineage, db.MustRecord(rec).ID)
	}
	if want := []ID{"EditedNetlist:8", "EditedNetlist:9", "EditedNetlist:10"}; !slices.Equal(lineage, want) {
		t.Fatalf("lineage = %v, want %v", lineage, want)
	}

	versions, err := db.VersionsOf(lineage[0])
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(versions, lineage) {
		t.Errorf("VersionsOf = %v, want %v", versions, lineage)
	}
	if newest, err := db.NewestVersion(lineage[0]); err != nil || newest != lineage[2] {
		t.Errorf("NewestVersion = %s, %v; want %s", newest, err, lineage[2])
	}
	if newest := db.Newest("EditedNetlist"); newest == nil || newest.ID != lineage[2] {
		t.Errorf("Newest(EditedNetlist) = %v, want %s", newest, lineage[2])
	}
	ids := func(insts []*Instance) []ID {
		var out []ID
		for _, in := range insts {
			out = append(out, in.ID)
		}
		return out
	}
	if got := ids(db.InstancesOf("Netlist")); !slices.Equal(got, lineage) {
		t.Errorf("InstancesOf(Netlist) = %v, want %v", got, lineage)
	}
	if got := ids(db.Select(Filter{Type: "EditedNetlist"})); !slices.Equal(got, lineage) {
		t.Errorf("Select = %v, want %v", got, lineage)
	}
	ver := db.MustRecord(Instance{Type: "Verification", Tool: verifier,
		Inputs: []Input{{Key: "Netlist/reference", Inst: lineage[1]}, {Key: "Netlist/subject", Inst: lineage[1]}}}).ID
	stale, err := db.StaleInputs(ver)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Stale{{Used: lineage[1], Newest: lineage[2]}}; !slices.Equal(stale, want) {
		t.Errorf("StaleInputs = %v, want %v", stale, want)
	}
}
