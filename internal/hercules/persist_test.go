package hercules

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cad/netlist"
	"repro/internal/history"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := newSession(t)
	perf, _ := runSimulatePlan(t, s)
	if err := s.Annotate(perf, "saved run", "before shutdown"); err != nil {
		t.Fatal(err)
	}
	// Two archive-backed revisions (footnote 5) of one shared archive.
	base := netlist.Format(netlist.FullAdder())
	ed := s.Must("netEd.retouch")
	r1, err := s.CheckinRevision(history.Instance{Type: "EditedNetlist", Tool: ed}, "n.cct", base)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.CheckinRevision(history.Instance{Type: "EditedNetlist", Tool: ed,
		Inputs: []history.Input{{Key: "Netlist", Inst: r1}}}, "n.cct", base+"# retouched\n")
	if err != nil {
		t.Fatal(err)
	}

	if err := s.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	for _, f := range []string{"schema.txt", "history.json", "store.json", "flows.json", "named.json", "archives.json"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing %s: %v", f, err)
		}
	}

	s2, err := Load(dir, "after-restart")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	// Same instance count, same artifact content, same derivation.
	if s2.DB.Len() != s.DB.Len() {
		t.Fatalf("instances: %d -> %d", s.DB.Len(), s2.DB.Len())
	}
	in := s2.DB.Get(perf)
	if in == nil || in.Name != "saved run" {
		t.Fatalf("annotated instance lost: %v", in)
	}
	a, err := s.ArtifactText(perf)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s2.ArtifactText(perf)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("artifact changed across save/load")
	}
	// Each archive-backed instance checks out its own revision, and the
	// archive keeps its head and its delta storage.
	for _, id := range []history.ID{r1, r2} {
		a, err := s.ArtifactText(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s2.ArtifactText(id)
		if err != nil || a != b {
			t.Fatalf("archived %s after load: %v, text equal %v", id, err, a == b)
		}
	}
	if head, lines := s2.Archives.Open("n.cct").Head(), s2.Archives.Open("n.cct").StorageLines(); head != 2 ||
		lines != s.Archives.Open("n.cct").StorageLines() {
		t.Fatalf("archive after load: head %d, %d stored lines; want 2 and %d", head, lines, s.Archives.Open("n.cct").StorageLines())
	}
	// History queries still work.
	h, err := s2.History(perf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(h, "Circuit:") {
		t.Errorf("history after load:\n%s", h)
	}
	// The flow catalog survived, with usable plans.
	if got := s2.Flows.Names(); len(got) != 3 {
		t.Errorf("plans after load = %v", got)
	}
	f, err := s2.Catalogs.StartFromPlan("simulate-netlist")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Errorf("restored plan invalid: %v", err)
	}
	// Named instances resolve, and new work can proceed where the old
	// session left off (IDs continue, not restart).
	f2 := s2.NewFlow()
	n := f2.MustAdd("EditedNetlist")
	if err := f2.ExpandDown(n, false); err != nil {
		t.Fatal(err)
	}
	tn, _ := f2.Node(n).Dep("fd")
	if err := f2.Bind(tn, s2.Must("netEd.fulladder")); err != nil {
		t.Fatal(err)
	}
	res, err := s2.Run(f2)
	if err != nil {
		t.Fatalf("run after load: %v", err)
	}
	id, err := res.One(n)
	if err != nil {
		t.Fatal(err)
	}
	if s.DB.Has(id) {
		t.Errorf("new instance %s collides with a pre-save ID", id)
	}
	// Retrace still works against restored derivations.
	ood, err := s2.OutOfDate(perf)
	if err != nil {
		t.Fatal(err)
	}
	_ = ood

	// A directory saved without the archives file still loads, with no
	// archives.
	if err := os.Remove(filepath.Join(dir, "archives.json")); err != nil {
		t.Fatal(err)
	}
	s3, err := Load(dir, "older-save")
	if err != nil {
		t.Fatalf("Load without archives.json: %v", err)
	}
	if names := s3.Archives.Names(); len(names) != 0 {
		t.Fatalf("archives after a load without archives.json: %v", names)
	}
}

func TestLoadRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	s := newSession(t)
	runSimulatePlan(t, s)
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}

	// Corrupt the store: flip a blob's content so the hash mismatches.
	storePath := filepath.Join(dir, "store.json")
	data, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	// JSON base64 blobs: replace a character inside a value.
	broken := strings.Replace(string(data), "\"c3RpbXVsaSBl", "\"c3RpbXVsaSBF", 1)
	if broken == string(data) {
		// Fall back: truncate the file, which must also fail.
		broken = string(data[:len(data)/2])
	}
	if err := os.WriteFile(storePath, []byte(broken), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, "x"); err == nil {
		t.Error("Load with corrupted store should fail")
	}

	// Missing file.
	if err := os.Remove(filepath.Join(dir, "history.json")); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, "x"); err == nil {
		t.Error("Load with missing history should fail")
	}
	if _, err := Load(t.TempDir(), "x"); err == nil {
		t.Error("Load from empty dir should fail")
	}
}

func TestRestoreValidatesDerivations(t *testing.T) {
	// A history dump referencing a missing tool is rejected.
	s := newSession(t)
	bad := `[
	 {"ID":"Stimuli:1","Type":"Stimuli","User":"x","Created":"2026-01-01T00:00:00Z"},
	 {"ID":"Performance:2","Type":"Performance","User":"x","Created":"2026-01-01T00:00:01Z",
	  "Tool":"InstalledSimulator:99",
	  "Inputs":[{"Key":"Circuit","Inst":"Stimuli:1"},{"Key":"Stimuli","Inst":"Stimuli:1"}]}
	]`
	db := history.NewDB(s.Schema)
	if err := db.Restore(strings.NewReader(bad)); err == nil {
		t.Error("restore with dangling tool should fail")
	}
	if db.Len() != 0 {
		t.Error("failed restore must leave the database empty")
	}
	// Restore into non-empty DB refused.
	if err := s.DB.Restore(strings.NewReader("[]")); err == nil {
		t.Error("restore into populated database should fail")
	}
}
