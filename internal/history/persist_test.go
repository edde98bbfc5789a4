package history

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/schema"
)

func TestDumpRestoreRoundTrip(t *testing.T) {
	db, ids := fixture(t)
	var buf bytes.Buffer
	if err := db.DumpJSON(&buf); err != nil {
		t.Fatalf("DumpJSON: %v", err)
	}
	db2 := NewDB(db.Schema())
	if err := db2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if db2.Len() != db.Len() {
		t.Fatalf("len %d -> %d", db.Len(), db2.Len())
	}
	// Every instance identical.
	for _, in := range db.All() {
		got := db2.Get(in.ID)
		if got == nil {
			t.Fatalf("lost %s", in.ID)
		}
		if got.String() != in.String() || got.Tool != in.Tool || len(got.Inputs) != len(in.Inputs) {
			t.Errorf("%s changed: %v -> %v", in.ID, in, got)
		}
		if !got.Created.Equal(in.Created) {
			t.Errorf("%s timestamp changed", in.ID)
		}
	}
	// Derived queries agree.
	b1, err := db.Backchain(ids["p1"], -1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := db2.Backchain(ids["p1"], -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(b1.Nodes) != len(b2.Nodes) || len(b1.Edges) != len(b2.Edges) {
		t.Error("backchain differs after restore")
	}
	vt1, _ := db.VersionTree(ids["l1"])
	vt2, _ := db2.VersionTree(ids["l1"])
	if vt1.Render() != vt2.Render() {
		t.Error("version tree differs after restore")
	}
	// New records continue the sequence without collisions.
	in := db2.MustRecord(Instance{Type: "Stimuli"})
	if db.Has(in.ID) {
		t.Errorf("restored DB reissued existing ID %s", in.ID)
	}
}

// restoreErrorCases are dumps Restore must refuse, leaving the
// database empty; FuzzRestore starts from them too.
var restoreErrorCases = []struct{ name, src string }{
	{"garbage", "not json"},
	{"no id", `[{"Type":"Stimuli"}]`},
	{"dup id", `[{"ID":"Stimuli:1","Type":"Stimuli","Created":"2026-01-01T00:00:00Z"},
	             {"ID":"Stimuli:1","Type":"Stimuli","Created":"2026-01-01T00:00:01Z"}]`},
	{"unknown type", `[{"ID":"Nope:1","Type":"Nope","Created":"2026-01-01T00:00:00Z"}]`},
	{"abstract", `[{"ID":"Netlist:1","Type":"Netlist","Created":"2026-01-01T00:00:00Z"}]`},
	{"tool on primitive", `[{"ID":"Stimuli:1","Type":"Stimuli","Tool":"Stimuli:1","Created":"2026-01-01T00:00:00Z"}]`},
	{"missing tool field", `[{"ID":"DeviceModels:1","Type":"DeviceModels","Created":"2026-01-01T00:00:00Z"}]`},
	{"dangling input", `[{"ID":"NetlistEditor:1","Type":"NetlistEditor","Created":"2026-01-01T00:00:00Z"},
		{"ID":"EditedNetlist:2","Type":"EditedNetlist","Tool":"NetlistEditor:1",
		 "Inputs":[{"Key":"Netlist","Inst":"EditedNetlist:99"}],"Created":"2026-01-01T00:00:01Z"}]`},
	{"bad input key", `[{"ID":"NetlistEditor:1","Type":"NetlistEditor","Created":"2026-01-01T00:00:00Z"},
		{"ID":"EditedNetlist:2","Type":"EditedNetlist","Tool":"NetlistEditor:1",
		 "Inputs":[{"Key":"Bogus","Inst":"NetlistEditor:1"}],"Created":"2026-01-01T00:00:01Z"}]`},
	{"missing required", `[{"ID":"LayoutEditor:1","Type":"LayoutEditor","Created":"2026-01-01T00:00:00Z"},
		{"ID":"Extractor:2","Type":"Extractor","Created":"2026-01-01T00:00:00Z"},
		{"ID":"ExtractedNetlist:3","Type":"ExtractedNetlist","Tool":"Extractor:2","Created":"2026-01-01T00:00:01Z"}]`},
	{"seq far beyond the records", `[{"ID":"Stimuli:4000000000","Type":"Stimuli","Created":"2026-01-01T00:00:00Z"}]`},
	{"25-digit seq", `[{"ID":"Stimuli:1234567890123456789012345","Type":"Stimuli","Created":"2026-01-01T00:00:00Z"}]`},
	{"leading zero", `[{"ID":"Stimuli:01","Type":"Stimuli","Created":"2026-01-01T00:00:00Z"}]`},
	{"zero seq", `[{"ID":"Stimuli:0","Type":"Stimuli","Created":"2026-01-01T00:00:00Z"}]`},
	{"prefix is not the type", `[{"ID":"Plotter:1","Type":"Stimuli","Created":"2026-01-01T00:00:00Z"}]`},
	{"dup seq", `[{"ID":"Stimuli:1","Type":"Stimuli","Created":"2026-01-01T00:00:00Z"},
	             {"ID":"Plotter:1","Type":"Plotter","Created":"2026-01-01T00:00:01Z"}]`},
	{"forward reference", `[{"ID":"EditedLayout:1","Type":"EditedLayout","Tool":"LayoutEditor:2","Created":"2026-01-01T00:00:00Z"},
		{"ID":"LayoutEditor:2","Type":"LayoutEditor","Created":"2026-01-01T00:00:01Z"}]`},
}

func TestRestoreErrors(t *testing.T) {
	db, _ := fixture(t)
	for _, c := range restoreErrorCases {
		t.Run(c.name, func(t *testing.T) {
			d := NewDB(db.Schema())
			if err := d.Restore(strings.NewReader(c.src)); err == nil {
				t.Errorf("Restore(%s) should fail", c.name)
			}
			if d.Len() != 0 {
				t.Error("failed restore left data behind")
			}
		})
	}
	// Restore into non-empty.
	if err := db.Restore(strings.NewReader("[]")); err == nil {
		t.Error("restore into non-empty should fail")
	}
}

// TestRestoreClockSteppedBack: a dump whose wall clock stepped back
// between two commits restores in commit (sequence) order — the edit
// after the tool it used — and dumps back to the same bytes.
func TestRestoreClockSteppedBack(t *testing.T) {
	db := NewDB(schema.Fig1())
	t0 := time.Date(1992, 10, 1, 12, 0, 0, 0, time.UTC)
	steps := []time.Duration{1, 2, 3, -3600} // seconds; the fourth commit's clock stepped back
	db.SetClock(func() time.Time {
		d := steps[0]
		steps = steps[1:]
		return t0.Add(d * time.Second)
	})
	db.MustRecord(Instance{Type: "Stimuli"})
	db.MustRecord(Instance{Type: "Plotter"})
	ed := db.MustRecord(Instance{Type: "LayoutEditor"})
	db.MustRecord(Instance{Type: "EditedLayout", Tool: ed.ID})
	var first, second bytes.Buffer
	if err := db.DumpJSON(&first); err != nil {
		t.Fatal(err)
	}
	restored := NewDB(db.Schema())
	if err := restored.Restore(bytes.NewReader(first.Bytes())); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	var order []ID
	for _, in := range restored.All() {
		order = append(order, in.ID)
	}
	if want := []ID{"Stimuli:1", "Plotter:2", "LayoutEditor:3", "EditedLayout:4"}; !slices.Equal(order, want) {
		t.Fatalf("restored order %v, want %v", order, want)
	}
	if err := restored.DumpJSON(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("dump is not a fixed point:\n%s\n---\n%s", first.Bytes(), second.Bytes())
	}
	if d, err := restored.Backchain("EditedLayout:4", -1); err != nil || len(d.Edges) != 1 {
		t.Fatalf("Backchain(EditedLayout:4) = %+v, %v", d, err)
	}
}

// TestRestoreAdmitsSeqGap: the holes ReserveSeq leaves survive a dump
// and restore, up to maxSeqGap beyond the record count.
func TestRestoreAdmitsSeqGap(t *testing.T) {
	for _, seq := range []int{2, 1 + maxSeqGap} {
		db := NewDB(schema.Fig1())
		src := fmt.Sprintf(`[{"ID":"Stimuli:%d","Type":"Stimuli","Created":"2026-01-01T00:00:00Z"}]`, seq)
		if err := db.Restore(strings.NewReader(src)); err != nil {
			t.Fatalf("Restore(Stimuli:%d): %v", seq, err)
		}
		if got := db.Seq(); got != seq {
			t.Errorf("Seq after restoring Stimuli:%d = %d", seq, got)
		}
	}
	db := NewDB(schema.Fig1())
	src := fmt.Sprintf(`[{"ID":"Stimuli:%d","Type":"Stimuli","Created":"2026-01-01T00:00:00Z"}]`, 2+maxSeqGap)
	if err := db.Restore(strings.NewReader(src)); err == nil {
		t.Errorf("Restore accepted a sequence number %d past the record count", 1+maxSeqGap)
	}
}

// FuzzRestore feeds Restore arbitrary bytes, starting from the
// fixture's dump and the refused dumps above. Restore never panics; a
// refused dump leaves the database empty; and an accepted one dumps to
// bytes that restore to the same dump.
func FuzzRestore(f *testing.F) {
	db, _ := fixture(f)
	var dump bytes.Buffer
	if err := db.DumpJSON(&dump); err != nil {
		f.Fatal(err)
	}
	f.Add(dump.Bytes())
	for _, c := range restoreErrorCases {
		f.Add([]byte(c.src))
	}
	s := db.Schema()
	f.Fuzz(func(t *testing.T, src []byte) {
		db := NewDB(s)
		if err := db.Restore(bytes.NewReader(src)); err != nil {
			if db.Len() != 0 {
				t.Fatalf("refused restore (%v) left %d instances", err, db.Len())
			}
			return
		}
		var first, second bytes.Buffer
		if err := db.DumpJSON(&first); err != nil {
			t.Fatalf("dumping a restored database: %v", err)
		}
		again := NewDB(s)
		if err := again.Restore(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("restoring a dump: %v\n%s", err, first.Bytes())
		}
		if err := again.DumpJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("dump is not a fixed point:\n%s\n---\n%s", first.Bytes(), second.Bytes())
		}
	})
}

func TestInstanceHelpers(t *testing.T) {
	db, ids := fixture(t)
	p := db.Get(ids["p1"])
	if got := p.InputIDs(); len(got) != 2 {
		t.Errorf("InputIDs = %v", got)
	}
	if s := p.String(); !strings.Contains(s, "adder perf") || !strings.Contains(s, "by sutton") {
		t.Errorf("String = %q", s)
	}
	anon := db.Get(ids["st"])
	anon.Name = ""
	anon.User = ""
	if s := anon.String(); s != string(anon.ID) {
		t.Errorf("bare String = %q", s)
	}
	if db.Schema() == nil {
		t.Error("Schema() nil")
	}
	if tn, ok := db.TypeOf(ids["p1"]); !ok || tn != "Performance" {
		t.Errorf("TypeOf = %q, %v", tn, ok)
	}
	if _, ok := db.TypeOf("Nope:1"); ok {
		t.Error("TypeOf of missing should miss")
	}
	dump := db.Dump()
	if !strings.Contains(dump, string(ids["p1"])) {
		t.Errorf("Dump missing instance:\n%s", dump)
	}
}

func TestSeqOf(t *testing.T) {
	cases := map[ID]int{
		"Performance:17":              17,
		"NoColon":                     0,
		"Bad:xx":                      0,
		"A:B:9":                       9,
		"Empty:":                      0,
		"Zero:0":                      0,
		"Signed:-5":                   0,
		"Plus:+5":                     0,
		"Cell:07":                     7,
		"Max:999999999999999999":      999999999999999999,
		"Long:1000000000000000000":    0,
		"Huge:9999999999999999999999": 0,
	}
	for id, want := range cases {
		if got := SeqOf(id); got != want {
			t.Errorf("SeqOf(%s) = %d, want %d", id, got, want)
		}
	}
	for _, seq := range []int{1, 9, 10, 4000, 1 << 40} {
		if got := SeqOf(MakeID("Cell", seq)); got != seq {
			t.Errorf("SeqOf(MakeID(Cell, %d)) = %d", seq, got)
		}
	}
}
