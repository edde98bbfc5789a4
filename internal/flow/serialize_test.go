package flow

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/history"
	"repro/internal/schema"
)

func encodeDecode(t *testing.T, f *Flow, resolver Resolver) *Flow {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	out, err := Decode(&buf, f.Schema(), resolver)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return out
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f, ids := fig5Flow(t)
	got := encodeDecode(t, f, nil)
	if got.Len() != f.Len() {
		t.Fatalf("len %d -> %d", f.Len(), got.Len())
	}
	// Structure preserved: same render.
	if got.Render() != f.Render() {
		t.Errorf("render changed:\n%s\nvs\n%s", f.Render(), got.Render())
	}
	// Node identity preserved.
	for _, id := range f.NodeIDs() {
		a, b := f.Node(id), got.Node(id)
		if b == nil || a.Type != b.Type {
			t.Errorf("node %d: %v vs %v", id, a, b)
		}
	}
	// Further construction works: the ID counter resumes past existing
	// nodes instead of colliding.
	nid := got.MustAdd("Stimuli")
	for _, id := range f.NodeIDs() {
		if id == nid {
			t.Fatalf("new node %d collides with existing", nid)
		}
	}
	_ = ids
}

func TestEncodeDecodePreservesBindings(t *testing.T) {
	db := history.NewDB(schema.Fig1())
	st := db.MustRecord(history.Instance{Type: "Stimuli"})
	st2 := db.MustRecord(history.Instance{Type: "Stimuli"})
	f := New(schema.Fig1(), db)
	perf := f.MustAdd("Performance")
	if err := f.ExpandDown(perf, false); err != nil {
		t.Fatal(err)
	}
	stim, _ := f.Node(perf).Dep("Stimuli")
	if err := f.Bind(stim, st.ID, st2.ID); err != nil {
		t.Fatal(err)
	}
	got := encodeDecode(t, f, db)
	bound := got.Node(stim).Bound()
	if len(bound) != 2 || bound[0] != st.ID || bound[1] != st2.ID {
		t.Errorf("bindings = %v", bound)
	}
}

func TestDecodeChecksBindingsAgainstResolver(t *testing.T) {
	db := history.NewDB(schema.Fig1())
	st := db.MustRecord(history.Instance{Type: "Stimuli"})
	f := New(schema.Fig1(), db)
	perf := f.MustAdd("Performance")
	if err := f.ExpandDown(perf, false); err != nil {
		t.Fatal(err)
	}
	stim, _ := f.Node(perf).Dep("Stimuli")
	if err := f.Bind(stim, st.ID); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	// Decoding against an *empty* database: the binding is stale.
	empty := history.NewDB(schema.Fig1())
	if _, err := Decode(bytes.NewReader(buf.Bytes()), schema.Fig1(), empty); err == nil {
		t.Error("stale binding should fail against an empty resolver")
	}
	// Without a resolver the structural content loads (bindings taken on
	// faith, as before).
	if _, err := Decode(bytes.NewReader(buf.Bytes()), schema.Fig1(), nil); err != nil {
		t.Errorf("resolver-less decode: %v", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	s := schema.Fig1()
	cases := []struct{ name, src string }{
		{"garbage", "not json"},
		{"bad node id", `{"next":1,"nodes":[{"id":0,"type":"Stimuli"}]}`},
		{"dup node id", `{"next":2,"nodes":[{"id":1,"type":"Stimuli"},{"id":1,"type":"Stimuli"}]}`},
		{"unknown type", `{"next":1,"nodes":[{"id":1,"type":"Nope"}]}`},
		{"dangling dep", `{"next":1,"nodes":[{"id":1,"type":"Performance","deps":{"Circuit":9}}]}`},
		{"ill-typed dep", `{"next":2,"nodes":[{"id":1,"type":"Performance","deps":{"Circuit":2}},{"id":2,"type":"Stimuli"}]}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Decode(strings.NewReader(c.src), s, nil); err == nil {
				t.Errorf("Decode(%q) should fail", c.src)
			}
		})
	}
}

// TestDecodeRejectsHugeIDs feeds Decode node IDs and "next" values
// above the node-ID ceiling. Tables over a flow are sized from its
// largest ID, so each of these small documents once exhausted memory
// or panicked; now each is an error, and the ceiling itself still
// decodes.
func TestDecodeRejectsHugeIDs(t *testing.T) {
	s := schema.Fig1()
	cases := []struct{ name, src string }{
		{"huge next", `{"next":4000000000,"nodes":[{"id":1,"type":"Performance"}]}`},
		{"huge id", `{"next":1,"nodes":[{"id":3000000000,"type":"Performance"}]}`},
		{"max int next", `{"next":9223372036854775807,"nodes":[{"id":1,"type":"Performance"}]}`},
		{"max int id", `{"nodes":[{"id":9223372036854775807,"type":"Performance"}]}`},
		{"next past ceiling", fmt.Sprintf(`{"next":%d,"nodes":[{"id":1,"type":"Performance"}]}`, maxNodeID+1)},
		{"id past ceiling", fmt.Sprintf(`{"nodes":[{"id":%d,"type":"Performance"}]}`, maxNodeID+1)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Decode(strings.NewReader(c.src), s, nil); err == nil || !strings.Contains(err.Error(), "exceeds the limit") {
				t.Errorf("Decode(%q) = %v, want a limit error", c.src, err)
			}
		})
	}
	at := fmt.Sprintf(`{"next":%d,"nodes":[{"id":%d,"type":"Performance"}]}`, maxNodeID, maxNodeID)
	f, err := Decode(strings.NewReader(at), s, nil)
	if err != nil {
		t.Fatalf("Decode at the ceiling: %v", err)
	}
	if f.MaxID() != maxNodeID || f.Node(maxNodeID) == nil {
		t.Errorf("MaxID = %d, Node(%d) = %v", f.MaxID(), maxNodeID, f.Node(maxNodeID))
	}
	// The flow issues no ID above the ceiling either.
	if _, err := f.Add("Stimuli"); err == nil {
		t.Error("Add past the ceiling should fail")
	}
}

func TestUnexpandAfterDecodeUsesOriginals(t *testing.T) {
	// The designer-placed markers survive serialization, so Unexpand
	// after a reload behaves identically.
	f := New(schema.Fig1(), nil)
	perf := f.MustAdd("Performance")
	if err := f.ExpandDown(perf, false); err != nil {
		t.Fatal(err)
	}
	got := encodeDecode(t, f, nil)
	if err := got.Unexpand(perf); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Errorf("Len after unexpand = %d, want 1", got.Len())
	}
}
