package provenance_test

import (
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/flowgen"
	"repro/internal/provenance"
)

// TestIndexDuringEngineRun attaches the index before a real engine run,
// so the commits arrive through exec's recordJob path, and checks the
// differential equality over the run's results. It lives in the
// external test package because exec itself imports provenance.
func TestIndexDuringEngineRun(t *testing.T) {
	b, err := flowgen.Build(flowgen.Spec{Cells: 40, Shape: flowgen.FanOutIn, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	idx := provenance.NewIndex()
	b.DB.Observe(idx)
	eng := exec.New(b.Schema, b.DB, b.Store, b.Reg)
	res, err := eng.RunFlow(b.Flow)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Units == 0 {
		t.Fatal("engine ran no units")
	}
	if idx.Len() != b.DB.Len() {
		t.Fatalf("index has %d instances, db has %d after run", idx.Len(), b.DB.Len())
	}
	if idx.Edges() == 0 {
		t.Fatal("index has no edges after run")
	}
	for _, id := range b.DB.All() {
		nb, e1 := b.DB.Backchain(id.ID, -1)
		ib, e2 := idx.Backchain(id.ID, -1)
		if (e1 == nil) != (e2 == nil) || !reflect.DeepEqual(nb, ib) {
			t.Fatalf("backchain of %s diverges\nnaive:   %+v (%v)\nindexed: %+v (%v)", id.ID, nb, e1, ib, e2)
		}
	}
}
