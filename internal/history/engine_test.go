package history_test

import (
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/flowgen"
	"repro/internal/history"
)

// TestGraphDuringEngineRun feeds the graph through a real engine run,
// so the commits arrive through exec's recordJob path, and checks the
// differential equality against the oracle over every instance.
func TestGraphDuringEngineRun(t *testing.T) {
	b, err := flowgen.Build(flowgen.Spec{Cells: 40, Shape: flowgen.FanOutIn, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	before := b.DB.Len()
	eng := exec.New(b.Schema, b.DB, b.Store, b.Reg)
	res, err := eng.RunFlow(b.Flow)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Units == 0 {
		t.Fatal("engine ran no units")
	}
	all := b.DB.All()
	if len(all) <= before {
		t.Fatalf("graph has %d instances after the run, %d before", len(all), before)
	}
	if b.DB.Graph().Edges() == 0 {
		t.Fatal("graph has no edges after run")
	}
	for _, in := range all {
		nb, e1 := history.NaiveBackchain(b.DB, in.ID, -1)
		gb, e2 := b.DB.Backchain(in.ID, -1)
		if (e1 == nil) != (e2 == nil) || !reflect.DeepEqual(nb, gb) {
			t.Fatalf("backchain of %s diverges\noracle: %+v (%v)\ngraph:  %+v (%v)", in.ID, nb, e1, gb, e2)
		}
	}
}
