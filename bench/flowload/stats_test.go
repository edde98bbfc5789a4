package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	twenty := make([]float64, 20)
	for i := range twenty {
		twenty[i] = float64(i + 1)
	}
	for _, c := range []struct {
		sorted     []float64
		p          float64
		want       float64
		wantBeyond int
	}{
		{ten, 50, 5, 5},
		{ten, 90, 9, 1},
		{ten, 91, 10, 0},
		{ten, 100, 10, 0},
		{ten, 1, 1, 9},
		{twenty, 90, 18, 2},
		{twenty, 95, 19, 1},
		{[]float64{42}, 50, 42, 0},
	} {
		got, beyond := percentile(c.sorted, c.p)
		if got != c.want || beyond != c.wantBeyond {
			t.Errorf("percentile(n=%d, p%v) = %v with %d beyond, want %v with %d",
				len(c.sorted), c.p, got, beyond, c.want, c.wantBeyond)
		}
	}
	if v, _ := percentile(nil, 50); !math.IsNaN(v) {
		t.Errorf("percentile of no samples = %v, want NaN", v)
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{100, 90}, {160, 93.75}, {1200, 1190.0 / 12}, {11, 100.0 / 11}} {
		p, ok := tailPercentile(c.n, 10)
		if !ok || math.Abs(p-c.want) > 1e-9 {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v", c.n, p, ok, c.want)
			continue
		}
		s := make([]float64, c.n)
		for i := range s {
			s[i] = float64(i)
		}
		if _, beyond := percentile(s, p); beyond != 10 {
			t.Errorf("n=%d: p%v leaves %d beyond, want 10", c.n, p, beyond)
		}
	}
	if _, ok := tailPercentile(10, 10); ok {
		t.Error("tailPercentile(10, 10) should have no percentile with 10 samples beyond")
	}
}

// The expected values are Python's statistics.quantiles(v, n=4), the
// definition the benchmark's acceptance check uses.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{10.5, 9.75, 11.25, 10.0, 10.125}, 9.875, 10.125, 10.875},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{7, 7, 7, 7, 7, 8}, 7, 7, 7.25},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestJudgeBoundAndUnresolved(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100.5}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		bound  float64
		want   string
	}{
		{"same", steady, []float64{100.2, 99.8, 100, 101, 99.5}, false, 0.1, agree},
		{"slower within bound", steady, []float64{108, 108.5, 107, 109, 108}, false, 0.1, agree},
		{"slower beyond bound", steady, []float64{112, 113, 111, 112, 112.5}, false, 0.1, worse},
		{"faster", steady, []float64{80, 81, 79, 80, 80.5}, false, 0.1, agree},
		{"rate drop beyond bound", steady, []float64{85, 86, 84, 85, 85}, true, 0.1, worse},
		{"rate drop within bound", steady, []float64{95, 96, 94, 95, 95}, true, 0.1, agree},
		// A wide spread on either side cannot resolve a change within
		// the bound, whichever way the medians lean...
		{"noisy change", steady, []float64{70, 100, 130, 90, 110}, false, 0.1, unresolved},
		{"noisy parent", []float64{70, 100, 130, 90, 110}, steady, false, 0.1, unresolved},
		// ...unless every run of the change beats every run of the parent.
		{"noisy but always better", []float64{100, 130, 160, 115, 145}, []float64{50, 80, 65, 95, 70}, false, 0.1, agree},
	} {
		if got := judge(c.a, c.b, c.higher, c.bound); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestLedgerAddsUpToRunP50Exactly(t *testing.T) {
	runP50 := msDur(104.760123)
	l := &layerResult{
		Metrics: map[string]float64{
			"harness.materialize_ms":          7.77224,
			"exec.run_ms":                     32.9831,
			"memo.overhead_ms":                20.4062,
			"exec.tracer_ms":                  12.3382,
			"provenance.index_feed_us":        0.69486,
			"provenance.chain_append_us":      2.23349,
			"provenance.chain_append_file_us": 3.21971,
			"trace.stream_encode_us":          0.683154,
			"storage.wal_ms":                  12.7628,
		},
		RecordsPerRun: 4000,
		EventsPerRun:  6002,
	}
	for _, wl := range []string{bigflow, durable} {
		lg := ledgerFor(wl, ms(runP50), 17.7789, l)
		if lg.attributed+lg.unattributed != runP50 {
			t.Errorf("%s: attributed %v + unattributed %v != run_p50 %v", wl, lg.attributed, lg.unattributed, runP50)
		}
		var shares float64
		terms := map[string]time.Duration{}
		for _, term := range lg.terms {
			shares += lg.share(term.cost)
			terms[term.name] = term.cost
		}
		shares += lg.share(lg.unattributed)
		if math.Abs(shares-1) > 1e-12 {
			t.Errorf("%s: shares sum to %v, want 1", wl, shares)
		}
		if len(lg.terms) != len(ledgerLayers) {
			t.Errorf("%s: %d terms, want one per ledger layer", wl, len(lg.terms))
		}
		wantProv := msDur((0.69486 + 2.23349) * 4000 / 1000)
		wantStorage := time.Duration(0)
		if wl == durable {
			wantProv = msDur((0.69486 + 3.21971) * 4000 / 1000)
			wantStorage = msDur(12.7628)
		}
		if terms["provenance"] != wantProv || terms["storage"] != wantStorage {
			t.Errorf("%s: provenance %v storage %v, want %v and %v",
				wl, terms["provenance"], terms["storage"], wantProv, wantStorage)
		}
		if want := msDur(17.7789 - 7.77224); terms["submit"] != want {
			t.Errorf("%s: submit term %v, want POST→201 less materialize = %v", wl, terms["submit"], want)
		}
	}
}
