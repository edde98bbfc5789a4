package trace

import (
	"bytes"
	"errors"
	"log/slog"
	"reflect"
	"strings"
	"testing"
)

func sample(n int) []Event {
	events := make([]Event, n)
	for i := range events {
		events[i] = Event{Seq: i, Kind: KindUnitStarted, Job: i, Combo: 0, Unit: i}
	}
	return events
}

func TestMaskZeroesOnlyWallClockFields(t *testing.T) {
	ev := Event{
		Seq: 3, Kind: KindUnitCommitted, Job: 1, Combo: 2, Unit: 5,
		Nodes: []int{7}, Type: "Netlist", Insts: []string{"Netlist:9"},
		Run: "r-0001", Workers: 4, WaitMicros: 10, DurMicros: 20,
		BusyMicros: 30, ElapsedMicros: 40, CriticalMicros: 50, CriticalJobs: 6,
	}
	got := Mask(ev)
	if got.Run != "" || got.Workers != 0 || got.WaitMicros != 0 || got.DurMicros != 0 ||
		got.BusyMicros != 0 || got.ElapsedMicros != 0 || got.CriticalMicros != 0 || got.CriticalJobs != 0 {
		t.Errorf("mask left nondeterministic fields: %+v", got)
	}
	if got.Seq != 3 || got.Kind != KindUnitCommitted || got.Job != 1 ||
		got.Unit != 5 || len(got.Insts) != 1 {
		t.Errorf("mask damaged logical fields: %+v", got)
	}
	if ev.Run != "r-0001" || ev.Workers != 4 {
		t.Error("Mask mutated its argument")
	}
}

func TestDropKindsRenumbers(t *testing.T) {
	events := []Event{
		{Seq: 0, Kind: KindPlanBuilt},
		{Seq: 1, Kind: KindUnitStarted},
		{Seq: 2, Kind: KindUnitRetried, Attempt: 1},
		{Seq: 3, Kind: KindUnitTimedOut, Attempt: 2},
		{Seq: 4, Kind: KindUnitCommitted},
		{Seq: 5, Kind: KindRunFinished},
	}
	got := DropKinds(events, KindUnitRetried, KindUnitTimedOut)
	if len(got) != 4 {
		t.Fatalf("got %d events, want 4", len(got))
	}
	wantKinds := []Kind{KindPlanBuilt, KindUnitStarted, KindUnitCommitted, KindRunFinished}
	for i, ev := range got {
		if ev.Seq != i || ev.Kind != wantKinds[i] {
			t.Errorf("event %d = {seq:%d kind:%s}, want {seq:%d kind:%s}", i, ev.Seq, ev.Kind, i, wantKinds[i])
		}
	}
	// Numbering starts at the first event's Seq, dropped or not.
	got = DropKinds([]Event{{Seq: 5, Kind: KindUnitRetried}, {Seq: 6}, {Seq: 7}}, KindUnitRetried)
	if len(got) != 2 || got[0].Seq != 5 || got[1].Seq != 6 {
		t.Fatalf("dropping a leading Seq-5 event left %+v, want Seq 5 and 6", got)
	}
}

func TestMaskedJSONLIsStable(t *testing.T) {
	events := []Event{
		{Seq: 0, Kind: KindPlanBuilt, Job: -1, Combo: -1, Unit: -1, Run: "r-0001", Workers: 4, Jobs: 2, Units: 2},
		{Seq: 1, Kind: KindUnitDispatched, WaitMicros: 123},
	}
	a := MaskedJSONL(events)
	b := MaskedJSONL(events)
	if !bytes.Equal(a, b) {
		t.Error("MaskedJSONL not deterministic")
	}
	if bytes.Contains(a, []byte("r-0001")) || bytes.Contains(a, []byte("workers")) || bytes.Contains(a, []byte("wait_us")) {
		t.Errorf("masked output leaks nondeterministic fields:\n%s", a)
	}
	if !bytes.Contains(a, []byte(`"kind":"PlanBuilt"`)) {
		t.Errorf("masked output missing logical fields:\n%s", a)
	}
}

func TestBufferCollects(t *testing.T) {
	b := NewBuffer()
	for _, ev := range sample(3) {
		b.Emit(ev)
	}
	if got := b.Events(); len(got) != 3 || got[2].Seq != 2 {
		t.Errorf("buffer events = %+v", got)
	}
	b.Reset()
	if got := b.Events(); len(got) != 0 {
		t.Errorf("after reset: %+v", got)
	}
}

func TestRingKeepsMostRecent(t *testing.T) {
	r := NewRing(4)
	for _, ev := range sample(10) {
		r.Emit(ev)
	}
	if r.Total() != 10 {
		t.Errorf("total = %d, want 10", r.Total())
	}
	got := r.Events()
	if len(got) != 4 {
		t.Fatalf("retained %d, want 4", len(got))
	}
	for i, ev := range got {
		if ev.Seq != 6+i {
			t.Errorf("event %d has seq %d, want %d (oldest-first)", i, ev.Seq, 6+i)
		}
	}
}

func TestRingUnderCapacity(t *testing.T) {
	r := NewRing(8)
	for _, ev := range sample(3) {
		r.Emit(ev)
	}
	if got := r.Events(); len(got) != 3 || got[0].Seq != 0 {
		t.Errorf("events = %+v", got)
	}
}

func TestWriterEmitsJSONL(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Emit(Event{Seq: 0, Kind: KindUnitStarted, WaitMicros: 7})
	w.Emit(Event{Seq: 1, Kind: KindRunFinished, Job: -1, Combo: -1, Unit: -1})
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], `"wait_us":7`) {
		t.Errorf("writer output:\n%s", buf.String())
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestWriterErrorSticky(t *testing.T) {
	w := NewWriter(failWriter{})
	w.Emit(Event{Seq: 0})
	if err := w.Err(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("err = %v", err)
	}
	w.Emit(Event{Seq: 1}) // must not panic or clobber the error
	if err := w.Err(); err == nil {
		t.Error("error was not sticky")
	}
}

func TestSlogSinkLogs(t *testing.T) {
	var buf bytes.Buffer
	s := NewSlogSink(slog.New(slog.NewTextHandler(&buf, nil)))
	s.Emit(Event{Seq: 4, Kind: KindUnitRetried, Job: 1, Combo: 0, Unit: 1, Type: "Netlist", Attempt: 2, Err: "boom"})
	s.Emit(Event{Seq: 5, Kind: KindRunFinished, Job: -1, Combo: -1, Unit: -1, Committed: 3})
	out := buf.String()
	for _, want := range []string{"msg=UnitRetried", "seq=4", "attempt=2", "err=boom", "msg=RunFinished", "committed=3"} {
		if !strings.Contains(out, want) {
			t.Errorf("slog output missing %q:\n%s", want, out)
		}
	}
}

func TestSlogSinkNilLoggerDefaults(t *testing.T) {
	if NewSlogSink(nil).log == nil {
		t.Error("nil logger not defaulted")
	}
}

func TestMultiFansOut(t *testing.T) {
	a, b := NewBuffer(), NewRing(2)
	m := Multi(a, b)
	m.Emit(Event{Seq: 0, Kind: KindPlanBuilt})
	if len(a.Events()) != 1 || b.Total() != 1 {
		t.Error("multi did not reach every sink")
	}
}

func TestMetricsFold(t *testing.T) {
	m := NewMetrics()
	events := []Event{
		{Kind: KindPlanBuilt, Units: 3, Workers: 2},
		{Kind: KindUnitDispatched, WaitMicros: 50},
		{Kind: KindUnitStarted},
		{Kind: KindUnitRetried, Attempt: 1},
		{Kind: KindUnitTimedOut, Attempt: 2},
		{Kind: KindUnitCommitted, DurMicros: 2000},
		{Kind: KindUnitDispatched, WaitMicros: 200_000},
		{Kind: KindUnitStarted},
		{Kind: KindUnitFailed, Attempt: 3, DurMicros: 500},
		{Kind: KindUnitSkipped},
		{Kind: KindRunFinished, Workers: 2, BusyMicros: 1500, ElapsedMicros: 1000},
	}
	for _, ev := range events {
		m.Emit(ev)
	}
	s := m.Snapshot()
	want := Snapshot{Runs: 1, Planned: 3, Dispatched: 2, Started: 2, Retried: 1,
		TimedOut: 1, Failed: 1, Skipped: 1, Committed: 1, Occupancy: 0.75,
		Busy: s.Busy, Elapsed: s.Elapsed}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("snapshot = %+v, want %+v", s, want)
	}
	if s.Occupancy != 0.75 {
		t.Errorf("occupancy = %v, want 0.75", s.Occupancy)
	}

	out := m.Expose()
	for _, want := range []string{
		"flow_runs_total 1",
		"flow_units_dispatched_total 2",
		"flow_unit_retries_total 1",
		"flow_unit_timeouts_total 1",
		"flow_units_failed_total 1",
		"flow_units_skipped_total 1",
		"flow_units_committed_total 1",
		"flow_worker_occupancy 0.7500",
		`flow_unit_duration_seconds_bucket{le="0.001"} 1`,
		"flow_unit_duration_seconds_count 2",
		`flow_queue_wait_seconds_bucket{le="+Inf"} 2`,
		"flow_queue_wait_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if m.Expose() != out {
		t.Error("exposition not deterministic")
	}
}

func TestMetricsExposeEmpty(t *testing.T) {
	out := NewMetrics().Expose()
	for _, want := range []string{"flow_runs_total 0", "flow_unit_duration_seconds_count 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("empty exposition missing %q:\n%s", want, out)
		}
	}
}
