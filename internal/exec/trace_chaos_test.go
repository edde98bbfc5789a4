package exec

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/flow"
	"repro/internal/trace"
)

// Chaos-trace tests: under deterministic fault injection the event
// stream must record exactly what the faults force — retry events with
// the retry policy's attempt numbers, one timeout event per cut-off
// attempt, skip events naming Result.Skipped — and close with the
// RunFinished that Result.Finished returns.

// eventsByUnit groups a run's events of one kind by global unit index.
func eventsByUnit(events []trace.Event, kind trace.Kind) map[int][]trace.Event {
	out := make(map[int][]trace.Event)
	for _, ev := range events {
		if ev.Kind == kind {
			out[ev.Unit] = append(out[ev.Unit], ev)
		}
	}
	return out
}

// Every transiently failing site retries exactly TransientRuns times
// with consecutive attempt numbers, then commits without a trace of
// the attempts on the UnitCommitted event.
func TestTraceChaosRetryEventsMatchPolicy(t *testing.T) {
	r := newRig(t)
	inj := faults.New(3, faults.Config{TransientRate: 1, TransientRuns: 2})
	inj.Instrument(r.engine.reg)
	buf := trace.NewBuffer()
	f, _ := r.perfFlow(t)
	res, err := r.run(f, RunOptions{Tracer: buf, Retry: &RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Microsecond, Seed: 7}})
	if err != nil {
		t.Fatalf("run should succeed after retries: %v", err)
	}
	events := buf.Events()

	retries := eventsByUnit(events, trace.KindUnitRetried)
	total := 0
	for unit, evs := range retries {
		if len(evs) != 2 {
			t.Errorf("unit %d has %d UnitRetried events, want 2 (TransientRuns)", unit, len(evs))
		}
		for i, ev := range evs {
			if ev.Attempt != i+1 {
				t.Errorf("unit %d retry %d has attempt %d, want %d", unit, i, ev.Attempt, i+1)
			}
			if !strings.Contains(ev.Err, "transient") {
				t.Errorf("unit %d retry error %q does not name the injected fault", unit, ev.Err)
			}
		}
		total += len(evs)
	}
	// The three encapsulated tool runs fault; the Circuit composition
	// does not pass through the instrumented registry.
	if len(retries) != 3 {
		t.Errorf("%d units retried, want 3 (the encapsulated tool runs)", len(retries))
	}
	if total != 6 {
		t.Errorf("UnitRetried events = %d, want 6 (3 units × TransientRuns)", total)
	}
	for _, ev := range events {
		if ev.Kind == trace.KindUnitCommitted && ev.Attempt != 0 {
			t.Errorf("UnitCommitted carries attempt %d; it must be attempt-free for trace determinism", ev.Attempt)
		}
	}
	if got := len(eventsByUnit(events, trace.KindUnitCommitted)); got != res.TasksRun {
		t.Errorf("UnitCommitted units = %d, TasksRun = %d", got, res.TasksRun)
	}
}

// A site that outlives the retry budget emits MaxAttempts-1 UnitRetried
// events and one UnitFailed whose attempt equals MaxAttempts.
func TestTraceChaosRetryExhaustion(t *testing.T) {
	r := newRig(t)
	inj := faults.New(3, faults.Config{TransientRate: 1, TransientRuns: 10})
	inj.Instrument(r.engine.reg)
	buf := trace.NewBuffer()
	f := flow.New(r.s, r.db)
	addBranch(t, r, f)
	if _, err := r.run(f, RunOptions{Tracer: buf, Retry: &RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Microsecond, Seed: 7}}); err == nil {
		t.Fatal("run must fail once the retry budget is exhausted")
	}

	var kinds []trace.Kind
	var attempts []int
	for _, ev := range buf.Events() {
		if ev.Unit == 0 && (ev.Kind == trace.KindUnitRetried || ev.Kind == trace.KindUnitFailed) {
			kinds = append(kinds, ev.Kind)
			attempts = append(attempts, ev.Attempt)
		}
	}
	if len(kinds) != 3 || kinds[0] != trace.KindUnitRetried || kinds[1] != trace.KindUnitRetried || kinds[2] != trace.KindUnitFailed {
		t.Fatalf("attempt events = %v, want [UnitRetried UnitRetried UnitFailed]", kinds)
	}
	for i, a := range attempts {
		if a != i+1 {
			t.Errorf("attempt numbers = %v, want [1 2 3]", attempts)
			break
		}
	}
}

// A hung tool cut off by the task timeout emits one UnitTimedOut, then
// its UnitFailed.
func TestTraceChaosTimeoutEvents(t *testing.T) {
	r := newRig(t)
	inj := faults.New(11, faults.Config{HangRate: 1, HangLimit: time.Hour})
	inj.Instrument(r.engine.reg)
	buf := trace.NewBuffer()
	f := flow.New(r.s, r.db)
	addBranch(t, r, f)
	if _, err := r.run(f, RunOptions{Tracer: buf, TaskTimeout: ptr(50 * time.Millisecond)}); err == nil {
		t.Fatal("hung run must fail")
	}
	var timedOut, failed int
	for _, ev := range buf.Events() {
		switch ev.Kind {
		case trace.KindUnitTimedOut:
			timedOut++
			if !strings.Contains(ev.Err, "task timeout") {
				t.Errorf("UnitTimedOut err %q does not name the timeout", ev.Err)
			}
		case trace.KindUnitFailed:
			failed++
		}
	}
	if timedOut != 1 {
		t.Errorf("UnitTimedOut events = %d, want 1", timedOut)
	}
	if failed != 1 {
		t.Errorf("UnitFailed events = %d, want 1", failed)
	}
}

// Under ContinueOnError the UnitSkipped events name exactly the nodes
// of Result.Skipped and blame the root-cause producer, while the
// independent branches commit normally; the emitted RunFinished counts
// the failed unit and the skipped job, and is Result.Finished.
func TestTraceChaosSkipEventsMatchResult(t *testing.T) {
	r := newRig(t)
	inj := faults.New(5, faults.Config{})
	inj.SetToolConfig("LayoutEditor", faults.Config{PermanentRate: 1})
	inj.Instrument(r.engine.reg)
	r.engine.SetWorkers(4)
	buf := trace.NewBuffer()

	f := flow.New(r.s, r.db)
	for i := 0; i < 7; i++ {
		addBranch(t, r, f)
	}
	net, layN := addExtractionChain(t, r, f)
	res, err := r.run(f, RunOptions{Tracer: buf, Policy: ptr(ContinueOnError)})
	if err == nil {
		t.Fatal("poisoned run must still report an error")
	}
	events := buf.Events()

	skipped := make(map[flow.NodeID]bool)
	for _, ev := range events {
		if ev.Kind != trace.KindUnitSkipped {
			continue
		}
		for _, n := range ev.Nodes {
			skipped[flow.NodeID(n)] = true
		}
		if ev.Blame != int(layN) {
			t.Errorf("UnitSkipped blames node %d, want %d (the poisoned EditedLayout)", ev.Blame, layN)
		}
	}
	if len(skipped) != len(res.Skipped) || !skipped[net] {
		t.Errorf("UnitSkipped nodes %v != Result.Skipped %v", skipped, res.Skipped)
	}
	if got := len(eventsByUnit(events, trace.KindUnitCommitted)); got != 7 {
		t.Errorf("UnitCommitted units = %d, want 7 (the independent branches)", got)
	}
	var fin *trace.Event
	for i := range events {
		if events[i].Kind == trace.KindRunFinished {
			fin = &events[i]
		}
	}
	if fin == nil {
		t.Fatal("no RunFinished event")
	}
	if fin.Committed != res.TasksRun || fin.Failed != 1 || fin.Skipped != 1 {
		t.Errorf("RunFinished counters {committed:%d failed:%d skipped:%d}, want {%d 1 1}",
			fin.Committed, fin.Failed, fin.Skipped, res.TasksRun)
	}
	if res.Finished == nil {
		t.Fatal("Result.Finished is nil")
	}
	want := *fin
	want.Seq, want.Run = res.Finished.Seq, res.Finished.Run
	if !reflect.DeepEqual(*res.Finished, want) {
		t.Errorf("Result.Finished = %+v, want the emitted RunFinished %+v", *res.Finished, *fin)
	}
}
