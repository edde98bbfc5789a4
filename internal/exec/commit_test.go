package exec

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/encap"
	"repro/internal/faults"
	"repro/internal/flow"
	"repro/internal/history"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Tests of the run's committer: the goroutine that commits finished
// jobs in plan order while the coordinator keeps dispatching.

// A plan with no jobs (every target is bound) still opens and closes
// its stream: the trace is exactly PlanBuilt then RunFinished, so a
// durable zero-job run's log records a finished run.
func TestTraceEmptyPlan(t *testing.T) {
	r := newRig(t)
	f := flow.New(r.s, r.db)
	stim := f.MustAdd("Stimuli")
	if err := f.Bind(stim, r.ids["stim"]); err != nil {
		t.Fatal(err)
	}
	buf := trace.NewBuffer()
	ml := storage.NewMemLog()
	w := storage.NewRunWAL(ml)
	res, err := r.engine.RunFlowOptions(context.Background(), f, &RunOptions{Tracer: buf, WAL: w})
	if err != nil {
		t.Fatalf("zero-job run: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if res.TasksRun != 0 || len(res.Created[stim]) != 1 || res.Created[stim][0] != r.ids["stim"] {
		t.Fatalf("zero-job result: tasks %d, created %v; want 0 tasks and the bound stimuli", res.TasksRun, res.Created)
	}
	events := buf.Events()
	if len(events) != 2 || events[0].Kind != trace.KindPlanBuilt || events[1].Kind != trace.KindRunFinished ||
		events[0].Seq != 0 || events[1].Seq != 1 {
		t.Fatalf("zero-job trace = %+v, want [PlanBuilt RunFinished]", events)
	}
	if fin := events[1]; fin.Jobs != 0 || fin.Units != 0 || fin.Committed != 0 {
		t.Fatalf("zero-job RunFinished = %+v, want no jobs, units or commits", fin)
	}
	rec, err := storage.RecoverRun(ml)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Finished {
		t.Fatal("zero-job run's WAL does not record a finished run")
	}
}

// A commit that fails stops the run: the tool of every job records an
// extra instance into the run's own database while it runs, so the
// first job's commit gets an ID the planner did not assign. The run
// returns that error, commits nothing after it, still closes its
// trace with RunFinished, and returns — the committer was joined.
func TestTraceCommitFailure(t *testing.T) {
	r := newRig(t)
	r.engine.SetWorkers(2)
	std := encap.StandardRegistry()
	netEd, err := std.Lookup(r.s, "NetlistEditor")
	if err != nil {
		t.Fatal(err)
	}
	r.engine.reg.Register("NetlistEditor", encap.Func(func(req *encap.Request) (encap.Outputs, error) {
		if _, err := r.db.Record(history.Instance{Type: "Stimuli", Name: "intruder", User: "tool"}); err != nil {
			return nil, err
		}
		return netEd.Run(req)
	}))
	f := fig6BranchFlow(t, r, 4)
	buf := trace.NewBuffer()

	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := r.engine.RunFlowOptions(context.Background(), f, &RunOptions{Tracer: buf})
		done <- outcome{res, err}
	}()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run with a failing commit did not return")
	}

	if out.err == nil || !strings.Contains(out.err.Error(), "nondeterministic recording") {
		t.Fatalf("err = %v, want the commit's nondeterministic-recording error", out.err)
	}
	if out.res.TasksRun != 0 {
		t.Errorf("TasksRun = %d, want 0: nothing commits after the failed commit", out.res.TasksRun)
	}
	events := buf.Events()
	for _, ev := range events {
		if ev.Kind == trace.KindUnitCommitted {
			t.Errorf("trace has %s for unit %d; the first commit failed", ev.Kind, ev.Unit)
		}
	}
	if n := len(events); n == 0 || events[n-1].Kind != trace.KindRunFinished {
		t.Fatalf("trace does not end with RunFinished: %v", events)
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has Seq %d", i, ev.Seq)
		}
	}
}

// seqSink is a sink without a lock. It requires one run's events to
// arrive one at a time in Seq order with no gap. A run emits from its
// coordinator and from its committer, so under -race any two emits
// the engine fails to order are reported as a data race on the sink.
type seqSink struct {
	t      *testing.T
	next   int
	kinds  []trace.Kind
	onEmit func(trace.Event)
}

func (s *seqSink) Emit(ev trace.Event) {
	if ev.Seq != s.next {
		s.t.Errorf("%s arrived with Seq %d, want %d", ev.Kind, ev.Seq, s.next)
	}
	s.next = ev.Seq + 1
	s.kinds = append(s.kinds, ev.Kind)
	if s.onEmit != nil {
		s.onEmit(ev)
	}
}

// TestTraceOneEmitter pins the promise that a sink observing one run
// needs no lock, on every path a run can end by.
func TestTraceOneEmitter(t *testing.T) {
	ctx := context.Background()
	// wideFlow is perfFlow plus n disjoint branches, so several jobs
	// finish while earlier ones are still being committed.
	wideFlow := func(t *testing.T, r *rig, n int) *flow.Flow {
		f, _ := r.perfFlow(t)
		for i := 0; i < n; i++ {
			addBranch(t, r, f)
		}
		return f
	}
	poisoned := func(t *testing.T, r *rig) *flow.Flow {
		inj := faults.New(5, faults.Config{})
		inj.SetToolConfig("LayoutEditor", faults.Config{PermanentRate: 1})
		inj.Instrument(r.engine.reg)
		f := wideFlow(t, r, 6)
		addExtractionChain(t, r, f)
		return f
	}

	cases := []struct {
		name    string
		wantErr bool
		// run executes one run into sink and returns its error; it sets
		// sink.next first when the run resumes a logged prefix.
		run func(t *testing.T, r *rig, sink *seqSink) error
	}{
		{name: "clean", run: func(t *testing.T, r *rig, sink *seqSink) error {
			_, err := r.engine.RunFlowOptions(ctx, wideFlow(t, r, 8), &RunOptions{Tracer: sink})
			return err
		}},
		{name: "fail-fast", wantErr: true, run: func(t *testing.T, r *rig, sink *seqSink) error {
			_, err := r.engine.RunFlowOptions(ctx, poisoned(t, r), &RunOptions{Tracer: sink})
			return err
		}},
		{name: "continue-on-error", wantErr: true, run: func(t *testing.T, r *rig, sink *seqSink) error {
			policy := ContinueOnError
			_, err := r.engine.RunFlowOptions(ctx, poisoned(t, r), &RunOptions{Tracer: sink, Policy: &policy})
			return err
		}},
		{name: "cancel", wantErr: true, run: func(t *testing.T, r *rig, sink *seqSink) error {
			// The simulation hangs until cancelled, so the run cannot
			// finish before the cancel lands.
			r.engine.reg.Register("InstalledSimulator", encap.Func(func(req *encap.Request) (encap.Outputs, error) {
				<-req.Ctx.Done()
				return nil, req.Ctx.Err()
			}))
			cctx, cancel := context.WithCancel(ctx)
			defer cancel()
			sink.onEmit = func(ev trace.Event) {
				if ev.Kind == trace.KindUnitCommitted {
					cancel()
				}
			}
			_, err := r.engine.RunFlowOptions(cctx, wideFlow(t, r, 8), &RunOptions{Tracer: sink})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want context.Canceled", err)
			}
			return err
		}},
		{name: "resume", run: func(t *testing.T, r *rig, sink *seqSink) error {
			victim := newRig(t)
			ml := storage.NewMemLog()
			w := storage.NewRunWAL(ml)
			if _, err := victim.engine.RunFlowOptions(ctx, wideFlow(t, victim, 8), &RunOptions{WAL: w}); err != nil {
				t.Fatalf("victim run: %v", err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			recs, err := ml.Committed()
			if err != nil {
				t.Fatal(err)
			}
			if err := ml.Rewind(len(recs) / 2); err != nil {
				t.Fatal(err)
			}
			rec, err := storage.RecoverRun(ml)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Finished || len(rec.Commits) == 0 {
				t.Fatalf("truncated log recovered finished=%v with %d commits, want an interrupted prefix with commits",
					rec.Finished, len(rec.Commits))
			}
			if err := rec.Rewind(ml); err != nil {
				t.Fatal(err)
			}
			sink.next = rec.NextSeq
			rw := storage.NewRunWAL(ml)
			defer rw.Close()
			_, err = r.engine.RunFlowOptions(ctx, wideFlow(t, r, 8), &RunOptions{Tracer: sink, WAL: rw, Resume: rec})
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t)
			r.engine.SetWorkers(4)
			sink := &seqSink{t: t}
			if err := c.run(t, r, sink); (err != nil) != c.wantErr {
				t.Fatalf("err = %v, want an error: %v", err, c.wantErr)
			}
			if len(sink.kinds) == 0 || sink.kinds[len(sink.kinds)-1] != trace.KindRunFinished {
				t.Fatalf("stream %v does not end with RunFinished", sink.kinds)
			}
			if c.name != "resume" && sink.kinds[0] != trace.KindPlanBuilt {
				t.Fatalf("stream %v does not start with PlanBuilt", sink.kinds)
			}
		})
	}
}
