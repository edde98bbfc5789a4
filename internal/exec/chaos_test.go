package exec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/encap"
	"repro/internal/faults"
	"repro/internal/flow"
	"repro/internal/history"
)

// This file is the chaos suite: the fault-tolerance layer exercised
// against the deterministic injector (internal/faults). The tests pin
// the three acceptance properties of the layer — retried runs converge
// to the fault-free history byte for byte, graceful degradation
// completes every branch a failure cannot reach, and hung tools are cut
// off by the task timeout — plus the setter/concurrency guards and the
// error-path contents of Result.

// addBranch adds one bound EditedNetlist branch to f and returns its
// node.
func addBranch(t *testing.T, r *rig, f *flow.Flow) flow.NodeID {
	t.Helper()
	n := f.MustAdd("EditedNetlist")
	if err := f.ExpandDown(n, false); err != nil {
		t.Fatal(err)
	}
	tn, _ := f.Node(n).Dep("fd")
	if err := f.Bind(tn, r.ids["netEdGen"]); err != nil {
		t.Fatal(err)
	}
	return n
}

// addExtractionChain adds ExtractedNetlist <- (extractor, EditedLayout
// <- layEdGen) and returns (extracted, editedLayout).
func addExtractionChain(t *testing.T, r *rig, f *flow.Flow) (flow.NodeID, flow.NodeID) {
	t.Helper()
	net := f.MustAdd("ExtractedNetlist")
	if err := f.ExpandDown(net, false); err != nil {
		t.Fatal(err)
	}
	extrN, _ := f.Node(net).Dep("fd")
	layN, _ := f.Node(net).Dep("Layout")
	if err := f.Specialize(layN, "EditedLayout"); err != nil {
		t.Fatal(err)
	}
	if err := f.ExpandDown(layN, false); err != nil {
		t.Fatal(err)
	}
	layToolN, _ := f.Node(layN).Dep("fd")
	if err := f.Bind(extrN, r.ids["extractor"]); err != nil {
		t.Fatal(err)
	}
	if err := f.Bind(layToolN, r.ids["layEdGen"]); err != nil {
		t.Fatal(err)
	}
	return net, layN
}

func dumpHistory(t *testing.T, db *history.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.DumpJSON(&buf); err != nil {
		t.Fatalf("DumpJSON: %v", err)
	}
	return buf.Bytes()
}

// TestChaosRetriedRunMatchesCleanRun is the determinism acceptance
// test: a run where every tool site fails transiently once and is
// retried must record a history byte-identical to a fault-free run.
func TestChaosRetriedRunMatchesCleanRun(t *testing.T) {
	fixed := time.Date(1993, 6, 14, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return fixed }

	clean := newRigClock(t, clock)
	fClean, _ := clean.perfFlow(t)
	if _, err := clean.engine.RunFlow(fClean); err != nil {
		t.Fatalf("clean run: %v", err)
	}

	faulty := newRigClock(t, clock)
	inj := faults.New(99, faults.Config{TransientRate: 1, TransientRuns: 1})
	inj.Instrument(faulty.engine.reg)
	retry := &RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Microsecond, Seed: 7}
	fFaulty, _ := faulty.perfFlow(t)
	opts, m := counted(RunOptions{Retry: retry})
	if _, err := faulty.run(fFaulty, opts); err != nil {
		t.Fatalf("faulty run should succeed after retries: %v", err)
	}
	if m.Snapshot().Retried == 0 {
		t.Error("run reported zero retries; the injector should have forced some")
	}
	if c := inj.Counters(); c.Transients == 0 {
		t.Errorf("injector counters = %+v, want transient failures", c)
	}
	if got, want := dumpHistory(t, faulty.db), dumpHistory(t, clean.db); !bytes.Equal(got, want) {
		t.Errorf("retried history differs from fault-free history:\n--- clean ---\n%s\n--- retried ---\n%s", want, got)
	}
}

// TestChaosContinueOnErrorPartialCompletion is the graceful-degradation
// acceptance test: one poisoned branch of a Fig. 6-style flow must not
// stop the seven independent branches, and the aggregated error names
// the root-cause construction and every skipped node.
func TestChaosContinueOnErrorPartialCompletion(t *testing.T) {
	r := newRig(t)
	inj := faults.New(5, faults.Config{})
	inj.SetToolConfig("LayoutEditor", faults.Config{PermanentRate: 1})
	inj.Instrument(r.engine.reg)
	r.engine.SetWorkers(4)

	f := flow.New(r.s, r.db)
	var good []flow.NodeID
	for i := 0; i < 7; i++ {
		good = append(good, addBranch(t, r, f))
	}
	net, layN := addExtractionChain(t, r, f)

	seqBefore := r.db.Seq()
	res, err := r.engine.RunFlowOptions(context.Background(), f, &RunOptions{Policy: ptr(ContinueOnError)})
	if err == nil {
		t.Fatal("poisoned run must still report an error")
	}

	// Every independent branch completed and committed.
	for _, n := range good {
		if _, oneErr := res.One(n); oneErr != nil {
			t.Errorf("independent branch %d not completed: %v", n, oneErr)
		}
	}
	if res.TasksRun != 7 {
		t.Errorf("TasksRun = %d, want 7 (the independent branches)", res.TasksRun)
	}
	// The error names the root-cause unit and the skipped node.
	msg := err.Error()
	if !strings.Contains(msg, "injected permanent failure") {
		t.Errorf("error lacks root-cause unit failure: %v", msg)
	}
	want := fmt.Sprintf("node %d (ExtractedNetlist) skipped: producer node %d (EditedLayout) failed", net, layN)
	if !strings.Contains(msg, want) {
		t.Errorf("error lacks skip entry %q:\n%v", want, msg)
	}
	if len(res.Skipped) != 1 || res.Skipped[0] != net {
		t.Errorf("res.Skipped = %v, want [%d]", res.Skipped, net)
	}
	if fin := res.Finished; fin.Skipped != 1 || fin.Failed != 1 {
		t.Errorf("RunFinished faults = skipped %d / failed %d, want 1 / 1", fin.Skipped, fin.Failed)
	}
	// Nothing from the poisoned chain was recorded, and the pre-assigned
	// IDs of the failed and skipped constructions were retired so the
	// committed survivors kept their planned IDs (recordJob asserts the
	// match) and the sequence accounts for every planned instance.
	if got := r.db.InstancesOf("ExtractedNetlist"); len(got) != 0 {
		t.Errorf("skipped construction recorded: %v", got)
	}
	if got, want := r.db.Seq(), seqBefore+9; got != want {
		t.Errorf("seq after degraded run = %d, want %d (7 committed + 2 retired)", got, want)
	}
	// The database still records cleanly afterwards.
	if _, recErr := r.db.Record(history.Instance{Type: "Stimuli", User: "t", Data: r.store.Put([]byte("x"))}); recErr != nil {
		t.Errorf("record after degraded run: %v", recErr)
	}
}

// TestChaosHungToolCutOffByTaskTimeout is the liveness acceptance test:
// a tool that hangs for an hour is cut off by the 50ms task timeout and
// the run returns promptly with context.DeadlineExceeded.
func TestChaosHungToolCutOffByTaskTimeout(t *testing.T) {
	r := newRig(t)
	inj := faults.New(11, faults.Config{HangRate: 1, HangLimit: time.Hour})
	inj.Instrument(r.engine.reg)

	f := flow.New(r.s, r.db)
	addBranch(t, r, f)
	opts, m := counted(RunOptions{TaskTimeout: ptr(50 * time.Millisecond)})
	start := time.Now()
	_, err := r.run(f, opts)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "task timeout") {
		t.Errorf("error should name the task timeout: %v", err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("run took %v; the timeout did not cut the hang off", elapsed)
	}
	if got := m.Snapshot().TimedOut; got < 1 {
		t.Errorf("the events count %d timeouts, want the hang's", got)
	}
}

// Cancelling the run context stops the run promptly: in-flight delays
// are interrupted, nothing further dispatches, and ctx's error is
// joined into the returned error.
func TestChaosRunCancellation(t *testing.T) {
	r := newRig(t)
	r.engine.SetWorkers(2)
	f := flow.New(r.s, r.db)
	for i := 0; i < 6; i++ {
		addBranch(t, r, f)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := r.engine.RunFlowOptions(ctx, f, &RunOptions{TaskDelay: fixedDelay(30 * time.Millisecond)})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the context deadline", err)
	}
	if !strings.Contains(err.Error(), "run cancelled") {
		t.Errorf("error should report cancellation: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancelled run took %v", elapsed)
	}
	if res.TasksRun >= 6 {
		t.Errorf("TasksRun = %d; a cancelled run should not finish all branches", res.TasksRun)
	}
}

// Cancelling a run whose tool ignores Request.Ctx, with no task
// timeout set, still ends the run promptly with context.Canceled: a
// cancellable run's attempt runs on a watchdog goroutine, which the run
// abandons while the tool blocks. The tool is released afterwards.
func TestCancelAbandonsToolIgnoringContext(t *testing.T) {
	r := newRig(t)
	started, release := make(chan struct{}), make(chan struct{})
	r.engine.reg.Register("NetlistEditor", encap.Func(func(req *encap.Request) (encap.Outputs, error) {
		close(started)
		<-release // never reads req.Ctx
		return encap.Outputs{req.Goal: []byte("late")}, nil
	}))
	defer close(release)
	f := flow.New(r.s, r.db)
	addBranch(t, r, f)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := r.engine.RunFlowOptions(ctx, f, &RunOptions{})
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the cancelled run waited for the tool that ignores its context")
	}
}

// Backoff is full jitter — bounded by Base·2ⁿ — and a pure function of
// (Seed, job, combo, attempt).
func TestBackoffDeterministicFullJitter(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, Seed: 42}
	other := p
	other.Seed = 43
	differs := false
	for job := 0; job < 3; job++ {
		for attempt := 0; attempt < 5; attempt++ {
			d := p.backoff(job, 0, attempt)
			if d != p.backoff(job, 0, attempt) {
				t.Fatalf("backoff(%d,0,%d) not deterministic", job, attempt)
			}
			ceil := time.Millisecond << attempt
			if d < 0 || d >= ceil {
				t.Errorf("backoff(%d,0,%d) = %v, want in [0, %v)", job, attempt, d, ceil)
			}
			if other.backoff(job, 0, attempt) != d {
				differs = true
			}
		}
	}
	if !differs {
		t.Error("two seeds produced identical jitter everywhere")
	}
}

// The engine's setters — the pool size and the admission bounds — are
// safe to call during a run: in a long-lived daemon a misordered call
// must never crash the process or disturb the run in flight. Admission
// applies the new bounds at once; the pool is resized for the next run
// admitted while none is in flight.
func TestSettersSafeDuringRun(t *testing.T) {
	r := newRig(t)
	release := make(chan struct{})
	started := make(chan struct{})
	var once bool
	r.engine.reg.Register("NetlistEditor", encap.Func(func(req *encap.Request) (encap.Outputs, error) {
		if !once {
			once = true
			close(started)
		}
		<-release
		return encap.Outputs{req.Goal: []byte("ok")}, nil
	}))
	f := flow.New(r.s, r.db)
	n := addBranch(t, r, f)

	done := make(chan *Result, 1)
	go func() {
		res, err := r.engine.RunFlow(f)
		if err != nil {
			t.Errorf("first run: %v", err)
		}
		done <- res
	}()
	<-started

	// Every setter, mid-run. None may panic or touch the run in flight.
	r.engine.SetWorkers(2)
	r.engine.SetMaxConcurrentRuns(1)
	r.engine.SetMaxQueuedRuns(0)
	f2 := flow.New(r.s, r.db)
	addBranch(t, r, f2)
	addBranch(t, r, f2)
	if _, err := r.engine.RunFlow(f2); !errors.Is(err, ErrEngineBusy) {
		t.Errorf("run beside the in-flight one under bounds 1/0: err = %v, want ErrEngineBusy", err)
	}

	close(release)
	res := <-done
	if _, err := res.One(n); err != nil {
		t.Fatal(err)
	}
	if res.Finished.Workers != 1 {
		t.Errorf("in-flight run reports %d workers, want the 1 it was admitted with", res.Finished.Workers)
	}

	// The next run is admitted under the new bounds, on the resized pool.
	res2, err := r.engine.RunFlow(f2)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if res2.Finished.Workers != 2 {
		t.Errorf("next run reports %d workers, want 2", res2.Finished.Workers)
	}
}

// Two runs against the same history database serialize on it instead of
// being refused: the second blocks until the first's commit window
// closes, then runs to completion — both deterministic.
func TestConcurrentRunsSameDBSerialize(t *testing.T) {
	r := newRig(t)
	release := make(chan struct{})
	started := make(chan struct{})
	var once bool
	r.engine.reg.Register("NetlistEditor", encap.Func(func(req *encap.Request) (encap.Outputs, error) {
		if !once {
			once = true
			close(started)
		}
		<-release
		return encap.Outputs{req.Goal: []byte("ok")}, nil
	}))
	f := flow.New(r.s, r.db)
	n1 := addBranch(t, r, f)
	f2 := flow.New(r.s, r.db)
	n2 := addBranch(t, r, f2)

	done1 := make(chan *Result, 1)
	go func() {
		res, err := r.engine.RunFlow(f)
		if err != nil {
			t.Errorf("first run: %v", err)
		}
		done1 <- res
	}()
	<-started

	done2 := make(chan *Result, 1)
	go func() {
		res, err := r.engine.RunFlow(f2)
		if err != nil {
			t.Errorf("second run: %v", err)
		}
		done2 <- res
	}()
	// The second run must wait on the first's database lock, not fail.
	select {
	case <-done2:
		t.Fatal("second run finished while the first still held the database")
	case <-time.After(20 * time.Millisecond):
	}

	close(release)
	res1, res2 := <-done1, <-done2
	i1, err := res1.One(n1)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := res2.One(n2)
	if err != nil {
		t.Fatal(err)
	}
	if i1 == i2 {
		t.Errorf("both runs recorded the same instance %s", i1)
	}
}

// On failure, Result still reports Elapsed, the partial Created set,
// and the run's RunFinished — on one worker and on four.
func TestFailedRunResultPopulated(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			r := newRig(t)
			r.engine.SetWorkers(workers)
			r.engine.reg.Register("Extractor", &failingEncap{failAfter: 0})
			f := flow.New(r.s, r.db)
			_, layN := addExtractionChain(t, r, f)
			res, err := r.engine.RunFlow(f)
			if err == nil {
				t.Fatal("expected failure")
			}
			if res == nil {
				t.Fatal("failed run must still return a Result")
			}
			if res.Elapsed <= 0 {
				t.Error("failed run has no Elapsed")
			}
			if res.Finished == nil {
				t.Fatal("failed run has no RunFinished")
			}
			if res.Finished.Failed != 1 {
				t.Errorf("RunFinished.Failed = %d, want 1", res.Finished.Failed)
			}
			// The layout that succeeded before the extractor failed is in
			// the partial Created set and committed.
			if _, oneErr := res.One(layN); oneErr != nil {
				t.Errorf("partial Created lacks the completed producer: %v", oneErr)
			}
			if res.TasksRun != 1 {
				t.Errorf("TasksRun = %d, want 1", res.TasksRun)
			}
		})
	}
}

// A retrace that fails during planning still returns a Result carrying
// Elapsed, and one that fails mid-run reports the constructions rebuilt
// before the failure.
func TestRetraceErrorPathResultPopulated(t *testing.T) {
	r := newRig(t)
	res, err := r.engine.Retrace(history.ID("Performance:9999"))
	if err == nil {
		t.Fatal("retrace of a missing instance must fail")
	}
	if res == nil {
		t.Fatal("failed retrace must still return a result")
	}
	if res.Rebuilt == nil {
		t.Error("failed retrace result lacks the (empty) Rebuilt map")
	}

	// Mid-run failure: derive a performance, supersede its netlist, then
	// break the simulator so the re-simulation step fails.
	f, perf := r.perfFlow(t)
	runRes, err := r.engine.RunFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	pid, err := runRes.One(perf)
	if err != nil {
		t.Fatal(err)
	}
	inst := r.db.Get(pid)
	cct, _ := inst.InputFor("Circuit")
	netID, _ := r.db.Get(cct).InputFor("Netlist")
	old := r.db.Get(netID)
	oldData, _ := r.store.Get(old.Data)
	if _, err := r.db.Record(history.Instance{Type: "EditedNetlist", User: "t",
		Tool:   r.ids["netEdCopy"],
		Inputs: []history.Input{{Key: "Netlist", Inst: netID}},
		Data:   r.store.Put(append(append([]byte(nil), oldData...), []byte("# rev2\n")...))}); err != nil {
		t.Fatal(err)
	}
	r.engine.reg.Register("Simulator", &failingEncap{failAfter: 0})
	res, err = r.engine.Retrace(pid)
	if err == nil {
		t.Fatal("retrace with a broken simulator must fail")
	}
	if res == nil || res.Elapsed <= 0 {
		t.Fatalf("failed retrace result = %+v, want Elapsed set", res)
	}
	if len(res.Rebuilt) == 0 {
		t.Error("mid-run retrace failure should report the steps already rebuilt")
	}
}

// TestChaosRetraceRetriesTransient: a retrace is a run, so the retry
// policy covers its tool runs. With every tool site failing once, a
// retrace under a 3-attempt policy rebuilds the circuit and the
// performance.
func TestChaosRetraceRetriesTransient(t *testing.T) {
	r := newRig(t)
	f, perfN := r.perfFlow(t)
	res, err := r.engine.RunFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	pid, err := res.One(perfN)
	if err != nil {
		t.Fatal(err)
	}
	cctN, _ := f.Node(perfN).Dep("Circuit")
	netN, _ := f.Node(cctN).Dep("Netlist")
	net, err := res.One(netN)
	if err != nil {
		t.Fatal(err)
	}
	r.editNetlist(t, net)

	inj := faults.New(99, faults.Config{TransientRate: 1, TransientRuns: 1})
	inj.Instrument(r.engine.reg)
	retry := &RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Microsecond, Seed: 7}
	rr, err := r.engine.RetraceOptions(context.Background(), pid, &RunOptions{Retry: retry})
	if err != nil {
		t.Fatalf("retrace should succeed after retries: %v", err)
	}
	if len(rr.Rebuilt) != 2 { // circuit + performance
		t.Errorf("rebuilt = %v, want the circuit and the performance", rr.Rebuilt)
	}
	if c := inj.Counters(); c.Transients == 0 {
		t.Errorf("injector counters = %+v, want transient failures", c)
	}
}
