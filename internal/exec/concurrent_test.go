package exec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datastore"
	"repro/internal/encap"
	"repro/internal/faults"
	"repro/internal/flow"
	"repro/internal/memo"
	"repro/internal/trace"
)

// This file is the multi-run suite: one long-lived engine executing
// many flows concurrently over its shared worker pool, exercised under
// the race detector. The acceptance property is determinism under
// concurrency: every run's masked trace must be byte-identical to the
// trace the same flow produces on an otherwise idle engine, no matter
// how many neighbours it shares the pool with, which of them are
// cancelled, or how admission interleaves them.

// serialMaskedTrace runs one fresh rig's perf flow alone on the engine
// and returns its masked JSONL — the reference every concurrent run is
// compared against.
func serialMaskedTrace(t *testing.T, e *Engine, store *datastore.Store) []byte {
	t.Helper()
	rg := newRigStore(t, nil, store)
	f, _ := rg.perfFlow(t)
	buf := trace.NewBuffer()
	if _, err := e.RunFlowOptions(context.Background(), f, &RunOptions{
		DB: rg.db, Tracer: buf, Label: "serial"}); err != nil {
		t.Fatalf("serial reference run: %v", err)
	}
	return trace.MaskedJSONL(buf.Events())
}

// One engine, 32 concurrent runs over a 4-worker pool, each with its
// own history database over a shared datastore. One run is cancelled
// mid-dispatch; every survivor's masked trace must stay byte-identical
// to the serial reference.
func TestManyConcurrentRunsDeterministicTraces(t *testing.T) {
	const runs = 32
	const cancelIdx = 13

	store := datastore.NewStore()
	host := newRigStore(t, nil, store)
	host.engine.SetWorkers(4)
	want := serialMaskedTrace(t, host.engine, store)

	type outcome struct {
		masked []byte
		err    error
	}
	flows := make([]*flow.Flow, runs)
	rigs := make([]*rig, runs)
	for i := range flows {
		rigs[i] = newRigStore(t, nil, store)
		flows[i], _ = rigs[i].perfFlow(t)
	}

	results := make([]outcome, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := trace.NewBuffer()
			opts := &RunOptions{DB: rigs[i].db, Tracer: buf,
				Label: fmt.Sprintf("run-%02d", i)}
			ctx := context.Background()
			if i == cancelIdx {
				// Slow this run's units down and cancel it mid-dispatch;
				// the per-run latency-injecting registry leaves the
				// neighbours untouched.
				reg := encap.StandardRegistry()
				faults.New(1, faults.Config{LatencyRate: 1, Latency: 50 * time.Millisecond}).Instrument(reg)
				opts.Registry = reg
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(ctx)
				go func() {
					time.Sleep(5 * time.Millisecond)
					cancel()
				}()
			}
			_, err := host.engine.RunFlowOptions(ctx, flows[i], opts)
			results[i] = outcome{masked: trace.MaskedJSONL(buf.Events()), err: err}
		}(i)
	}
	wg.Wait()

	for i, r := range results {
		if i == cancelIdx {
			if !errors.Is(r.err, context.Canceled) {
				t.Errorf("run %d: err = %v, want context.Canceled", i, r.err)
			}
			continue
		}
		if r.err != nil {
			t.Errorf("run %d: %v", i, r.err)
			continue
		}
		if !bytes.Equal(r.masked, want) {
			t.Errorf("run %d: masked trace diverged from the serial reference\n got:\n%s\nwant:\n%s",
				i, r.masked, want)
		}
	}
	if active, queued := host.engine.Runs(); active != 0 || queued != 0 {
		t.Errorf("engine not drained: %d active, %d queued", active, queued)
	}
}

// Admission control: with the concurrency bound and queue full, a new
// run is refused with the typed sentinel; queued runs are admitted FIFO
// once slots free up.
func TestAdmissionControlQueueFull(t *testing.T) {
	store := datastore.NewStore()
	host := newRigStore(t, nil, store)
	host.engine.SetMaxConcurrentRuns(1)
	host.engine.SetMaxQueuedRuns(2)

	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	host.engine.reg.Register("NetlistEditor", encap.Func(func(req *encap.Request) (encap.Outputs, error) {
		once.Do(func() { close(started) })
		<-release
		return encap.Outputs{req.Goal: []byte("ok")}, nil
	}))

	mkFlow := func() (*flow.Flow, *rig) {
		rg := newRigStore(t, nil, store)
		f := flow.New(rg.s, rg.db)
		addBranch(t, rg, f)
		return f, rg
	}

	// Run 1 occupies the only slot.
	f1, rg1 := mkFlow()
	done := make(chan error, 3)
	go func() {
		_, err := host.engine.RunFlowOptions(context.Background(), f1, &RunOptions{DB: rg1.db})
		done <- err
	}()
	<-started

	// Runs 2 and 3 fill the queue.
	for i := 0; i < 2; i++ {
		f, rg := mkFlow()
		go func() {
			_, err := host.engine.RunFlowOptions(context.Background(), f, &RunOptions{DB: rg.db})
			done <- err
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, queued := host.engine.Runs(); queued == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queued runs never enqueued")
		}
		time.Sleep(time.Millisecond)
	}

	// Run 4 finds both the slot and the queue full.
	f4, rg4 := mkFlow()
	res, err := host.engine.RunFlowOptions(context.Background(), f4, &RunOptions{DB: rg4.db})
	if !errors.Is(err, ErrEngineBusy) {
		t.Fatalf("saturated engine err = %v, want ErrEngineBusy", err)
	}
	if res == nil || res.Elapsed < 0 {
		t.Error("refused run must still return a Result with Elapsed")
	}

	close(release)
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Errorf("queued run: %v", err)
		}
	}
}

// A run cancelled while waiting in the admission queue returns the
// context error and gives up its queue position.
func TestAdmissionCancelledWhileQueued(t *testing.T) {
	store := datastore.NewStore()
	host := newRigStore(t, nil, store)
	host.engine.SetMaxConcurrentRuns(1)

	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	host.engine.reg.Register("NetlistEditor", encap.Func(func(req *encap.Request) (encap.Outputs, error) {
		once.Do(func() { close(started) })
		<-release
		return encap.Outputs{req.Goal: []byte("ok")}, nil
	}))

	f1 := flow.New(host.s, host.db)
	addBranch(t, host, f1)
	done := make(chan error, 1)
	go func() {
		_, err := host.engine.RunFlow(f1)
		done <- err
	}()
	<-started

	rg2 := newRigStore(t, nil, store)
	f2 := flow.New(rg2.s, rg2.db)
	addBranch(t, rg2, f2)
	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, err := host.engine.RunFlowOptions(ctx, f2, &RunOptions{DB: rg2.db})
		queued <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, q := host.engine.Runs(); q == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second run never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-queued; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled queued run err = %v, want context.Canceled", err)
	}
	if _, q := host.engine.Runs(); q != 0 {
		t.Error("cancelled waiter still queued")
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("first run: %v", err)
	}
}

// A shared result cache accelerates concurrent runs without corrupting
// attribution: each run counts only its own hits in Stats.CacheHits,
// and a shared Metrics sink breaks the total down per run label.
func TestSharedMemoPerRunAttribution(t *testing.T) {
	store := datastore.NewStore()
	host := newRigStore(t, nil, store)
	host.engine.SetWorkers(2)
	cache := memo.New(0)
	host.engine.SetMemo(cache)

	// Warm the cache with one serial run.
	warm := newRigStore(t, nil, store)
	wf, _ := warm.perfFlow(t)
	if _, err := host.engine.RunFlowOptions(context.Background(), wf, &RunOptions{DB: warm.db}); err != nil {
		t.Fatalf("warm run: %v", err)
	}

	metrics := trace.NewMetrics()
	var wg sync.WaitGroup
	stats := make([]*Stats, 2)
	labels := []string{"alice", "bob"}
	for i := 0; i < 2; i++ {
		rg := newRigStore(t, nil, store)
		f, _ := rg.perfFlow(t)
		wg.Add(1)
		go func(i int, rg *rig, f *flow.Flow) {
			defer wg.Done()
			res, err := host.engine.RunFlowOptions(context.Background(), f, &RunOptions{
				DB: rg.db, Tracer: metrics, Label: labels[i]})
			if err != nil {
				t.Errorf("run %s: %v", labels[i], err)
				return
			}
			stats[i] = res.Stats
		}(i, rg, f)
	}
	wg.Wait()

	for i, st := range stats {
		if st == nil {
			continue
		}
		if st.CacheHits != 4 {
			t.Errorf("run %s: Stats.CacheHits = %d, want 4 (per-run, not doubled)", labels[i], st.CacheHits)
		}
	}
	snap := metrics.Snapshot()
	if snap.CacheHits != 8 {
		t.Errorf("metrics total cache hits = %d, want 8", snap.CacheHits)
	}
	for _, l := range labels {
		if snap.CacheHitsByRun[l] != 4 {
			t.Errorf("metrics cache hits for %q = %d, want 4", l, snap.CacheHitsByRun[l])
		}
	}
	out := metrics.Expose()
	for _, l := range labels {
		if !strings.Contains(out, fmt.Sprintf("flow_unit_cache_hits_total{run=%q} 4", l)) {
			t.Errorf("exposition missing per-run hit line for %q:\n%s", l, out)
		}
	}
}

// RunOptions override the admitted snapshot field by field; unset
// fields inherit the engine defaults.
func TestRunOptionsOverrides(t *testing.T) {
	r := newRig(t)
	r.engine.SetUser("default-user")
	f, perf := r.perfFlow(t)
	sched := Barrier
	timeout := 30 * time.Second
	res, err := r.engine.RunFlowOptions(context.Background(), f, &RunOptions{
		User: "override-user", Scheduler: &sched, TaskTimeout: &timeout, MaxCombos: 10})
	if err != nil {
		t.Fatalf("RunFlowOptions: %v", err)
	}
	if res.Stats.Scheduler != "barrier" {
		t.Errorf("scheduler = %q, want barrier override", res.Stats.Scheduler)
	}
	pid, err := res.One(perf)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.db.Get(pid).User; got != "override-user" {
		t.Errorf("user = %q, want the override", got)
	}
	// The engine defaults were not disturbed.
	f2, perf2 := r.perfFlow(t)
	res2, err := r.engine.RunFlow(f2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Scheduler != "dataflow" {
		t.Errorf("default scheduler = %q, want dataflow", res2.Stats.Scheduler)
	}
	pid2, err := res2.One(perf2)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.db.Get(pid2).User; got != "default-user" {
		t.Errorf("default user = %q, want default-user", got)
	}
}

// Close releases the pool only when the engine is idle, and a closed
// engine transparently rebuilds the pool for the next run.
func TestCloseIdleAndReuse(t *testing.T) {
	r := newRig(t)
	f, _ := r.perfFlow(t)
	if _, err := r.engine.RunFlow(f); err != nil {
		t.Fatal(err)
	}
	if err := r.engine.Close(); err != nil {
		t.Fatalf("idle Close: %v", err)
	}
	f2, _ := r.perfFlow(t)
	if _, err := r.engine.RunFlow(f2); err != nil {
		t.Fatalf("run after Close: %v", err)
	}

	// Close during a run is refused.
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	r.engine.reg.Register("NetlistEditor", encap.Func(func(req *encap.Request) (encap.Outputs, error) {
		once.Do(func() { close(started) })
		<-release
		return encap.Outputs{req.Goal: []byte("ok")}, nil
	}))
	f3 := flow.New(r.s, r.db)
	addBranch(t, r, f3)
	done := make(chan error, 1)
	go func() {
		_, err := r.engine.RunFlow(f3)
		done <- err
	}()
	<-started
	if err := r.engine.Close(); err == nil {
		t.Error("Close during a run must fail")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := r.engine.Close(); err != nil {
		t.Fatalf("Close after drain: %v", err)
	}
}

// A retrace participates in admission and per-database serialization
// like any flow run.
func TestRetraceOptionsConcurrent(t *testing.T) {
	r := newRig(t)
	f, perf := r.perfFlow(t)
	res, err := r.engine.RunFlow(f)
	if err != nil {
		t.Fatal(err)
	}
	pid, err := res.One(perf)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := r.engine.RetraceOptions(context.Background(), pid, nil)
	if err != nil {
		t.Fatalf("RetraceOptions: %v", err)
	}
	if !rr.Fresh {
		t.Errorf("freshly computed instance should retrace as fresh, got %+v", rr)
	}
	if active, queued := r.engine.Runs(); active != 0 || queued != 0 {
		t.Errorf("engine not drained after retrace: %d active, %d queued", active, queued)
	}
}
