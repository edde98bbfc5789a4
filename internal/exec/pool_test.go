package exec

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/encap"
	"repro/internal/flow"
)

// TestToolRunsOnPoolWorker: under a cancellable context and no task
// timeout, as flowd runs every unit, the tool is called on the pool
// worker that took its unit, not on a goroutine of the attempt's own.
func TestToolRunsOnPoolWorker(t *testing.T) {
	r := newRig(t)
	var stack []byte
	r.engine.reg.Register("NetlistEditor", encap.Func(func(req *encap.Request) (encap.Outputs, error) {
		buf := make([]byte, 64<<10)
		stack = buf[:runtime.Stack(buf, false)]
		return encap.Outputs{req.Goal: []byte("ok")}, nil
	}))
	f := flow.New(r.s, r.db)
	addBranch(t, r, f)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := r.engine.RunFlowOptions(ctx, f, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(stack, []byte("created by repro/internal/exec.newPool")) {
		t.Fatalf("the tool ran on a goroutine the pool did not create:\n%s", stack)
	}
}

// TestAbandonmentKeepsPoolWhole: a worker whose attempt is abandoned
// leaves the pool with its tool, and the goroutine that reports the
// unit works in its place. On a two-worker engine a run whose tool
// ignores Request.Ctx is abandoned, by the task timeout or by
// cancelling the run; a second run, whose two units each wait for the
// other to start, needs both workers and must succeed. Once the hung
// tool is released, Close returns and no goroutine is left behind.
func TestAbandonmentKeepsPoolWhole(t *testing.T) {
	for _, variant := range []string{"timeout", "cancel"} {
		t.Run(variant, func(t *testing.T) {
			base := runtime.NumGoroutine()
			r := newRig(t)
			r.engine.SetWorkers(2)

			hung, release := make(chan struct{}), make(chan struct{})
			hangs := encap.StandardRegistry()
			hangs.Register("NetlistEditor", encap.Func(func(req *encap.Request) (encap.Outputs, error) {
				close(hung)
				<-release // never reads req.Ctx
				return encap.Outputs{req.Goal: []byte("late")}, nil
			}))
			released := false
			defer func() {
				if !released {
					close(release)
				}
			}()
			f := flow.New(r.s, r.db)
			addBranch(t, r, f)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts := &RunOptions{Registry: hangs}
			want := context.Canceled
			if variant == "timeout" {
				opts.TaskTimeout = ptr(20 * time.Millisecond)
				want = context.DeadlineExceeded
			}
			done := make(chan error, 1)
			go func() {
				_, err := r.engine.RunFlowOptions(ctx, f, opts)
				done <- err
			}()
			<-hung
			if variant == "cancel" {
				cancel()
			}
			select {
			case err := <-done:
				if !errors.Is(err, want) {
					t.Fatalf("the abandoned run returned %v, want %v", err, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the run waited for the tool that ignores its context")
			}

			var started atomic.Int32
			met := make(chan struct{})
			meets := encap.StandardRegistry()
			meets.Register("NetlistEditor", encap.Func(func(req *encap.Request) (encap.Outputs, error) {
				if started.Add(1) == 2 {
					close(met)
				}
				select {
				case <-met:
					return encap.Outputs{req.Goal: []byte("met")}, nil
				case <-time.After(5 * time.Second):
					return nil, errors.New("the other unit never started: the pool lost a worker")
				}
			}))
			f2 := flow.New(r.s, r.db)
			addBranch(t, r, f2)
			addBranch(t, r, f2)
			if _, err := r.engine.RunFlowOptions(context.Background(), f2, &RunOptions{Registry: meets}); err != nil {
				t.Fatalf("the run after the abandonment: %v", err)
			}

			close(release)
			released = true
			closed := make(chan error, 1)
			go func() { closed <- r.engine.Close() }()
			select {
			case err := <-closed:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Close did not return: a pool worker never stopped")
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					t.Fatalf("%d goroutines after Close, %d before the engine:\n%s",
						runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
