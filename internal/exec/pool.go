package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/history"
)

// This file is the multi-run half of the engine: a shared, bounded
// worker pool plus admission control. Every run acquires an admission
// slot before planning (FIFO-fair: runs arriving while the engine is
// saturated queue in arrival order), executes its units over the shared
// pool, and releases the slot when done. Runs that commit to the same
// history database additionally serialize on a per-database lock,
// because the planner pre-assigns instance IDs from the database's
// sequence counter and the determinism contract pins commit order.

const (
	// DefaultMaxConcurrentRuns bounds how many runs may execute at once
	// (SetMaxConcurrentRuns overrides it).
	DefaultMaxConcurrentRuns = 64
	// DefaultMaxQueuedRuns bounds how many admitted-but-waiting runs may
	// queue behind the concurrency bound before the engine refuses new
	// work (SetMaxQueuedRuns overrides it).
	DefaultMaxQueuedRuns = 256
)

// ErrEngineBusy reports that the engine refused a run because both the
// concurrent-run bound and the admission queue are full. Callers match
// it with errors.Is and retry later (or against another engine).
var ErrEngineBusy = errors.New("exec: engine is busy")

// SetMaxConcurrentRuns bounds how many runs execute at once; values
// below 1 are treated as 1. Runs beyond the bound queue FIFO up to the
// queue bound, then are refused with ErrEngineBusy.
func (e *Engine) SetMaxConcurrentRuns(n int) {
	if n < 1 {
		n = 1
	}
	e.mu.Lock()
	e.maxRuns = n
	e.mu.Unlock()
}

// SetMaxQueuedRuns bounds the admission queue; values below 0 are
// treated as 0 (refuse immediately when saturated).
func (e *Engine) SetMaxQueuedRuns(n int) {
	if n < 0 {
		n = 0
	}
	e.mu.Lock()
	e.maxQueue = n
	e.mu.Unlock()
}

// Runs reports how many runs are currently admitted (executing) and how
// many are queued waiting for admission.
func (e *Engine) Runs() (active, queued int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.active, len(e.waiters)
}

// acquire claims an admission slot, queueing FIFO behind the
// concurrent-run bound. It fails with ErrEngineBusy when the queue is
// full, or with ctx's error when the caller is cancelled while waiting.
func (e *Engine) acquire(ctx context.Context) error {
	e.mu.Lock()
	if e.active < e.maxRuns {
		e.active++
		e.mu.Unlock()
		return nil
	}
	if len(e.waiters) >= e.maxQueue {
		active, queued := e.active, len(e.waiters)
		e.mu.Unlock()
		return fmt.Errorf("%w: %d runs active, %d queued (raise SetMaxConcurrentRuns / SetMaxQueuedRuns)",
			ErrEngineBusy, active, queued)
	}
	slot := make(chan struct{})
	e.waiters = append(e.waiters, slot)
	e.mu.Unlock()
	select {
	case <-slot:
		return nil
	case <-ctx.Done():
		e.mu.Lock()
		for i, w := range e.waiters {
			if w == slot {
				e.waiters = append(e.waiters[:i], e.waiters[i+1:]...)
				e.mu.Unlock()
				return ctx.Err()
			}
		}
		e.mu.Unlock()
		// The slot was granted between ctx firing and the sweep above:
		// consume it and pass it on so no waiter starves.
		<-slot
		e.release()
		return ctx.Err()
	}
}

// release returns an admission slot, handing it to the oldest waiter if
// any (the waiter inherits the slot, so active is unchanged).
func (e *Engine) release() {
	e.mu.Lock()
	if len(e.waiters) > 0 {
		slot := e.waiters[0]
		e.waiters = e.waiters[1:]
		e.mu.Unlock()
		close(slot)
		return
	}
	e.active--
	e.mu.Unlock()
}

// beginRun admits one run: it acquires an admission slot, ensures the
// shared pool exists (resizing it only while this is the sole admitted
// run, when every pool worker is provably idle) and resolves opts into
// the run's configuration. The caller must e.release() when done.
func (e *Engine) beginRun(ctx context.Context, opts *RunOptions) (*run, error) {
	if err := e.acquire(ctx); err != nil {
		return nil, err
	}
	e.mu.Lock()
	if e.pool == nil {
		e.pool = newPool(e.workers)
	} else if e.pool.size != e.workers && e.active == 1 && len(e.waiters) == 0 {
		e.pool.stop()
		e.pool = newPool(e.workers)
	}
	p := e.pool
	e.mu.Unlock()
	return &run{e: e, cfg: e.config(opts), pool: p, workers: p.size}, nil
}

// Close stops the shared worker pool. It fails if runs are still active
// or queued; a closed engine re-creates the pool on the next run, so
// Close is an idle-time resource release, not a terminal state.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.active > 0 || len(e.waiters) > 0 {
		return fmt.Errorf("exec: Close: %d runs active, %d queued", e.active, len(e.waiters))
	}
	if e.pool != nil {
		e.pool.stop()
		e.pool = nil
	}
	return nil
}

// dbLock serializes the runs committing to one history database.
type dbLock struct {
	mu   sync.Mutex
	refs int
}

// lockDB takes the per-database commit lock, creating it on first use
// and retiring it when the last holder unlocks. Runs with distinct
// databases never contend here.
func (e *Engine) lockDB(db *history.DB) func() {
	e.dbMu.Lock()
	if e.dbLocks == nil {
		e.dbLocks = make(map[*history.DB]*dbLock)
	}
	l := e.dbLocks[db]
	if l == nil {
		l = &dbLock{}
		e.dbLocks[db] = l
	}
	l.refs++
	e.dbMu.Unlock()
	l.mu.Lock()
	return func() {
		l.mu.Unlock()
		e.dbMu.Lock()
		l.refs--
		if l.refs == 0 {
			delete(e.dbLocks, db)
		}
		e.dbMu.Unlock()
	}
}

// poolTask is one unit of one run, tagged with its run so the shared
// workers can execute units from many runs interleaved.
type poolTask struct {
	r *run
	u unitTask
}

// pool is the engine's shared worker pool: size workers draining one
// task channel. Workers hold no per-run state — everything a unit needs
// travels on the task. A worker whose attempt is abandoned leaves the
// pool with its tool, and the goroutine that reported the unit works in
// its place (attemptUnit), so the pool keeps size workers.
type pool struct {
	size  int
	tasks chan poolTask
	wg    sync.WaitGroup
}

func newPool(size int) *pool {
	p := &pool{size: size, tasks: make(chan poolTask)}
	p.wg.Add(size)
	for i := 0; i < size; i++ {
		go p.work()
	}
	return p
}

// work is one worker's loop. It holds one of the pool's size
// WaitGroup slots until the pool stops, unless its unit's attempt is
// abandoned: then it returns at once, and the slot passes to the
// goroutine that runs this loop in its place.
func (p *pool) work() {
	for t := range p.tasks {
		if !t.r.workUnit(t.u) {
			return
		}
	}
	p.wg.Done()
}

// stop terminates the workers. Callers must guarantee no run is
// dispatching (every coordinator drains its outstanding units before
// returning, so "no admitted runs" suffices).
func (p *pool) stop() {
	close(p.tasks)
	p.wg.Wait()
}
