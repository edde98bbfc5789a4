package exec

import (
	"time"

	"repro/internal/flow"
	"repro/internal/storage"
	"repro/internal/trace"
)

// This file adapts the engine to the structured run-event layer
// (internal/trace). The scheduler completes units in wall-clock order,
// but events must carry deterministic sequence numbers, so the tracer
// does not emit at completion time: per-unit observations are buffered
// on the plannedJob and a job's events are emitted only when the
// in-order committer passes it — strict plan order, the same order
// that pins instance IDs. A run emits from two goroutines, never at
// once: the coordinator emits PlanBuilt and then starts the run's
// committer, which emits every job's events; the coordinator waits for
// the committer to exit before the end-of-run flush and RunFinished.
// Each emit therefore happens-before the next, so neither the tracer
// nor a sink observing one run needs a lock; a sink shared by
// concurrent runs sees their streams interleaved, each event carrying
// its run's label (Event.Run) for attribution.

// SetTracer installs a run-event sink (see internal/trace) that
// receives one event per lifecycle transition of every subsequent run;
// nil removes it. Events are emitted in deterministic plan order with
// wall-clock durations segregated into maskable fields. Applies to
// subsequently admitted runs.
func (e *Engine) SetTracer(s trace.Sink) {
	e.set(func(c *runConfig) { c.tracer = s })
}

// attemptRec is one attempt's observation, buffered for the tracer.
// errMsg is empty for the successful final attempt.
type attemptRec struct {
	errMsg   string
	timedOut bool
	cacheHit bool // the unit was satisfied from the result cache
}

// runTracer drives one run's event emission — to the installed sink
// and, when the run is durable, to its write-ahead log (the WAL is the
// trace: both receive the same events, the WAL's UnitCommitted records
// additionally carrying the unit's durable payload). All methods are
// safe on a nil receiver, so the scheduler hooks cost one comparison
// when neither a tracer nor a WAL is installed.
type runTracer struct {
	sink     trace.Sink
	wal      *storage.RunWAL
	label    string // stamped on every event (Event.Run)
	p        *plan
	seq      int
	skipPlan bool   // resumed run: PlanBuilt is already in the log
	passed   []bool // job already emitted (skip/flush idempotence)
}

// newRunTracer returns nil when neither a tracer nor a WAL is
// installed; otherwise it allocates the per-unit capture slots on the
// plan's jobs. A resumed run continues the recovered prefix's sequence
// numbering, so the union of prefix and fresh events is one gapless
// stream.
func (r *run) newRunTracer(p *plan) *runTracer {
	if r.cfg.tracer == nil && r.cfg.wal == nil {
		return nil
	}
	for _, j := range p.jobs {
		j.unitWait = make([]time.Duration, len(j.combos))
		j.unitDur = make([]time.Duration, len(j.combos))
		j.unitLog = make([][]attemptRec, len(j.combos))
	}
	t := &runTracer{sink: r.cfg.tracer, wal: r.cfg.wal, label: r.cfg.label, p: p,
		passed: make([]bool, len(p.jobs))}
	if res := r.cfg.resume; res != nil && len(res.Events) > 0 {
		t.seq = res.NextSeq
		t.skipPlan = true
	}
	return t
}

func (t *runTracer) emit(ev trace.Event) { t.emitLogged(ev, nil, "") }

// emitLogged is emit whose WAL record also carries a UnitCommitted's
// payload c and the chain digest of a PlanBuilt or UnitCommitted.
func (t *runTracer) emitLogged(ev trace.Event, c *storage.UnitCommit, digest string) {
	ev.Seq = t.seq
	ev.Run = t.label
	t.seq++
	if t.sink != nil {
		t.sink.Emit(ev)
	}
	if t.wal != nil {
		t.wal.Append(ev, c, digest)
	}
}

// markResumed suppresses emission for a job restored from the WAL: its
// events are already in the recovered prefix.
func (t *runTracer) markResumed(j *plannedJob) {
	if t == nil {
		return
	}
	t.passed[j.idx] = true
}

// barrier forces everything appended to the WAL onto stable storage and
// surfaces the writer's first error. Called once per run, after
// RunFinished — the group-commit policy handles durability in between.
func (t *runTracer) barrier() error {
	if t == nil || t.wal == nil {
		return nil
	}
	return t.wal.Barrier()
}

// observe buffers a unit completion for later in-order emission.
func (t *runTracer) observe(d unitResult) {
	if t == nil {
		return
	}
	d.j.unitWait[d.ci] = d.wait
	d.j.unitDur[d.ci] = d.dur
	d.j.unitLog[d.ci] = d.alog
}

// planBuilt opens the stream (suppressed on a resumed run, whose
// PlanBuilt is part of the recovered prefix), logging digest with it.
func (t *runTracer) planBuilt(workers int, digest string) {
	if t == nil || t.skipPlan {
		return
	}
	t.emitLogged(trace.Event{Kind: trace.KindPlanBuilt, Job: -1, Combo: -1, Unit: -1,
		Workers: workers, Jobs: len(t.p.jobs), Units: t.p.units}, nil, digest)
}

// passJob emits the lifecycle events of every unit of one job — called
// when the committer passes the job (committed, failed or skipped), and
// again harmlessly from the end-of-run flush.
func (t *runTracer) passJob(j *plannedJob) {
	if t == nil || t.passed[j.idx] {
		return
	}
	t.passed[j.idx] = true
	nodes := nodeInts(j.nodes)
	for ci := range j.combos {
		ev := trace.Event{Job: j.idx, Combo: ci, Unit: j.unit + ci, Nodes: nodes, Type: j.repType}
		if j.skipped {
			ev.Kind = trace.KindUnitSkipped
			ev.Blame = int(t.p.jobs[j.blame].nodes[0])
			t.emit(ev)
			continue
		}
		log := j.unitLog[ci]
		if log == nil {
			continue // never dispatched: the run stopped first
		}
		dispatched := ev
		dispatched.Kind = trace.KindUnitDispatched
		dispatched.WaitMicros = j.unitWait[ci].Microseconds()
		t.emit(dispatched)
		started := ev
		started.Kind = trace.KindUnitStarted
		t.emit(started)
		if log[0].cacheHit {
			// A cache hit has exactly one synthetic attempt: emit the
			// extra UnitCacheHit on top of the normal lifecycle, so
			// DropKinds(UnitCacheHit) projects the warm run onto the
			// cold one.
			hit := ev
			hit.Kind = trace.KindUnitCacheHit
			t.emit(hit)
			continue
		}
		for i, a := range log {
			if a.errMsg == "" {
				break // successful final attempt; Committed follows separately
			}
			if a.timedOut {
				to := ev
				to.Kind = trace.KindUnitTimedOut
				to.Attempt = i + 1
				to.Err = a.errMsg
				t.emit(to)
			}
			attempt := ev
			attempt.Attempt = i + 1
			attempt.Err = a.errMsg
			if i < len(log)-1 {
				attempt.Kind = trace.KindUnitRetried
			} else {
				attempt.Kind = trace.KindUnitFailed
				attempt.DurMicros = j.unitDur[ci].Microseconds()
			}
			t.emit(attempt)
		}
	}
}

// committedJob emits one UnitCommitted per unit, after recordJob has
// verified the planner's IDs. Deliberately attempt-free, so a
// retried-then-succeeded run commits events identical to a clean run.
// On a durable run each event's WAL record carries the unit's payload
// — artifacts and derivation key — so recovery can replay the commit
// without re-running the tool, plus the chain head after the unit's
// records. Resumed jobs are skipped: their commit records are already
// in the log.
func (t *runTracer) committedJob(j *plannedJob) {
	if t == nil || j.resumed {
		return
	}
	nodes := nodeInts(j.nodes)
	for ci := range j.combos {
		insts := make([]string, len(j.nodes))
		for ni, ids := range j.outIDs {
			insts[ni] = string(ids[ci])
		}
		ev := trace.Event{Kind: trace.KindUnitCommitted, Job: j.idx, Combo: ci,
			Unit: j.unit + ci, Nodes: nodes, Type: j.repType,
			Insts: insts, DurMicros: j.unitDur[ci].Microseconds()}
		if t.wal == nil {
			t.emit(ev)
			continue
		}
		c := &storage.UnitCommit{Unit: ev.Unit, Insts: insts, Outputs: j.outputs[ci]}
		if j.memoKeys != nil {
			c.MemoKey = string(j.memoKeys[ci])
		}
		t.emitLogged(ev, c, j.digests[ci])
	}
}

// finish flushes jobs the committer never passed (fail-fast leftovers,
// cancellation) in plan order, then closes the stream. Skipped and
// executed-but-uncommitted units still get their lifecycle events; only
// UnitCommitted is reserved for recorded history.
func (t *runTracer) finish(stats *Stats, res *Result) {
	if t == nil {
		return
	}
	for _, j := range t.p.jobs {
		t.passJob(j)
	}
	t.emit(trace.Event{Kind: trace.KindRunFinished, Job: -1, Combo: -1, Unit: -1,
		Workers: stats.Workers, Jobs: stats.Jobs, Units: stats.Units,
		Committed: res.TasksRun, Failed: stats.UnitsFailed, Skipped: stats.JobsSkipped,
		BusyMicros: stats.Busy.Microseconds(), ElapsedMicros: stats.Elapsed.Microseconds()})
}

func nodeInts(ids []flow.NodeID) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}
