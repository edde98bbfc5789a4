package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/datastore"
	"repro/internal/encap"
	"repro/internal/history"
	"repro/internal/memo"
	"repro/internal/provenance"
	"repro/internal/trace"
)

// This file is the execution half of the engine: a dependency-counting
// dataflow scheduler. Jobs whose pending count hits zero enqueue all
// their (job, combo) units; the run's coordinator goroutine hands units
// to the engine's shared worker pool and folds completions back in,
// decrementing dependents — no barrier between dependency levels, so
// one slow task never stalls ready work elsewhere in the graph (the
// Fig. 6 "different machines" actually stay busy). Units from
// concurrent runs interleave on the pool; each unit carries its run, so
// workers stay stateless.
//
// Determinism: execution finishes out of order, but results are
// committed to history strictly in plan order by the run's committer
// goroutine, so recorded instance IDs match the planner's
// pre-assignment exactly. The coordinator decides, in plan order, which
// job at the front of the plan is finished and hands it over; the
// committer records it while the coordinator goes on dispatching.
// Dispatch never waits for a commit: workers read the artifacts of
// not-yet-committed producers from an in-memory pending set
// (pendingSet), which is per-run.
//
// Failure: under FailFast (the default) the first unit error stops
// dispatch — in-flight units drain, the committed prefix stays, and
// every error is returned joined (errors.Join), each naming its (node,
// combo). Under ContinueOnError only the dependents of a failed job are
// skipped: everything whose producers succeeded still runs and commits
// with its planner-assigned IDs (the failed/skipped jobs' pre-assigned
// IDs are retired via history.ReserveSeq so later commits line up), and
// the joined error additionally names every skipped node with its
// root-cause producer. Cancelling the run context stops dispatch,
// cancels in-flight attempts, and joins ctx.Err() into the result —
// other runs sharing the engine are unaffected.

// pendingSet shares not-yet-committed artifacts between workers:
// planned instance IDs resolve here until the committer has recorded
// them. It is a table indexed by planned sequence number minus the
// sequence number the plan started from, and each hit is confirmed
// against the slot's ID. The coordinator writes each slot once, when
// the job producing it completes (complete) or is restored
// (applyResume) — before any dependent is dispatched — and the pool's
// task channel orders that write before every worker read of it, so
// workers read without a lock.
type pendingSet struct {
	base int // the database's sequence number when the run planned
	arts []pendingArtifact
}

type pendingArtifact struct {
	id   history.ID
	typ  string
	data []byte
	// ref is the content address of data, computed lazily by lookupRef
	// (only the memoizing coordinator needs it, and only the coordinator
	// writes it) and cached so a pending artifact consumed by many
	// dependents is hashed once, not per edge.
	ref datastore.Ref
}

// slot returns the pending artifact of a planned instance, or nil when
// inst is not one of the plan's instances or is not published yet.
func (ps *pendingSet) slot(inst history.ID) *pendingArtifact {
	i := history.SeqOf(inst) - ps.base - 1
	if i < 0 || i >= len(ps.arts) || ps.arts[i].id != inst {
		return nil
	}
	return &ps.arts[i]
}

// publish makes a completed job's outputs resolvable by its dependents.
// Only the coordinator calls it.
func (r *run) publish(j *plannedJob) {
	for ci := range j.combos {
		for ni, nid := range j.nodes {
			id := j.outIDs[ni][ci]
			typ := r.f.Node(nid).Type
			r.pend.arts[history.SeqOf(id)-r.pend.base-1] = pendingArtifact{id: id, typ: typ, data: j.outputs[ci][typ]}
		}
	}
}

// lookup resolves an instance to (type, artifact): the run's pending
// set first, then the history database / datastore / archives. The
// returned bytes may alias engine-owned storage; callers treat
// artifacts as immutable (the same contract pending artifacts already
// have — workers hand the producer's output slice straight to
// dependents).
func (r *run) lookup(inst history.ID) (string, []byte, error) {
	if a := r.pend.slot(inst); a != nil {
		return a.typ, a.data, nil
	}
	typ, data, archive, rev, ok := r.cfg.db.ArtifactInfo(inst)
	if !ok {
		return "", nil, fmt.Errorf("exec: instance %s disappeared", inst)
	}
	b, err := r.artifactFromInfo(inst, data, archive, rev)
	if err != nil {
		return "", nil, err
	}
	return typ, b, nil
}

// lookupRef resolves an instance to (type, content address) without
// materializing artifact bytes when it can be avoided: committed
// store-backed instances carry their ref in history (Instance.Data is
// the store.Put address — zero hashing), pending artifacts hash once
// and cache the result, and only archive-backed or artifact-less
// instances fall back to fetch-and-hash. This is the memoization path's
// replacement for lookup + RefOf, which hashed every input of every
// unit on the coordinator. Only the coordinator calls it.
func (r *run) lookupRef(inst history.ID) (string, datastore.Ref, error) {
	if a := r.pend.slot(inst); a != nil {
		if a.ref == "" {
			a.ref = datastore.RefOf(a.data)
		}
		return a.typ, a.ref, nil
	}
	typ, data, archive, rev, ok := r.cfg.db.ArtifactInfo(inst)
	if !ok {
		return "", "", fmt.Errorf("exec: instance %s disappeared", inst)
	}
	if data != "" {
		return typ, data, nil
	}
	b, err := r.artifactFromInfo(inst, data, archive, rev)
	if err != nil {
		return "", "", err
	}
	return typ, datastore.RefOf(b), nil
}

type unitTask struct {
	j       *plannedJob
	ci      int
	readyAt time.Time
	// hit carries the cache-reconstructed outputs of a unit satisfied by
	// the result cache; such units are completed by the coordinator and
	// never visit a worker.
	hit encap.Outputs
}

type unitResult struct {
	j    *plannedJob
	ci   int
	out  encap.Outputs
	err  error
	alog []attemptRec  // one record per attempt, for the tracer
	wait time.Duration // ready -> start
	dur  time.Duration // start -> done (all attempts)
}

// workUnit executes one unit on a pool worker and reports the result on
// the run's completion channel. The coordinator is always ready to
// receive while units are outstanding, so the send cannot deadlock the
// shared pool. It returns false when the unit's attempt was abandoned
// (attemptUnit): the unit is reported and another goroutine works in
// this worker's place, so the worker must leave the pool.
func (r *run) workUnit(u unitTask) bool {
	start := time.Now()
	out, alog, err := r.runUnit(r.ctx, u, start)
	if err == errAbandoned {
		return false
	}
	if err == nil {
		// Surface a tool that dropped an output here, not at commit
		// time: a dependent must never run against a hole in the
		// pending set.
		for _, nid := range u.j.nodes {
			typ := r.f.Node(nid).Type
			if _, ok := out[typ]; !ok {
				err = fmt.Errorf("exec: tool run produced no %s output (has: %s)", typ, outputKeys(out))
				alog[len(alog)-1].errMsg = err.Error()
				break
			}
		}
	}
	r.report(u, start, out, alog, err)
	return true
}

// report hands a unit that started at start to the run's coordinator.
func (r *run) report(u unitTask, start time.Time, out encap.Outputs, alog []attemptRec, err error) {
	r.doneCh <- unitResult{j: u.j, ci: u.ci, out: out, err: err, alog: alog,
		wait: start.Sub(u.readyAt), dur: time.Since(start)}
}

// execute runs a plan through the shared worker pool and has the run's
// committer commit completed jobs in plan order, filling r.res; the
// committer has exited by the time execute returns. It returns the
// joined error of every failed unit plus, under ContinueOnError, one
// entry per skipped node (plus any commit or cancellation error), or
// nil. The coordinator keeps only what the run's RunFinished reports
// (res.Finished): busy time, failed units, skipped jobs and the
// scheduling span; per-unit counts ride the unit events.
func (r *run) execute(ctx context.Context, p *plan) error {
	f, res := r.f, r.res
	start := time.Now()
	var (
		busy                     time.Duration // summed worker time
		unitsFailed, jobsSkipped int
	)
	workers := min(r.workers, p.units)
	// A durable or resumed run keeps a chain over its database.
	head := ""
	if r.cfg.wal != nil || r.cfg.resume != nil {
		r.chain = provenance.NewChain(nil)
		defer r.cfg.db.Observe(r.chain)()
		head = r.chain.Head()
	}
	tr := r.newRunTracer(p)
	tr.planBuilt(workers, head)

	r.ctx = ctx
	r.pend = pendingSet{base: p.base, arts: make([]pendingArtifact, p.planned)}
	// Unbuffered on purpose: the rendezvous means a worker cannot return
	// to the shared pool with an unreported completion, which is what
	// makes fail-fast deterministic — after a failure folds in, no
	// already-finished worker can have silently accepted more work. The
	// drain fold below keeps the rendezvous cheap: parked senders are
	// collected in one batch.
	r.doneCh = make(chan unitResult)

	queue := make([]unitTask, 0, p.units)
	hits := make([]unitTask, 0, 16) // cache-satisfied units, completed by the coordinator
	ready := func(j *plannedJob) {
		// A ready job's producer artifacts are all resolvable (pending
		// set or history), so this is the earliest point the derivation
		// key exists. Hits go to a separate queue drained by the main
		// loop — completing them here would recurse through complete()
		// and double-ready jobs whose initial pending count is zero.
		now := time.Now()
		for ci := range j.combos {
			u := unitTask{j: j, ci: ci, readyAt: now}
			if out := r.memoConsult(j, ci); out != nil {
				u.hit = out
				hits = append(hits, u)
				continue
			}
			queue = append(queue, u)
		}
	}
	for _, j := range p.jobs {
		j.pending = len(j.deps)
		j.remaining = len(j.combos)
		if r.cfg.memo != nil {
			j.memoKeys = make([]memo.Key, len(j.combos))
			j.cacheHit = make([]bool, len(j.combos))
		}
	}
	commitIdx := 0 // next job to hand to the committer
	// Restore the recovered prefix before the ready scan: resumed jobs
	// are marked done with their logged outputs, their dependents'
	// pending counts drop, and only the remaining work becomes ready.
	// They commit (and verify) here, so no tool receives an artifact
	// the log's digests have not vouched for. A finished log commits or
	// retires every job and runs nothing.
	if rc := r.cfg.resume; rc != nil {
		var err error
		if commitIdx, err = r.applyResume(p, tr); err != nil || rc.Finished {
			return err
		}
	}
	for _, j := range p.jobs {
		if j.pending == 0 && !j.done {
			ready(j)
		}
	}

	type unitError struct {
		jobIdx, ci int
		err        error
	}
	var (
		stop      bool // stop dispatching and readying
		cancelled bool
		unitErrs  []unitError
	)
	// Capacity len(p.jobs): every job is handed over at most once, so
	// the coordinator never blocks on the committer.
	commits := make(chan *plannedJob, len(p.jobs))
	// advance hands every finished job at the front of the plan to the
	// committer, in plan order — the order that pins instance IDs to the
	// plan. A done job is committed. Under ContinueOnError a skipped job,
	// or a failed one with no units left, is retired instead: its
	// pre-assigned instance IDs are stepped over, so the survivors behind
	// it still commit with exactly the IDs the planner handed out.
	advance := func() {
		for commitIdx < len(p.jobs) {
			j := p.jobs[commitIdx]
			retire := r.cfg.policy == ContinueOnError && (j.skipped || (j.failed && j.remaining == 0))
			if !j.done && !retire {
				return
			}
			commits <- j
			commitIdx++
		}
	}
	// markSkipped transitively retires the dependents of a failed job:
	// they can never become ready, so they are stepped over at commit
	// time and reported against the root-cause job.
	var markSkipped func(idx, root int)
	markSkipped = func(idx, root int) {
		j := p.jobs[idx]
		if j.skipped || j.done || j.failed {
			return
		}
		j.skipped = true
		j.blame = root
		jobsSkipped++
		for _, di := range j.dependents {
			markSkipped(di, root)
		}
	}
	complete := func(d unitResult) {
		tr.observe(d)
		busy += d.dur
		j := d.j
		if d.err != nil {
			unitsFailed++
			unitErrs = append(unitErrs, unitError{j.idx, d.ci,
				fmt.Errorf("exec: node %d (%s), combo %d/%d [%s]: %w",
					j.nodes[0], j.repType, d.ci+1, len(j.combos), comboString(j.keys, j.combos[d.ci]), d.err)})
			j.failed = true
			if r.cfg.policy != ContinueOnError {
				stop = true
			}
		} else {
			j.outputs[d.ci] = d.out
		}
		if d.dur > j.dur {
			j.dur = d.dur
		}
		j.remaining--
		if j.failed {
			if r.cfg.policy == ContinueOnError && j.remaining == 0 {
				for _, di := range j.dependents {
					markSkipped(di, j.idx)
				}
				advance()
			}
			return
		}
		if j.remaining > 0 {
			return
		}
		j.done = true
		// Publish outputs so dependents can execute before the commit.
		r.publish(j)
		advance()
		for _, di := range j.dependents {
			dep := p.jobs[di]
			dep.pending--
			if dep.pending == 0 && !dep.skipped && !stop {
				ready(dep)
			}
		}
	}

	// The committer runs from here until the dispatch loop has drained.
	// It emits every event between PlanBuilt and the end-of-run flush,
	// so the run still has exactly one emitter at a time: the go
	// statement and the join below order its emits after PlanBuilt and
	// before RunFinished.
	commitFailed := make(chan struct{})
	committerDone := make(chan struct{})
	var commitErr error
	go func() {
		defer close(committerDone)
		commitErr = r.commit(commits, tr, commitFailed)
	}()

	ctxDone := ctx.Done()
	outstanding := 0
	for {
		// Serve cache hits before dispatching: each is a finished unit
		// that never visits a worker. Completing one may ready dependents
		// (and produce further hits), so drain through the same loop.
		if len(hits) > 0 && !stop {
			u := hits[0]
			hits = hits[1:]
			complete(unitResult{j: u.j, ci: u.ci, out: u.hit,
				alog: []attemptRec{{cacheHit: true}}, wait: time.Since(u.readyAt)})
			continue
		}
		var sendCh chan poolTask
		var next poolTask
		if len(queue) > 0 && !stop {
			sendCh = r.pool.tasks
			next = poolTask{r: r, u: queue[0]}
		}
		if sendCh == nil && outstanding == 0 {
			break
		}
		select {
		case sendCh <- next:
			queue = queue[1:]
			outstanding++
			// Dispatch burst: hand further ready units to any other
			// parked workers without a trip back through the select.
			for burst := true; burst && len(queue) > 0 && !stop; {
				select {
				case r.pool.tasks <- poolTask{r: r, u: queue[0]}:
					queue = queue[1:]
					outstanding++
				default:
					burst = false
				}
			}
		case d := <-r.doneCh:
			outstanding--
			complete(d)
			// Drain fold: completions buffered while the coordinator was
			// busy are folded in as one batch, so dependents of several
			// finished producers become ready together before the next
			// dispatch decision.
			for fold := true; fold && outstanding > 0; {
				select {
				case d := <-r.doneCh:
					outstanding--
					complete(d)
				default:
					fold = false
				}
			}
		case <-ctxDone:
			cancelled = true
			stop = true
			ctxDone = nil // fire once; in-flight units drain via doneCh
		case <-commitFailed:
			stop = true
			commitFailed = nil // fire once; commitErr is read after the join
		}
	}
	// The committer drains what was handed to it, then exits: the run's
	// history is final and the DB lock still held when execute returns.
	close(commits)
	<-committerDone
	critical, criticalJobs := p.criticalPath()
	res.Finished = &trace.Event{Kind: trace.KindRunFinished, Job: -1, Combo: -1, Unit: -1,
		Workers: workers, Jobs: len(p.jobs), Units: p.units,
		Committed: res.TasksRun, Failed: unitsFailed, Skipped: jobsSkipped,
		BusyMicros: busy.Microseconds(), ElapsedMicros: time.Since(start).Microseconds(),
		CriticalMicros: critical.Microseconds(), CriticalJobs: criticalJobs}
	tr.finish(*res.Finished)
	// Durability barrier: everything up to RunFinished must be on
	// stable storage before the run's result is acknowledged. This is
	// the one synchronous fsync of the run — per-unit durability rides
	// the WAL writer's group-commit policy.
	walErr := tr.barrier()

	if len(unitErrs) == 0 && commitErr == nil && !cancelled && walErr == nil {
		return nil
	}
	sort.Slice(unitErrs, func(i, k int) bool {
		if unitErrs[i].jobIdx != unitErrs[k].jobIdx {
			return unitErrs[i].jobIdx < unitErrs[k].jobIdx
		}
		return unitErrs[i].ci < unitErrs[k].ci
	})
	errs := make([]error, 0, len(unitErrs)+2)
	for _, ue := range unitErrs {
		errs = append(errs, ue.err)
	}
	// One entry per skipped node, in plan order, naming the root cause.
	for _, j := range p.jobs {
		if !j.skipped {
			continue
		}
		root := p.jobs[j.blame]
		for _, nid := range j.nodes {
			res.Skipped = append(res.Skipped, nid)
			errs = append(errs, fmt.Errorf("exec: node %d (%s) skipped: producer node %d (%s) failed",
				nid, f.Node(nid).Type, root.nodes[0], root.repType))
		}
	}
	if commitErr != nil {
		errs = append(errs, commitErr)
	}
	if walErr != nil {
		errs = append(errs, walErr)
	}
	if cancelled {
		errs = append(errs, fmt.Errorf("exec: run cancelled: %w", ctx.Err()))
	}
	return errors.Join(errs...)
}

// commit is the run's committer. It receives jobs from the coordinator
// in plan order and commits each done job — history, datastore,
// provenance observers, result cache, trace and WAL — or retires a job
// the coordinator stepped over (ContinueOnError), whose pre-assigned
// IDs it reserves. After the first commit error it closes failed, so
// the coordinator stops dispatching, and commits nothing more: the
// end-of-run flush emits the lifecycle events of the jobs it drops.
// It returns that error once jobs is closed and drained.
func (r *run) commit(jobs <-chan *plannedJob, tr *runTracer, failed chan<- struct{}) error {
	var err error
	for j := range jobs {
		if err != nil {
			continue
		}
		if err = r.commitJob(j, tr); err != nil {
			close(failed)
		}
	}
	return err
}

// commitJob commits one job in plan order, restored ones included, or
// retires a job that is not done by reserving its pre-assigned IDs.
func (r *run) commitJob(j *plannedJob, tr *runTracer) error {
	tr.passJob(j)
	if !j.done {
		r.cfg.db.ReserveSeq(len(j.combos) * len(j.nodes))
		return nil
	}
	if err := r.recordJob(j); err != nil {
		return err
	}
	r.res.TasksRun += len(j.combos)
	r.memoPublish(j) // commit is the cache's write barrier
	tr.committedJob(j)
	return nil
}

// comboString renders one input combination (aligned with keys) as
// "k=inst" pairs in sorted key order, "fd" sorted among them, for error
// messages.
func comboString(keys []string, combo []history.ID) string {
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	parts := make([]string, len(order))
	for i, ki := range order {
		parts[i] = fmt.Sprintf("%s=%s", keys[ki], combo[ki])
	}
	return strings.Join(parts, " ")
}
