package exec

import (
	"bytes"
	"fmt"

	"repro/internal/encap"
	"repro/internal/memo"
	"repro/internal/storage"
	"repro/internal/trace"
)

// This file is the resume half of the durability layer: a run handed a
// recovered WAL prefix (RunOptions.Resume) restores every fully
// committed job from the log instead of executing it. The log's commit
// records are consumed in plan order: each restored job is marked done
// with its logged outputs and committed on the spot, before the
// scheduler's ready scan, so only the remaining units dispatch, through
// the *normal* commit step (commitJob) — recordJob re-records the
// instances (verifying the logged IDs against the replanned
// pre-assignment, the same determinism check live runs get), the
// datastore re-absorbs the artifact bytes (content-addressed Put
// deduplicates), and memoPublish re-feeds the result cache. Replay is
// therefore not a second commit path: it is the ordinary one, fed from
// the log. A finished log replays whole and nothing dispatches.
//
// The correctness of resuming-by-replanning rests on the determinism
// contract: a session bootstraps identically every time, so a fresh
// database yields the same base sequence number and the planner
// pre-assigns exactly the IDs the interrupted run logged. Every
// restored unit's logged UnitCommitted event, masked as the trace
// serves it, must equal the event the replan commits but for its Seq;
// any mismatch aborts the resume rather than commit a log that belongs
// to a different flow. So must every chain digest: the run's chain
// must reach the PlanBuilt digest after the imports and each unit's
// digest after its records, so an artifact rewritten in the log fails
// at its unit. A log without digests cannot be checked and is refused.

// applyResume restores the recovered prefix onto a freshly built plan
// and commits it, walking the plan and the log's commit records
// together, and returns how many jobs it handed to commitJob. A job
// whose units the next records commit is restored and committed on the
// spot; on a finished log every other job is retired and RunFinished's
// counts are checked, on an interrupted one the first other job ends
// the prefix. A record that repeats a unit, names one out of plan
// order, or is left over refuses the log.
func (r *run) applyResume(p *plan, tr *runTracer) (int, error) {
	res := r.cfg.resume
	if len(res.Events) == 0 {
		return 0, nil // nothing durable: plain fresh run
	}
	// The log opens with PlanBuilt, whose plan shape and imports must
	// match the replanned ones.
	if ev := res.Events[0]; ev.Kind != trace.KindPlanBuilt || ev.Jobs != len(p.jobs) || ev.Units != p.units {
		return 0, fmt.Errorf("exec: recovered log opens with %s of %d jobs / %d units, replanning produced %d / %d: log does not match the flow",
			ev.Kind, ev.Jobs, ev.Units, len(p.jobs), p.units)
	}
	switch res.PlanDigest {
	case "":
		return 0, fmt.Errorf("exec: the recovered log carries no chain digests, so none of it can be checked")
	case r.chain.Head():
	default:
		return 0, fmt.Errorf("exec: the world's imports do not match the log's PlanBuilt digest: log does not match the flow")
	}

	next, n := 0, 0 // the next commit record to restore; the jobs handed over
	for ; n < len(p.jobs); n++ {
		j := p.jobs[n]
		recs := res.Commits[next:]
		restored := len(recs) >= len(j.combos) && recs[0].Event.Unit == j.unit
		if !restored && !res.Finished {
			break // the rest runs
		}
		if restored {
			if err := r.restore(p, j, recs); err != nil {
				return 0, err
			}
			next += len(j.combos)
		}
		// commitJob retires a job no record commits, as the live run did.
		if err := r.commitJob(j, tr); err != nil {
			return 0, err
		}
	}
	if next < len(res.Commits) {
		return 0, fmt.Errorf("exec: the recovered log commits unit %d again or out of plan order: the log was altered",
			res.Commits[next].Event.Unit)
	}
	if fin := res.Events[len(res.Events)-1]; res.Finished && (fin.Jobs != len(p.jobs) || fin.Units != p.units || fin.Committed != r.res.TasksRun) {
		return 0, fmt.Errorf("exec: the log's RunFinished counts %d jobs, %d units, %d committed; the replan has %d jobs and %d units, and the commit records restore %d: the log was altered",
			fin.Jobs, fin.Units, fin.Committed, len(p.jobs), p.units, r.res.TasksRun)
	}
	return n, nil
}

// restore marks job j done with the logged outputs of its units' commit
// records, the first len(j.combos) of recs, after holding each record's
// event to the one the replan commits, unit included. Its digests are
// checked when commitJob re-records it.
func (r *run) restore(p *plan, j *plannedJob, recs []*storage.UnitCommit) error {
	nodes := nodeInts(j.nodes)
	j.digests = make([]string, len(j.combos))
	for ci, c := range recs[:len(j.combos)] {
		logged := trace.Mask(*c.Event)
		want := committedEvent(j, ci, nodes)
		want.Seq = logged.Seq // the log's numbering, not a planned fact
		if got, replan := trace.AppendJSON(nil, &logged), trace.AppendJSON(nil, &want); !bytes.Equal(got, replan) {
			return fmt.Errorf("exec: recovered unit %d logged %s where the replan commits %s: log does not match the flow",
				j.unit+ci, got, replan)
		}
		j.digests[ci] = c.Digest // a missing digest fails at its unit
		out := encap.Outputs(c.Outputs)
		for _, nid := range j.nodes {
			typ := r.f.Node(nid).Type
			if _, ok := out[typ]; !ok {
				return fmt.Errorf("exec: recovered unit %d lacks a %s output", j.unit+ci, typ)
			}
		}
		j.outputs[ci] = out
		if j.memoKeys != nil && c.MemoKey != "" {
			j.memoKeys[ci] = memo.Key(c.MemoKey)
		}
	}
	j.done, j.resumed, j.remaining = true, true, 0
	// Publish the restored artifacts to the pending set and unblock
	// dependents — what complete() would have done had the units run.
	r.publish(j)
	for _, di := range j.dependents {
		p.jobs[di].pending--
	}
	return nil
}
