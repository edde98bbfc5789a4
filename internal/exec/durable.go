package exec

import (
	"fmt"

	"repro/internal/encap"
	"repro/internal/memo"
	"repro/internal/trace"
)

// This file is the resume half of the durability layer: a run handed a
// recovered WAL prefix (RunOptions.Resume) restores every fully
// committed job from the log instead of executing it. Restored jobs
// are marked done with their logged outputs before the scheduler's
// ready scan, so only the remaining units dispatch; one advance() pass
// then hands the restored prefix to the run's *normal* committer
// goroutine — recordJob re-records the instances (verifying the logged
// IDs against the replanned pre-assignment, the same determinism check
// live runs get), the datastore re-absorbs the artifact bytes
// (content-addressed Put deduplicates), and memoPublish re-feeds the
// result cache. Replay is therefore not a second commit path: it is
// the ordinary one, fed from the log.
//
// The correctness of resuming-by-replanning rests on the determinism
// contract: a session bootstraps identically every time, so a fresh
// database yields the same base sequence number and the planner
// pre-assigns exactly the IDs the interrupted run logged. Every
// restored unit is verified against that pre-assignment; any mismatch
// aborts the resume with an error rather than committing a log that
// belongs to a different flow.

// applyResume restores the recovered prefix onto a freshly built plan.
// Called by execute after scheduler state is initialized and before
// the initial ready scan.
func (r *run) applyResume(p *plan, tr *runTracer) error {
	res := r.cfg.resume
	if len(res.Events) == 0 {
		return nil // nothing durable: plain fresh run
	}
	// The logged plan shape must match the replanned one.
	for _, ev := range res.Events {
		if ev.Kind == trace.KindPlanBuilt && (ev.Jobs != len(p.jobs) || ev.Units != p.units) {
			return fmt.Errorf("exec: recovered log planned %d jobs / %d units, replanning produced %d / %d: log does not match the flow",
				ev.Jobs, ev.Units, len(p.jobs), p.units)
		}
	}

	// Restore the longest contiguous prefix of fully committed jobs.
	unit := 0
	var restored []*plannedJob
	for _, j := range p.jobs {
		complete := len(j.combos) > 0
		for ci := range j.combos {
			if res.Commits[unit+ci] == nil {
				complete = false
				break
			}
		}
		if !complete {
			break
		}
		for ci := range j.combos {
			c := res.Commits[unit+ci]
			if len(c.Insts) != len(j.outIDs[ci]) {
				return fmt.Errorf("exec: recovered unit %d committed %d instances, replanned %d",
					unit+ci, len(c.Insts), len(j.outIDs[ci]))
			}
			for ni, id := range j.outIDs[ci] {
				if string(id) != c.Insts[ni] {
					return fmt.Errorf("exec: recovered unit %d committed %s where the replan assigns %s: log does not match the flow",
						unit+ci, c.Insts[ni], id)
				}
			}
			out := make(encap.Outputs, len(c.Outputs))
			for typ, b := range c.Outputs {
				out[typ] = b
			}
			for _, nid := range j.nodes {
				typ := r.f.Node(nid).Type
				if _, ok := out[typ]; !ok {
					return fmt.Errorf("exec: recovered unit %d lacks a %s output", unit+ci, typ)
				}
			}
			j.outputs[ci] = out
			if j.memoKeys != nil && c.MemoKey != "" {
				j.memoKeys[ci] = memo.Key(c.MemoKey)
			}
		}
		j.done = true
		j.resumed = true
		j.remaining = 0
		tr.markResumed(j)
		restored = append(restored, j)
		unit += len(j.combos)
	}

	// Publish restored artifacts to the pending set and unblock
	// dependents — what complete() would have done had the units run.
	r.st.mu.Lock()
	for _, j := range restored {
		for ci := range j.combos {
			for ni, nid := range j.nodes {
				typ := r.f.Node(nid).Type
				r.st.arts[j.outIDs[ci][ni]] = pendingArtifact{typ: typ, data: j.outputs[ci][typ]}
			}
		}
	}
	r.st.mu.Unlock()
	for _, j := range restored {
		for _, di := range j.dependents {
			p.jobs[di].pending--
		}
	}
	return nil
}
