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
// ready scan, so only the remaining units dispatch, and are committed
// before anything dispatches through the *normal* commit step
// (commitJob) — recordJob re-records the instances (verifying the
// logged IDs against the replanned pre-assignment, the same
// determinism check live runs get), the datastore re-absorbs the
// artifact bytes (content-addressed Put deduplicates), and memoPublish
// re-feeds the result cache. Replay is therefore not a second commit
// path: it is the ordinary one, fed from the log. A finished log
// replays whole and nothing dispatches.
//
// The correctness of resuming-by-replanning rests on the determinism
// contract: a session bootstraps identically every time, so a fresh
// database yields the same base sequence number and the planner
// pre-assigns exactly the IDs the interrupted run logged. Every
// restored unit is verified against that pre-assignment; any mismatch
// aborts the resume with an error rather than committing a log that
// belongs to a different flow. So is every chain digest the log
// carries: the run's chain must reach the PlanBuilt digest after the
// imports and each unit's digest after its records, so an artifact
// rewritten in the log fails at its unit. A log without digests (an
// older format) resumes unchecked.

// applyResume restores the recovered prefix onto a freshly built plan
// (for a finished log, every fully committed job). Called by execute
// after scheduler state is initialized and before the ready scan.
func (r *run) applyResume(p *plan, tr *runTracer) error {
	res := r.cfg.resume
	if len(res.Events) == 0 {
		return nil // nothing durable: plain fresh run
	}
	// The logged plan shape and imports must match the replanned ones.
	for _, ev := range res.Events {
		if ev.Kind == trace.KindPlanBuilt && (ev.Jobs != len(p.jobs) || ev.Units != p.units) {
			return fmt.Errorf("exec: recovered log planned %d jobs / %d units, replanning produced %d / %d: log does not match the flow",
				ev.Jobs, ev.Units, len(p.jobs), p.units)
		}
	}
	if res.PlanDigest != "" && res.PlanDigest != r.chain.Head() {
		return fmt.Errorf("exec: the world's imports do not match the log's PlanBuilt digest: log does not match the flow")
	}

	var restored []*plannedJob
	for _, j := range p.jobs {
		complete := len(j.combos) > 0
		for ci := range j.combos {
			if res.Commits[j.unit+ci] == nil {
				complete = false
				break
			}
		}
		if !complete {
			if res.Finished {
				continue // retired by the live run; commitJob retires it again
			}
			break
		}
		for ci := range j.combos {
			unit := j.unit + ci
			c := res.Commits[unit]
			if len(c.Insts) != len(j.nodes) {
				return fmt.Errorf("exec: recovered unit %d committed %d instances, replanned %d",
					unit, len(c.Insts), len(j.nodes))
			}
			for ni, ids := range j.outIDs {
				if id := ids[ci]; string(id) != c.Insts[ni] {
					return fmt.Errorf("exec: recovered unit %d committed %s where the replan assigns %s: log does not match the flow",
						unit, c.Insts[ni], id)
				}
			}
			out := make(encap.Outputs, len(c.Outputs))
			for typ, b := range c.Outputs {
				out[typ] = b
			}
			for _, nid := range j.nodes {
				typ := r.f.Node(nid).Type
				if _, ok := out[typ]; !ok {
					return fmt.Errorf("exec: recovered unit %d lacks a %s output", unit, typ)
				}
			}
			j.outputs[ci] = out
			if j.memoKeys != nil && c.MemoKey != "" {
				j.memoKeys[ci] = memo.Key(c.MemoKey)
			}
		}
		if res.PlanDigest != "" { // a missing digest fails at its unit
			j.digests = make([]string, len(j.combos))
			for ci := range j.combos {
				j.digests[ci] = res.Commits[j.unit+ci].Digest
			}
		}
		j.done = true
		j.resumed = true
		j.remaining = 0
		tr.markResumed(j)
		restored = append(restored, j)
	}

	// Publish restored artifacts to the pending set and unblock
	// dependents — what complete() would have done had the units run.
	r.st.mu.Lock()
	for _, j := range restored {
		for ci := range j.combos {
			for ni, nid := range j.nodes {
				typ := r.f.Node(nid).Type
				r.st.arts[j.outIDs[ni][ci]] = pendingArtifact{typ: typ, data: j.outputs[ci][typ]}
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
