package exec

import (
	"repro/internal/datastore"
	"repro/internal/encap"
	"repro/internal/memo"
)

// This file wires the derivation-keyed result cache (internal/memo)
// into the engine as a plan-time/run-time hybrid: unit derivation keys
// are computed on the coordinator the moment a job becomes ready (all
// producer artifacts are then resolvable), hits are completed
// synthetically without visiting a worker, and misses publish their
// results to the cache when the in-order committer records them —
// never earlier, so a failed, timed-out, skipped or cancelled unit can
// never poison the cache, and a retried-then-succeeded unit caches
// only its final committed output. The committer publishes on its own
// goroutine while the coordinator keeps consulting, so a unit may miss
// an entry an earlier unit of the same run is about to publish: a cold
// run hits its own entries at most as often as a serial commit would.
// A warm rerun is unaffected — a run's committer has exited before the
// run returns.
//
// The cache is safe to share across concurrent runs (it locks
// internally and entries hold content refs): one run's warm results
// accelerate another's. Hit accounting stays per-run — each hit its
// coordinator served is one UnitCacheHit event in its own stream,
// which trace.Metrics attributes by run label (CacheHitsByRun).
//
// The determinism contract survives warm caches untouched: hits flow
// through the same plan-order committer as executed units, so the
// committed instance IDs are exactly the planner's pre-assignment, and
// the trace gains only UnitCacheHit events — dropping them projects a
// warm run onto the cold run it reproduces (see trace_golden_test.go).

// memoUnit describes one (job, combo) unit by content: the derivation
// the cache keys on. It resolves every combo instance to its content
// address through lookupRef — committed instances carry their ref in
// history and pending artifacts hash once and cache it, so building a
// unit touches no artifact bytes on the common path.
func (r *run) memoUnit(j *plannedJob, ci int) (memo.Unit, error) {
	u := memo.Unit{Goal: j.repType, Composite: j.composite}
	u.Outputs = make([]string, len(j.nodes))
	for i, nid := range j.nodes {
		u.Outputs[i] = r.f.Node(nid).Type
	}
	combo := j.combos[ci]
	u.Inputs = make([]memo.InputRef, 0, len(combo))
	for i, inst := range combo {
		typ, ref, err := r.lookupRef(inst)
		if err != nil {
			return memo.Unit{}, err
		}
		k := j.keys[i]
		if k == "fd" && !j.composite {
			u.ToolType = typ
			u.Tool = ref
			continue
		}
		u.Inputs = append(u.Inputs, memo.InputRef{Key: k, Ref: ref})
	}
	return u, nil
}

// memoConsult computes a ready unit's derivation key (remembered on the
// job for the commit-time publish) and consults the cache. On a hit it
// reconstructs the outputs from the datastore and returns them; on any
// shortfall — no entry, a missing blob, an output type the entry does
// not cover, a lookup failure — it returns nil and the unit executes
// normally (the worker path re-surfaces any real error).
func (r *run) memoConsult(j *plannedJob, ci int) encap.Outputs {
	if r.cfg.memo == nil {
		return nil
	}
	u, err := r.memoUnit(j, ci)
	if err != nil {
		return nil
	}
	j.memoKeys[ci] = memo.UnitKey(u)
	entry, ok := r.cfg.memo.Get(j.memoKeys[ci])
	if !ok {
		return nil
	}
	out := make(encap.Outputs, len(entry.Outputs))
	for typ, ref := range entry.Outputs {
		// Aliased read: reconstructed outputs flow through the same
		// immutable-artifact paths as executed ones (pending set, commit).
		b, ok := r.cfg.store.GetShared(ref)
		if !ok {
			return nil
		}
		out[typ] = b
	}
	// Every grouped node's type must be covered, or dependents would
	// execute against a hole in the pending set.
	for _, nid := range j.nodes {
		if _, ok := out[r.f.Node(nid).Type]; !ok {
			return nil
		}
	}
	j.cacheHit[ci] = true
	return out
}

// memoPublish stores a just-committed job's executed units in the
// cache. Called by the in-order committer only after recordJob
// succeeded: commit is the cache's write barrier. Units that were
// themselves cache hits are skipped (nothing new to learn), as are
// units whose key could not be computed.
func (r *run) memoPublish(j *plannedJob) {
	if r.cfg.memo == nil || j.memoKeys == nil {
		return
	}
	for ci := range j.combos {
		if j.cacheHit[ci] || j.memoKeys[ci] == "" {
			continue
		}
		out := j.outputs[ci]
		refs := make(map[string]datastore.Ref, len(out))
		for typ, data := range out {
			// recordJob just stored the group outputs and captured their
			// refs; reuse them instead of re-hashing. Secondary outputs
			// (types beyond the grouped nodes) are stored here so they
			// become resolvable for future hits.
			if j.outRefs != nil {
				if ref, ok := j.outRefs[ci][typ]; ok {
					refs[typ] = ref
					continue
				}
			}
			refs[typ] = r.cfg.store.Put(data)
		}
		r.cfg.memo.Put(j.memoKeys[ci], memo.Entry{Outputs: refs})
	}
}
