package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/history"
	"repro/internal/scenario"
)

// This file is the staleness/retrace leg of the conformance contract:
// a scenario's "edit" ops supersede imports between executions, and the
// expect.stale block pins the exact stale cone (history.StaleInputs)
// plus the retrace that clears it. The check mutates the base world's
// history database, so Run invokes it last.

// applyEdit records one edit op's new version: an instance of the edit
// type, produced by the editor tool import, consuming the current
// version of the edited import as its version-lineage input. Version
// lineage is structural (versionParent), so the edit type must declare
// a data dependency the superseded instance's type satisfies — which
// is what links old and new into one lineage and makes StaleInputs
// fire.
func (w *world) applyEdit(op scenario.Op) (history.ID, error) {
	old, ok := w.imports[op.Import]
	if !ok {
		return "", fmt.Errorf("edit: unknown import key %q", op.Import)
	}
	tool, ok := w.imports[op.To[0]]
	if !ok {
		return "", fmt.Errorf("edit: unknown editor import %q", op.To[0])
	}
	et := w.schema.Type(op.Type)
	if et == nil {
		return "", fmt.Errorf("edit: schema has no type %q", op.Type)
	}
	oldType := w.db.Get(old).Type
	key := ""
	for _, d := range et.DataDeps {
		if w.schema.Satisfies(oldType, d.Type) {
			key = d.Key()
			break
		}
	}
	if key == "" {
		return "", fmt.Errorf("edit: %s has no data dependency satisfied by %s (the current %q) — the edit type needs a dd onto the edited lineage",
			op.Type, oldType, op.Import)
	}
	inst, err := w.db.Record(history.Instance{
		Type: op.Type, User: "harness", Tool: tool,
		Inputs: []history.Input{{Key: key, Inst: old}},
		Data:   w.store.Put([]byte(op.Data)),
	})
	if err != nil {
		return "", fmt.Errorf("edit of %q: %w", op.Import, err)
	}
	w.imports[op.Import] = inst.ID
	return inst.ID, nil
}

// checkStale applies the scenario's edit ops to the base world and
// enforces the staleness/retrace contract: StaleInputs over the target
// node's instance must report exactly the originals of the edited
// imports named in expect.stale (each superseded by its current
// version), and a retrace must rebuild the cone and leave the new
// target clean.
func checkStale(sc *scenario.Scenario, base *runOut, opts Options, rep *Report) error {
	opts.logf("scenario %s: stale/retrace check", sc.Name)
	w, st := base.w, sc.Expect.Stale
	fail := func(format string, args ...any) error {
		return fmt.Errorf("scenario %s: expect.stale: %s", sc.Name, fmt.Sprintf(format, args...))
	}
	nodeID, err := w.node(st.Node)
	if err != nil {
		return fail("%v", err)
	}
	if base.res == nil {
		return fail("base run produced no result")
	}
	target, err := base.res.One(nodeID)
	if err != nil {
		return fail("(%s): %v", st.Node, err)
	}

	// Nothing may be stale before the edits: the base run is current.
	before, err := w.db.StaleInputs(target)
	if err != nil {
		return fail("StaleInputs before edits: %v", err)
	}
	if len(before) != 0 {
		return fail("target %s already stale before any edit: %+v", target, before)
	}

	// Edits model later session time: under the frozen clock a new
	// version would tie with the original on Created and "newest
	// version" resolution would fall back to ID order. The sweep's
	// byte-comparisons are all done by now, so tick the clock forward
	// deterministically for the edit and retrace commits.
	tick := 0
	w.db.SetClock(func() time.Time {
		tick++
		return frozenTime.Add(time.Duration(tick) * time.Second)
	})

	// Apply the edits in order, remembering each superseded instance's
	// import key — those originals are what StaleInputs must surface.
	// (A second edit of the same key supersedes an intermediate version
	// the target never used; only the original lands in the cone.)
	originals := make(map[history.ID]string)
	for _, op := range w.edits {
		originals[w.imports[op.Import]] = op.Import
		if _, err := w.applyEdit(op); err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
	}

	stales, err := w.db.StaleInputs(target)
	if err != nil {
		return fail("StaleInputs(%s): %v", target, err)
	}
	got := make([]string, 0, len(stales))
	for _, s := range stales {
		key, ok := originals[s.Used]
		if !ok {
			return fail("StaleInputs reports %s stale (newest %s), which no edit superseded", s.Used, s.Newest)
		}
		if cur := w.imports[key]; s.Newest != cur {
			return fail("stale %q: newest version is %s, want the last edit %s", key, s.Newest, cur)
		}
		got = append(got, key)
	}
	sort.Strings(got)
	want := append([]string(nil), st.Stale...)
	sort.Strings(want)
	if !equalStrings(got, want) {
		return fail("stale cone is [%s], want [%s]", strings.Join(got, ", "), strings.Join(want, ", "))
	}

	rr, err := w.engine.RetraceOptions(context.Background(), target, w.runOptions())
	if err != nil {
		return fail("retrace of %s: %v", target, err)
	}
	if rr.Fresh {
		return fail("retrace of %s found nothing to do despite a non-empty stale cone", target)
	}
	if st.RetraceTasks != nil && len(rr.Rebuilt) != *st.RetraceTasks {
		return fail("retrace rebuilt %d constructions, want %d (plan: %s)", len(rr.Rebuilt), *st.RetraceTasks, rr.Plan)
	}
	nt := rr.NewTarget(target)
	if nt == target {
		return fail("retrace did not supersede the stale target %s", target)
	}
	after, err := w.db.StaleInputs(nt)
	if err != nil {
		return fail("StaleInputs after retrace: %v", err)
	}
	if len(after) != 0 {
		return fail("retraced target %s still stale: %+v", nt, after)
	}
	rep.StaleKeys = got
	rep.RetraceTasks = len(rr.Rebuilt)
	return nil
}
