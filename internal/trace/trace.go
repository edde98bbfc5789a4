// Package trace is the structured run-event layer of the execution
// engine: one Event per lifecycle transition of a run, emitted into a
// pluggable Sink. The design-history database records *what* was
// derived; the trace records *how the run unfolded* — dispatch, start,
// retries, timeouts, failures, skips, commits — as an audit trail of
// the schedule itself.
//
// Determinism contract. Events carry a logical sequence number (Seq)
// assigned in *commit order from the plan*, not wall-clock completion
// order: the engine buffers per-unit observations and emits a job's
// events only when the in-order committer passes the job. Because plan
// order is a pure function of the flow and the schema, a clean run's
// masked event stream is byte-identical across worker counts and
// race-detector runs. Wall-clock durations are segregated into the
// *Micros fields so Mask can zero exactly the nondeterministic part and
// golden comparisons can diff the rest byte for byte.
package trace

// Kind names a lifecycle transition. The ten kinds below are the
// complete event taxonomy (DESIGN.md §8, §9).
type Kind string

const (
	// KindPlanBuilt opens a run: the plan is frozen, instance IDs are
	// pre-assigned, nothing has executed yet.
	KindPlanBuilt Kind = "PlanBuilt"
	// KindUnitDispatched marks a (job, combo) unit leaving the ready
	// queue for a worker; WaitMicros is the ready→dispatch delay.
	KindUnitDispatched Kind = "UnitDispatched"
	// KindUnitStarted marks the first attempt of a unit beginning.
	KindUnitStarted Kind = "UnitStarted"
	// KindUnitRetried marks a failed attempt that will be retried;
	// Attempt is the 1-based number of the attempt that failed.
	KindUnitRetried Kind = "UnitRetried"
	// KindUnitTimedOut marks an attempt cut off by the per-task
	// deadline (it may still be retried; a UnitRetried or UnitFailed
	// event for the same attempt follows).
	KindUnitTimedOut Kind = "UnitTimedOut"
	// KindUnitFailed marks a unit whose final attempt failed; Attempt
	// is the total attempt count.
	KindUnitFailed Kind = "UnitFailed"
	// KindUnitSkipped marks a unit that never ran because a producer
	// failed (ContinueOnError); Blame names the root-cause node.
	KindUnitSkipped Kind = "UnitSkipped"
	// KindUnitCacheHit marks a unit satisfied from the derivation-keyed
	// result cache (internal/memo): its outputs were reconstructed from
	// the datastore without running the tool. It is emitted in addition
	// to the normal lifecycle events, so dropping it (DropKinds)
	// projects a warm-cache run onto the cold run it reproduces.
	KindUnitCacheHit Kind = "UnitCacheHit"
	// KindUnitCommitted marks a unit's outputs recorded in history;
	// Insts are the committed instance IDs, exactly the planner's
	// pre-assignment. Deliberately attempt-free: a retried-then-
	// succeeded unit commits an event identical to a clean one.
	KindUnitCommitted Kind = "UnitCommitted"
	// KindRunFinished closes a run with its outcome counters.
	KindRunFinished Kind = "RunFinished"
)

// Event is one run-event. Unit-scoped fields (Job, Combo, Unit, Nodes,
// Type, …) are set on Unit* kinds; run-scoped fields (Jobs, Units,
// Committed, …) on PlanBuilt and RunFinished, whose Job/Combo/Unit are
// -1. The *Micros fields are the only nondeterministic fields; Mask
// zeroes them.
type Event struct {
	// Seq is the deterministic logical sequence number: emission order,
	// which for unit events is plan commit order. Seq is per run: sinks
	// shared by concurrent runs see interleaved streams, each run's
	// events in order among themselves, attributable via Run.
	Seq int `json:"seq"`
	// Run is the label of the run that emitted the event (RunOptions.
	// Label), empty for unlabelled runs. Masked: the same flow must
	// produce the same masked trace whatever the run is called.
	Run string `json:"run,omitempty"`
	// Kind is the lifecycle transition.
	Kind Kind `json:"kind"`
	// Job is the job index in plan order (-1 for run-scoped events).
	Job int `json:"job"`
	// Combo is the input-combination index within the job (-1 for
	// run-scoped events).
	Combo int `json:"combo"`
	// Unit is the global unit index in plan order (-1 for run-scoped
	// events): jobs contribute their combos consecutively.
	Unit int `json:"unit"`
	// Nodes lists the flow nodes realized by the job (grouped
	// multi-output constructions list every sibling).
	Nodes []int `json:"nodes,omitempty"`
	// Type is the representative node's goal type.
	Type string `json:"type,omitempty"`
	// Attempt is the 1-based attempt number (UnitRetried, UnitTimedOut,
	// UnitFailed).
	Attempt int `json:"attempt,omitempty"`
	// Insts are the instance IDs committed for the unit (UnitCommitted),
	// in node order.
	Insts []string `json:"insts,omitempty"`
	// Blame is the root-cause node of a skip (UnitSkipped).
	Blame int `json:"blame,omitempty"`
	// Err is the attempt or unit error text (UnitRetried, UnitTimedOut,
	// UnitFailed).
	Err string `json:"err,omitempty"`

	// Run-scoped fields.
	Workers   int `json:"workers,omitempty"`
	Jobs      int `json:"jobs,omitempty"`
	Units     int `json:"units,omitempty"`
	Committed int `json:"committed,omitempty"`
	Failed    int `json:"failed,omitempty"`
	Skipped   int `json:"skipped,omitempty"`

	// Wall-clock fields, microseconds. Masked in golden comparisons.
	WaitMicros    int64 `json:"wait_us,omitempty"`    // ready → dispatch (UnitDispatched)
	DurMicros     int64 `json:"dur_us,omitempty"`     // start → done, all attempts (terminal unit events)
	BusyMicros    int64 `json:"busy_us,omitempty"`    // summed worker time (RunFinished)
	ElapsedMicros int64 `json:"elapsed_us,omitempty"` // scheduling span (RunFinished)
}

// Sink receives events. Each run emits its own events one at a time in
// Seq order — PlanBuilt and RunFinished from its coordinator goroutine,
// everything between from its committer goroutine, each emit ordered
// before the next — so a sink observing one run needs no lock. Runs
// sharing a sink emit concurrently with their streams interleaved: a
// shared Sink must lock (the sinks in this package all do) and can
// separate the streams by Event.Run.
type Sink interface {
	Emit(Event)
}

// Mask zeroes the nondeterministic fields of an event — wall-clock
// durations, the run label and the worker count — leaving the logical
// structure. Workers is masked because it describes the execution
// environment, and the determinism contract promises identical logical
// traces across worker counts.
func Mask(ev Event) Event {
	ev.Run = ""
	ev.Workers = 0
	ev.WaitMicros = 0
	ev.DurMicros = 0
	ev.BusyMicros = 0
	ev.ElapsedMicros = 0
	return ev
}

// DropKinds removes every event of the given kinds and renumbers Seq
// consecutively from the first survivor's value. Dropping the
// fault-path kinds (UnitRetried, UnitTimedOut) projects a retried run
// onto the clean run it converged to.
func DropKinds(events []Event, kinds ...Kind) []Event {
	drop := make(map[Kind]bool, len(kinds))
	for _, k := range kinds {
		drop[k] = true
	}
	out := make([]Event, 0, len(events))
	seq := 0
	if len(events) > 0 {
		seq = events[0].Seq
	}
	for _, ev := range events {
		if drop[ev.Kind] {
			continue
		}
		ev.Seq = seq
		seq++
		out = append(out, ev)
	}
	return out
}

// AppendMaskedJSONL appends ev, masked, as one JSON line.
func AppendMaskedJSONL(b []byte, ev Event) []byte {
	ev = Mask(ev)
	return append(AppendJSON(b, &ev), '\n')
}

// MaskedJSONL renders events as masked JSON Lines — the canonical form
// for golden-trace comparisons.
func MaskedJSONL(events []Event) []byte {
	var b []byte
	for _, ev := range events {
		b = AppendMaskedJSONL(b, ev)
	}
	return b
}
