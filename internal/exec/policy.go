package exec

// FailurePolicy selects what a run does when a unit exhausts its
// retries.
type FailurePolicy int

const (
	// FailFast (the default) stops dispatching on the first failed unit:
	// in-flight units drain, the contiguous plan-order prefix of
	// completed jobs stays committed, and every failure is returned
	// joined.
	FailFast FailurePolicy = iota
	// ContinueOnError degrades gracefully: every job whose producers all
	// succeeded is still dispatched and committed, only the dependents
	// of failed jobs are skipped. The pre-assigned instance IDs of
	// failed and skipped constructions are retired (history.ReserveSeq),
	// so the committed survivors carry exactly the IDs the planner
	// assigned. The run still returns an error: the join of every unit
	// failure plus one entry per skipped construction naming its
	// root-cause node.
	ContinueOnError
)

func (p FailurePolicy) String() string {
	if p == ContinueOnError {
		return "continue-on-error"
	}
	return "fail-fast"
}
