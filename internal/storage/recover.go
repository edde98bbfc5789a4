package storage

import (
	"encoding/json"
	"fmt"

	"repro/internal/datastore"
	"repro/internal/memo"
	"repro/internal/trace"
)

// Recovery reads a run's WAL back and computes the *resumable prefix*:
// the longest prefix of the event stream after which every started job
// is fully committed. The executor emits events in strict plan order —
// PlanBuilt, then one block per job (lifecycle events for every combo,
// then that job's UnitCommitted events), then RunFinished — so the
// prefix is found in the one pass that decodes the log: a job whose
// UnitCommitted count reaches its UnitDispatched count is durable in
// full; a job block that ends before that (crash mid-job, or a
// terminal failure/skip) stops the prefix. A resumed run replays the
// prefix's committed units into history, datastore and memo through
// the normal committer, in plan order, and re-executes only the rest,
// with event Seq continuing exactly where the prefix ends.
//
// Runs whose durable prefix contains a failed or skipped job (possible
// under ContinueOnError) are deliberately not resumed past it: the
// prefix stops at the first such block and the run restarts from the
// last fully-committed job before it — a simplification, never an
// inconsistency, since re-executed units recommit the same planned IDs
// in a fresh session.

// Recovered is what a WAL yields after a crash: the run's identity, the
// resumable event prefix and the committed-unit payloads inside it.
type Recovered struct {
	// Meta is the run's identity record, nil if the WAL lacks one.
	Meta *RunMeta
	// Events is the resumable event prefix, in Seq order.
	Events []trace.Event
	// Commits holds the prefix's commit records in log order, each with
	// its event and digest. A record that repeats a unit stays: resume
	// consumes them in plan order and refuses the log at it.
	Commits []*UnitCommit
	// Finished reports a RunFinished or terminal Error record: the run
	// completed and needs no re-execution (Replay re-feeds its
	// committed artifacts to a caller that wants them).
	Finished bool
	Error    string // the error text of a run that ended before planning
	// PlanDigest is the chain digest of the PlanBuilt record (empty in
	// logs written before digests were logged; see UnitCommit.Digest).
	PlanDigest string
	// NextSeq is the sequence number the resumed run's first fresh
	// event must carry: one past the prefix.
	NextSeq int
	// PrefixRecords counts the WAL records (meta included) that make up
	// the prefix — the Rewind point.
	PrefixRecords int
}

// RecoverRun reads a log's committed records and computes the
// resumable prefix. The log is left untouched, torn tail included;
// call Rewind to discard the unresumable suffix before resuming the
// run. Records that fail to decode end the readable stream at that
// point (everything before them still recovers), and the first
// closing record — RunFinished or a terminal error record — ends the
// run.
func RecoverRun(l Log) (*Recovered, error) {
	recs, err := l.Committed()
	if err != nil {
		return nil, err
	}
	r := &Recovered{}
	var (
		events  []trace.Event
		commits []*UnitCommit
		// The prefix: its events and commit records.
		prefix, prefixCommits int
		// The job block being read, once one is open: its job, its
		// counts, and whether it saw a Failed/Skipped event.
		open, terminal        bool
		job                   int
		dispatched, committed int
		// A block never fully committed: the prefix ends before it,
		// and the scan goes on only for a later RunFinished.
		frozen bool
	)
	for i, raw := range recs {
		var rec Record
		if json.Unmarshal(raw, &rec) != nil {
			break // undecodable record: treat like a torn tail from here
		}
		ev := rec.Event
		switch {
		case rec.Meta != nil:
			if r.Meta == nil {
				r.Meta = rec.Meta
				r.PrefixRecords = i + 1
			}
			continue
		case ev == nil && rec.Error != "":
			// The run ended before planning: nothing follows.
			r.Finished, r.Error = true, rec.Error
			r.PrefixRecords = i + 1
			return r, nil
		case ev == nil:
			continue
		}
		events = append(events, *ev)
		if c := rec.Commit; c != nil {
			c.Event, c.Digest = ev, rec.Digest
			commits = append(commits, c)
		}
		switch {
		case ev.Kind == trace.KindRunFinished:
			// The run completed (successfully or not): the whole stream
			// is the prefix and nothing re-executes.
			r.Finished, r.PrefixRecords = true, i+1
			r.Events, r.Commits, r.NextSeq = events, commits, ev.Seq+1
			return r, nil
		case frozen:
			continue
		case ev.Kind == trace.KindPlanBuilt && !open:
			r.PlanDigest = rec.Digest
			prefix, r.PrefixRecords = len(events), i+1
			continue
		case !open || ev.Job != job:
			if open && !(dispatched > 0 && committed == dispatched) {
				frozen = true
				continue
			}
			open, job, dispatched, committed, terminal = true, ev.Job, 0, 0, false
		}
		if terminal {
			continue // drain the failed block's remaining events
		}
		switch ev.Kind {
		case trace.KindUnitDispatched:
			dispatched++
		case trace.KindUnitFailed, trace.KindUnitSkipped:
			terminal = true
		case trace.KindUnitCommitted:
			committed++
			// All of a job's Dispatched events precede its first
			// Committed, so equality means the block is complete.
			if dispatched > 0 && committed == dispatched {
				prefix, prefixCommits, r.PrefixRecords = len(events), len(commits), i+1
			}
		}
	}
	r.Events, r.Commits = events[:prefix], commits[:prefixCommits]
	if prefix > 0 {
		r.NextSeq = events[prefix-1].Seq + 1
	}
	return r, nil
}

// Ends is a finished run as the two ends of its log record it: the
// identity record and the record that closed the run. Boot lists a
// finished run from them without decoding the events in between.
type Ends struct {
	Meta *RunMeta
	// Finished is the run's RunFinished event; nil when the terminal
	// error record of a run that ended before planning closed the log.
	Finished *trace.Event
	// Error is that terminal error record's text.
	Error string
}

// ReadEnds decodes a log's first and last records only. It returns the
// finished run they describe when the first is an identity record and
// the last is RunFinished or a terminal error record, and nil, with no
// error, for any other log: an interrupted or damaged one, which needs
// RecoverRun. The log is left untouched. On a log whose every record
// decodes and whose first closing record is its last — every log a run
// writes — a run ReadEnds returns is the one RecoverRun(l).Ends()
// returns (FuzzReadEnds). A log altered to hold a closing record
// before its last record is read from its last, where RecoverRun stops
// at the first; ReplayLog refuses such a log as altered.
func ReadEnds(l *FileLog) (*Ends, error) {
	n := l.Records()
	if n < 2 {
		return nil, nil
	}
	last, err := readRecord(l, n-1)
	if err != nil || last == nil {
		return nil, err
	}
	e := &Ends{}
	switch {
	case last.Meta != nil:
		return nil, nil
	case last.Event != nil && last.Event.Kind == trace.KindRunFinished:
		e.Finished = last.Event
	case last.Event == nil && last.Error != "":
		e.Error = last.Error
	default:
		return nil, nil
	}
	first, err := readRecord(l, 0)
	if err != nil || first == nil || first.Meta == nil {
		return nil, err
	}
	e.Meta = first.Meta
	return e, nil
}

// readRecord decodes the log's i-th record; nil, with no error, when
// the record does not decode.
func readRecord(l *FileLog, i int) (*Record, error) {
	raw, err := l.Record(i)
	if err != nil {
		return nil, err
	}
	var rec Record
	if json.Unmarshal(raw, &rec) != nil {
		return nil, nil
	}
	return &rec, nil
}

// Ends returns the finished run r recovered, nil if it did not finish.
func (r *Recovered) Ends() *Ends {
	if !r.Finished {
		return nil
	}
	e := &Ends{Meta: r.Meta, Error: r.Error}
	if n := len(r.Events); r.Error == "" && n > 0 {
		e.Finished = &r.Events[n-1]
	}
	return e
}

// Rewind truncates the log to the resumable prefix, so the resumed
// run's fresh records extend a consistent stream.
func (r *Recovered) Rewind(l Log) error {
	return l.Rewind(r.PrefixRecords)
}

// Replay feeds the prefix's committed artifacts into a datastore and
// (when both sides are configured) the memo cache — the restart path
// that makes the cache survive: a warm rerun after recovery hits on
// every unchanged unit without ever touching the worker pool. Safe on
// a nil cache.
func (r *Recovered) Replay(store *datastore.Store, cache *memo.Cache) error {
	if store == nil {
		return fmt.Errorf("storage: replay needs a datastore")
	}
	for _, c := range r.Commits {
		refs := make(map[string]datastore.Ref, len(c.Outputs))
		for typ, data := range c.Outputs {
			refs[typ] = store.Put(data)
		}
		if cache != nil && c.MemoKey != "" {
			cache.Put(memo.Key(c.MemoKey), memo.Entry{Outputs: refs})
		}
	}
	return nil
}
