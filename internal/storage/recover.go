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
// prefix is found with a single walk: a job whose UnitCommitted count
// reaches its UnitDispatched count is durable in full; a job block that
// ends before that (crash mid-job, or a terminal failure/skip) stops
// the prefix. A resumed run replays the prefix's committed units into
// history, datastore and memo through the normal committer and
// re-executes only the rest, with event Seq continuing exactly where
// the prefix ends.
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
	// Commits holds the durable payload of every committed unit in the
	// prefix, keyed by its event's global unit index.
	Commits map[int]*UnitCommit
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
// point (everything before them still recovers).
func RecoverRun(l Log) (*Recovered, error) {
	recs, err := l.Committed()
	if err != nil {
		return nil, err
	}
	r := &Recovered{Commits: make(map[int]*UnitCommit)}
	type evRec struct {
		ev     trace.Event
		recIdx int
		commit *UnitCommit
	}
	var events []evRec
decode:
	for i, raw := range recs {
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			break // undecodable record: treat like a torn tail from here
		}
		switch {
		case rec.Meta != nil:
			if r.Meta == nil {
				r.Meta = rec.Meta
				r.PrefixRecords = i + 1
			}
		case rec.Event != nil:
			if rec.Commit != nil {
				rec.Commit.Event, rec.Commit.Digest = rec.Event, rec.Digest
			}
			if rec.Event.Kind == trace.KindPlanBuilt {
				r.PlanDigest = rec.Digest
			}
			events = append(events, evRec{ev: *rec.Event, recIdx: i, commit: rec.Commit})
		case rec.Error != "":
			// The run ended before planning: nothing follows.
			r.Finished, r.Error = true, rec.Error
			r.PrefixRecords = i + 1
			break decode
		}
	}
	if r.Error != "" {
		return r, nil
	}

	// A RunFinished record means the run completed (successfully or
	// not): the whole stream is the prefix and nothing re-executes —
	// recovery only replays the committed payloads into store and memo.
	for i, er := range events {
		if er.ev.Kind == trace.KindRunFinished {
			r.Finished = true
			r.PrefixRecords = er.recIdx + 1
			r.Events = make([]trace.Event, i+1)
			for k := 0; k <= i; k++ {
				r.Events[k] = events[k].ev
				if c := events[k].commit; c != nil {
					r.Commits[c.Event.Unit] = c
				}
			}
			r.NextSeq = r.Events[i].Seq + 1
			return r, nil
		}
	}

	// Walk the event stream, extending the prefix over PlanBuilt and
	// every fully-committed job block.
	var (
		prefixEvents = 0  // events in the resumable prefix
		curJob       = -2 // job block being scanned (-2: none yet)
		dispatched   = 0
		committed    = 0
		terminal     = false // block saw a Failed/Skipped event
		pending      []evRec // current block's events, commits held back
	)
	commitBlock := func(upto int) {
		for _, er := range pending {
			if c := er.commit; c != nil {
				r.Commits[c.Event.Unit] = c
			}
		}
		pending = pending[:0]
		prefixEvents = upto
	}
	for i, er := range events {
		ev := er.ev
		if ev.Kind == trace.KindPlanBuilt {
			prefixEvents = i + 1
			r.PrefixRecords = er.recIdx + 1
			continue
		}
		if ev.Job != curJob {
			if curJob >= 0 && !(dispatched > 0 && committed == dispatched) {
				break // previous block never fully committed: prefix ends
			}
			curJob = ev.Job
			dispatched, committed, terminal = 0, 0, false
			pending = pending[:0]
		}
		if terminal {
			continue // drain the failed block's remaining events
		}
		pending = append(pending, er)
		switch ev.Kind {
		case trace.KindUnitDispatched:
			dispatched++
		case trace.KindUnitFailed, trace.KindUnitSkipped:
			terminal = true
			pending = pending[:0]
		case trace.KindUnitCommitted:
			committed++
			// All of a job's Dispatched events precede its first
			// Committed, so equality means the block is complete.
			if dispatched > 0 && committed == dispatched {
				commitBlock(i + 1)
				r.PrefixRecords = er.recIdx + 1
			}
		}
	}
	r.Events = make([]trace.Event, prefixEvents)
	for i := 0; i < prefixEvents; i++ {
		r.Events[i] = events[i].ev
	}
	if prefixEvents > 0 {
		r.NextSeq = r.Events[prefixEvents-1].Seq + 1
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
