package storage

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/trace"
)

// This file defines what a run's WAL contains and how the executor
// writes it. The log is the trace: record 0 names the run (RunMeta) and
// every further record is one trace.Event, with UnitCommitted events
// additionally carrying the unit's committed artifacts (UnitCommit) so
// recovery can rebuild the datastore, the history and the memo cache
// from the log alone. Each fact is logged once: the event names the
// unit and its instances, and the payload holds only what the event
// does not. The PlanBuilt and UnitCommitted records also carry the
// head of the run's provenance hash chain (internal/provenance) after
// the imports, or after that unit's records, so a replay of the log
// can check the artifacts against the history they re-derive. A run
// that ends before planning logs one terminal error record instead.
//
// Durability discipline: the executor appends records inline (cheap —
// a copy into a buffered channel): its coordinator appends PlanBuilt
// and RunFinished, its committer every job's records as it commits
// them. A single writer goroutine drains them to the Log and
// group-commits with Sync when either enough bytes accumulated or the
// oldest unsynced record has waited long enough. Barrier() is the
// synchronous fsync point, called once when a run finishes (and by the
// service on drain) — never per unit, so a unit's durability costs an
// append, not an fsync. The window between a unit's commit and the
// next group-commit is bounded by syncEvery; a crash inside it loses
// only that suffix, and recovery re-executes the affected units (never
// half of one).

// RunMeta names a run: the first record of its WAL, written at
// submission. Recovery uses it to rebuild the world the run executed
// so the replanned IDs match the logged ones.
type RunMeta struct {
	// ID is the run's label (service run id, Event.Run before masking).
	ID string `json:"id"`
	// Flow is the run's display name ("scenario:<name>").
	Flow string `json:"flow"`
	// User is the submitting designer.
	User string `json:"user"`
	// Scenario is the submitted scenario document, compacted JSON
	// (internal/scenario) — everything needed to re-materialize the
	// run's world on resume. Empty in logs written before scenarios
	// were recorded; such runs cannot be resumed.
	Scenario json.RawMessage `json:"scenario,omitempty"`
}

// UnitCommit is the durable payload of one committed unit, attached to
// its UnitCommitted event: everything replay needs to reconstruct the
// unit's outputs without re-running the tool. The event names the unit
// and its instances; the payload does not repeat them (logs written
// before it stopped do, and the reader ignores those copies).
type UnitCommit struct {
	// Outputs maps each produced entity type to its artifact bytes —
	// the grouped nodes' outputs plus any secondary outputs the tool
	// emitted.
	Outputs map[string][]byte `json:"outputs"`
	// MemoKey is the unit's derivation key when a result cache was
	// installed, so the cache can be re-fed on recovery.
	MemoKey string `json:"memo_key,omitempty"`
	// Event is the UnitCommitted event the payload's record carries
	// and Digest the chain digest in its envelope (Record.Digest); both
	// are filled in by RecoverRun and neither is encoded.
	Event  *trace.Event `json:"-"`
	Digest string       `json:"-"`
}

// Record is the WAL record envelope: exactly one of Meta, Event and
// Error is set.
type Record struct {
	Meta  *RunMeta     `json:"meta,omitempty"`
	Event *trace.Event `json:"event,omitempty"`
	// Commit rides along with Event when the event is a UnitCommitted.
	Commit *UnitCommit `json:"commit,omitempty"`
	// Digest rides along with a PlanBuilt or UnitCommitted event: the
	// chain head after the imports, or after the unit's records. Empty
	// in logs written before digests were logged.
	Digest string `json:"digest,omitempty"`
	// Error is the terminal record of a run that ended before planning:
	// its error text. It is not a trace event.
	Error string `json:"error,omitempty"`
}

// Group-commit policy: sync when this many bytes are unsynced, or when
// the oldest unsynced record has waited this long.
const (
	syncBytes = 256 << 10
	syncEvery = 5 * time.Millisecond
)

// RunWAL writes one run's records to a Log through an asynchronous
// group-committing writer goroutine. Append calls are cheap and
// non-blocking (the channel is buffered generously); Barrier is the
// synchronous durability point. The first write error is latched and
// returned by Barrier, Err and Close — appends after an error are
// dropped, so a full disk degrades to a non-durable run that still
// finishes and reports the failure once.
type RunWAL struct {
	log Log
	ch  chan walMsg
	wg  sync.WaitGroup

	mu  sync.Mutex
	err error
}

// walMsg is one queued append (or barrier). The event rides by value:
// a ~200-byte copy into the channel's ring costs far less than the
// pair of heap allocations (Record + Event) it replaces — on the 30k+
// events of a 10k-unit run the difference is pure GC pressure.
type walMsg struct {
	meta   *RunMeta    // identity record, nil otherwise
	ev     trace.Event // event record when ev.Kind != ""
	commit *UnitCommit // rides with a UnitCommitted ev
	digest string      // rides with a PlanBuilt or UnitCommitted ev
	errMsg string      // terminal record when set
	ack    chan error  // barrier acknowledgement
}

// NewRunWAL starts the writer goroutine over a Log. The caller keeps
// ownership of the Log and must Close the RunWAL (which does not close
// the Log) when the run is over.
func NewRunWAL(l Log) *RunWAL {
	w := &RunWAL{log: l, ch: make(chan walMsg, 4096)}
	w.wg.Add(1)
	go w.writer()
	return w
}

func (w *RunWAL) writer() {
	defer w.wg.Done()

	// Group commits run on a dedicated syncer goroutine: an fsync is
	// almost entirely device wait (the per-call CPU cost is tens of
	// microseconds; the milliseconds are writeback), so the writer keeps
	// encoding and appending while the device flushes. Requests coalesce
	// through the 1-slot channel — a sync already in flight covers the
	// bytes that prompted the next request, or the retry lands right
	// after it.
	syncReq := make(chan struct{}, 1)
	syncerDone := make(chan struct{})
	go func() {
		defer close(syncerDone)
		for range syncReq {
			if err := w.log.Sync(); err != nil {
				w.fail(err)
			}
		}
	}()
	kick := func() {
		select {
		case syncReq <- struct{}{}:
		default:
		}
	}

	buf := make([]byte, 0, 4096) // encode buffer, reused across records
	var pending int              // bytes appended since the last sync request
	var timer *time.Timer        // armed while pending > 0
	var timerC <-chan time.Time
	disarm := func() {
		if timer != nil {
			timer.Stop()
			timer = nil
			timerC = nil
		}
	}
	stopSyncer := func() {
		close(syncReq)
		<-syncerDone
	}
	// barrier is the synchronous durability point: no async handoff, the
	// caller is waiting for the fsync to have happened.
	barrier := func() {
		if err := w.log.Sync(); err != nil {
			w.fail(err)
		}
		pending = 0
		disarm()
	}
	for {
		select {
		case m, ok := <-w.ch:
			if !ok {
				stopSyncer()
				barrier()
				return
			}
			if m.ack == nil {
				if w.Err() == nil {
					// Encoding happens here, on the writer, into a
					// reused buffer (Log.Append copies) — the
					// executor's append is a copy into a buffered
					// channel, nothing more.
					buf = appendWALRecord(buf[:0], &m)
					if err := w.log.Append(buf); err != nil {
						w.fail(err)
					} else {
						pending += len(buf)
					}
				}
				if pending >= syncBytes {
					kick()
					pending = 0
					disarm()
				} else if pending > 0 && timer == nil {
					timer = time.NewTimer(syncEvery)
					timerC = timer.C
				}
			}
			if m.ack != nil {
				barrier()
				m.ack <- w.Err()
			}
		case <-timerC:
			timer = nil
			timerC = nil
			kick()
			pending = 0
		}
	}
}

func (w *RunWAL) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = fmt.Errorf("storage: run log write failed: %w", err)
	}
	w.mu.Unlock()
}

// Err returns the first write error, if any.
func (w *RunWAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// AppendMeta writes the run's identity record and barriers, so a
// submission is durable before it is acknowledged.
func (w *RunWAL) AppendMeta(m RunMeta) error {
	w.ch <- walMsg{meta: &m}
	return w.Barrier()
}

// Append logs one trace event with a UnitCommitted's payload c and a
// PlanBuilt's or UnitCommitted's chain digest (nil and "" otherwise).
func (w *RunWAL) Append(ev trace.Event, c *UnitCommit, digest string) {
	w.ch <- walMsg{ev: ev, commit: c, digest: digest}
}

// AppendError logs the terminal record of a run that ended before
// planning: recovery reads the log as finished, failed with msg.
func (w *RunWAL) AppendError(msg string) {
	w.ch <- walMsg{errMsg: msg}
}

// Barrier blocks until everything appended so far is on stable storage
// (or surfaces the latched write error).
func (w *RunWAL) Barrier() error {
	ack := make(chan error, 1)
	w.ch <- walMsg{ack: ack}
	return <-ack
}

// Close drains, syncs and stops the writer. The underlying Log stays
// open (the caller owns it).
func (w *RunWAL) Close() error {
	close(w.ch)
	w.wg.Wait()
	return w.Err()
}
