package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/history"
	"repro/internal/storage"
	"repro/internal/trace"
)

// This file is the service half of the durability layer (Config.
// DataDir). Layout under the data directory:
//
//	runs/<id>.wal   one write-ahead log per submission: the identity
//	                record with the submitted scenario, then the run's
//	                trace plus each committed unit's artifacts and chain
//	                digest
//
// Nothing else is written; a store.json or runs/<id>.chain left by an
// older flowd is neither read nor deleted.
//
// A finished durable run lives in its WAL. When a run's log closes
// cleanly the run drops its event log and derivation graph (launch),
// so it keeps only its view fields and its log path. Its /trace
// re-encodes the events the log reads back (writeLoggedTrace), and its
// /provenance queries a graph replayed from the log (ReplayLog), the
// last few of which the server keeps (replayCache, provenance.go).
//
// Boot recovery (initDurable, from New) reads every WAL back:
//
//   - A log that opens with its identity record and closes with
//     RunFinished, or with the terminal error record of a run that
//     ended before planning, is a completed run — possibly a failed or
//     cancelled one. Boot decodes those two records only
//     (storage.ReadEnds) and lists the run in its terminal state, as
//     released as a run that finished here; nothing else is decoded or
//     replayed at boot.
//
//   - Any other log is read whole (storage.RecoverRun). One that reads
//     back finished all the same is listed as above. One that does not
//     is an interrupted run (crash, kill -9).
//     The service re-materializes the run's world from the scenario in
//     the identity record — the same path a submission takes — rewinds
//     the log to its resumable prefix and relaunches the run with
//     exec.RunOptions.Resume: the executor restores every fully-committed
//     unit from the log (re-recording history, checking it against its
//     logged chain digest and re-feeding the new world's datastore
//     through its normal commit step) and re-executes only the rest,
//     appending to the same WAL with continuous event sequence
//     numbers. Nothing is replayed here out-of-band — the resumed run
//     is the single commit path. A log whose scenario does not
//     materialize (or is missing) recovers failed; one that carries no
//     chain digests, or fails a check, ends failed, naming the unit.
//     ReplayLog, the one verifier, replays a finished log the same way
//     and runs nothing.
//
// Shutdown is the graceful half: stop admitting, drain active runs
// (their own goroutines close each WAL), abort stragglers at the
// deadline, then stop the engine's worker pool.

// openRunWAL creates a fresh submission's log under <dataDir>/runs and
// makes the identity record, carrying the compacted scenario document,
// durable, and then the log's name: it fsyncs runs/ once, so an
// acknowledged run's log survives a power loss, not only a killed
// process. A directory that fails to sync fails the submission after
// the log is set on rec, so discardRunWAL ends it.
func (s *Server) openRunWAL(rec *runRecord, doc []byte) error {
	dir := filepath.Join(s.dataDir, "runs")
	path := filepath.Join(dir, rec.id+".wal")
	l, err := storage.OpenFile(path)
	if err != nil {
		return err
	}
	w := storage.NewRunWAL(l)
	if err := w.AppendMeta(storage.RunMeta{ID: rec.id, Flow: rec.flowName, User: rec.user, Scenario: doc}); err != nil {
		_ = w.Close()
		_ = l.Close()
		return err
	}
	rec.wal, rec.walLog, rec.logPath = w, l, path
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// discardRunWAL ends the WAL of a run that was never launched
// (admission lost a race with Shutdown) with err, so no boot runs it.
func (s *Server) discardRunWAL(rec *runRecord, err error) {
	if rec.wal == nil {
		return
	}
	rec.wal.AppendError(err.Error())
	_ = rec.wal.Close()
	_ = rec.walLog.Close()
}

// ErrInterrupted marks a log that does not read back to a finished
// run: an interrupted one, or, for a run known to have finished, damage.
var ErrInterrupted = errors.New("the log does not read back to a finished run")

// ReplayLog re-derives a finished run's history from its WAL alone,
// without modifying the log: it materializes the world from the logged
// scenario and replays the log through the resume path, no tool run,
// checking PlanBuilt's shape and digest, each unit's UnitCommitted
// event and digest, and RunFinished's counts. It returns the replayed
// database's derivation graph and the number of chain records
// re-derived (imports included), or the first failure, which names the
// unit. An unfinished log fails with ErrInterrupted; a finished one
// with bytes after its end is damaged, since a finished run synced
// everything it wrote. A log that cannot be opened or read fails with a
// *readError, which says nothing of what the log holds.
func ReplayLog(path string) (*history.Graph, int, error) {
	g, n, _, err := replayLog(path)
	return g, n, err
}

// readError is a replay that failed to open or read its log: a fault
// of the moment (a descriptor limit, an I/O error, a moved file), not
// of the log's contents.
type readError struct{ err error }

func (e *readError) Error() string { return e.err.Error() }
func (e *readError) Unwrap() error { return e.err }

// replayLog is ReplayLog, also returning the replay's result.
func replayLog(path string) (*history.Graph, int, *exec.Result, error) {
	l, err := storage.OpenReadOnly(path)
	if err != nil {
		return nil, 0, nil, &readError{err}
	}
	defer l.Close() // read only
	rc, err := storage.RecoverRun(l)
	switch {
	case err != nil:
		return nil, 0, nil, &readError{err}
	case !rc.Finished:
		return nil, 0, nil, ErrInterrupted
	case l.Torn() || l.Records() > rc.PrefixRecords:
		return nil, 0, nil, errors.New("the log has bytes after its end: a finished run's log was altered")
	case rc.Meta == nil:
		return nil, 0, nil, errors.New("the log has no identity record: a finished run's log was altered")
	}
	world, _, opts, err := materialize(rc.Meta.Scenario)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("scenario: %w", err)
	}
	defer world.Close()
	var res *exec.Result
	if rc.Error == "" { // a run that ended before planning recorded only its imports
		opts.User, opts.Resume = rc.Meta.User, rc
		engine := exec.New(nil, nil, nil, nil)
		defer engine.Close()
		if res, err = world.Run(context.Background(), engine, opts); err != nil {
			return nil, 0, res, err
		}
	}
	return world.DB().Graph(), world.DB().Len(), res, nil
}

// initDurable restores the server's durable state: every run log
// under <dataDir>/runs, in id order.
func (s *Server) initDurable() error {
	runsDir := filepath.Join(s.dataDir, "runs")
	if err := os.MkdirAll(runsDir, 0o755); err != nil {
		return fmt.Errorf("service: data dir: %w", err)
	}
	paths, err := filepath.Glob(filepath.Join(runsDir, "*.wal"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := s.recoverRunFile(p); err != nil {
			return fmt.Errorf("service: recovering %s: %w", filepath.Base(p), err)
		}
	}
	return nil
}

// recoverRunFile recovers one WAL: register it terminal if it
// finished, resume it if it did not.
func (s *Server) recoverRunFile(path string) error {
	l, err := storage.OpenFile(path)
	if err != nil {
		return err
	}
	ends, err := storage.ReadEnds(l)
	if err != nil {
		_ = l.Close()
		return err
	}
	var rc *storage.Recovered
	if ends == nil {
		if rc, err = storage.RecoverRun(l); err != nil {
			_ = l.Close()
			return err
		}
		ends = rc.Ends()
	}
	var meta *storage.RunMeta
	if ends != nil {
		meta = ends.Meta
	} else {
		meta = rc.Meta
	}
	id := strings.TrimSuffix(filepath.Base(path), ".wal")
	if meta != nil && meta.ID != "" {
		id = meta.ID
	}
	s.noteSeq(id)
	if ends != nil {
		return s.registerFinished(id, path, ends, l, nil)
	}
	if meta == nil {
		// The crash beat the identity record to disk: there is nothing
		// to rebuild the run from, and nothing was committed.
		return l.Close()
	}
	return s.resumeRun(id, path, rc, l)
}

// registerFinished surfaces a run that will not execute again. It is
// released from the start — its trace and provenance are read from its
// log. cause is nil for a completed run, whose terminal state derives
// from its RunFinished event (the original error text is not
// persisted; a failed or aborted run recovers as "failed") or from its
// terminal error record, whose error it keeps. A non-nil cause is why
// an interrupted run cannot be resumed: it recovers failed with that
// error and its trace prefix intact, so the operator can see it and
// resubmit — without failing the whole boot.
func (s *Server) registerFinished(id, path string, e *storage.Ends, l storage.Log, cause error) error {
	if err := l.Close(); err != nil {
		return err
	}
	if cause == nil && e.Error != "" {
		cause = errors.New(e.Error)
	}
	rec := &runRecord{id: id, seq: runSeq(id), cancel: func() {}, done: make(chan struct{}),
		state: stateSucceeded, err: cause, logPath: path}
	if e.Meta != nil {
		rec.flowName, rec.user = e.Meta.Flow, e.Meta.User
	}
	if fin := e.Finished; cause != nil || fin == nil {
		rec.state = stateFailed
	} else {
		rec.tasksRun = fin.Committed // the run's Result.TasksRun
		if fin.Failed > 0 || fin.Skipped > 0 || fin.Committed < fin.Units {
			rec.state = stateFailed
		}
	}
	close(rec.done)
	s.mu.Lock()
	s.runs[id] = rec
	s.mu.Unlock()
	return nil
}

// resumeRun relaunches an interrupted run from its recovered prefix.
// The world is re-materialized from the logged scenario exactly as
// handleSubmit built it, so the deterministic replan pre-assigns the
// instance IDs the log recorded — the executor verifies every one, and
// every logged digest, before dispatching anything. The fresh world's
// database graphs the restored units and the fresh suffix as one
// stream, and the provenance endpoint queries that graph. The event
// log is pre-seeded with the prefix and the fresh suffix continues its
// sequence numbers, so a trace reader sees one gapless run; the
// metrics fold only the fresh suffix, as it runs.
func (s *Server) resumeRun(id, path string, rc *storage.Recovered, l storage.Log) error {
	world, _, opts, err := materialize(rc.Meta.Scenario)
	if err != nil {
		return s.registerFinished(id, path, &storage.Ends{Meta: rc.Meta}, l, fmt.Errorf("cannot resume: scenario: %w", err))
	}
	if err := rc.Rewind(l); err != nil {
		world.Close()
		_ = l.Close()
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	rec := &runRecord{id: id, seq: runSeq(id), flowName: rc.Meta.Flow, user: rc.Meta.User,
		cancel: cancel, done: make(chan struct{}),
		state: stateRunning, walLog: l, wal: storage.NewRunWAL(l), logPath: path,
		started: time.Now(), log: newEventLog(), prov: world.DB().Graph()}
	for _, ev := range rc.Events {
		rec.log.Emit(ev)
	}
	s.mu.Lock()
	s.runs[id] = rec
	s.mu.Unlock()
	opts.Resume = rc
	s.launch(ctx, rec, world, opts)
	return nil
}

// writeLoggedTrace answers a released run's trace from its WAL: the
// events RecoverRun reads back, each encoded by trace.AppendMaskedJSONL
// as the event log encodes them, written about a log chunk at a time.
// Nothing is kept.
func writeLoggedTrace(w http.ResponseWriter, rec *runRecord) {
	events, err := loggedEvents(rec.logPath)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "run %q: reading its log: %v", rec.id, err)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	buf := make([]byte, 0, maxChunk)
	for _, ev := range events {
		buf = trace.AppendMaskedJSONL(buf, ev)
		if len(buf) >= maxChunk {
			if _, err := w.Write(buf); err != nil {
				return // the client has gone
			}
			buf = buf[:0]
		}
	}
	_, _ = w.Write(buf) // a failed write means the client has gone
}

// loggedEvents reads the events of a run's log back, without changing
// the log.
func loggedEvents(path string) ([]trace.Event, error) {
	l, err := storage.OpenReadOnly(path)
	if err != nil {
		return nil, err
	}
	defer l.Close() // read only
	rc, err := storage.RecoverRun(l)
	if err != nil {
		return nil, err
	}
	return rc.Events, nil
}

// runSeq is the submission number a run id "r-%04d" carries; 0 for an
// id that is not one.
func runSeq(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "r-%d", &n); err != nil {
		return 0
	}
	return n
}

// noteSeq advances the id counter past a recovered run id, so new
// submissions never collide with recovered ones.
func (s *Server) noteSeq(id string) {
	n := runSeq(id)
	s.mu.Lock()
	if n > s.seq {
		s.seq = n
	}
	s.mu.Unlock()
}

// Shutdown drains the service for a clean exit: stop admitting
// (submissions get 503), wait up to timeout for active runs to finish
// — each run's goroutine closes its WAL on the way out — then cancel
// whatever is left. forced reports that the deadline expired and
// running flows were aborted; their WALs still hold every committed
// unit, so nothing durable is lost. Every run's durable state is its
// own WAL, so Shutdown writes nothing. Once the runs are done it stops
// the engine's worker pool; err is the engine's Close error. Safe
// without a DataDir.
func (s *Server) Shutdown(timeout time.Duration) (forced bool, err error) {
	s.mu.Lock()
	s.draining = true
	recs := make([]*runRecord, 0, len(s.runs))
	for _, rec := range s.runs {
		recs = append(recs, rec)
	}
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		for _, rec := range recs {
			<-rec.done
		}
		close(idle)
	}()
	select {
	case <-idle:
	case <-time.After(timeout):
		forced = true
		for _, rec := range recs {
			rec.cancel()
		}
		<-idle // cancelled runs exit promptly
	}
	return forced, s.engine.Close()
}
