package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/history"
	"repro/internal/storage"
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
// Boot recovery (initDurable, from New) reads every WAL back:
//
//   - A log containing RunFinished, or the terminal error record of a
//     run that ended before planning, is a completed run — possibly a
//     failed or cancelled one. It reappears queryable (status, complete
//     trace) in a terminal state; nothing is replayed at boot.
//
//   - A log without either is an interrupted run (crash, kill -9).
//     The service re-materializes the run's world from the scenario in
//     the identity record — the same path a submission takes — rewinds
//     the log to its resumable prefix and relaunches the run with
//     exec.RunOptions.Resume: the executor restores every fully-committed
//     unit from the log (re-recording history, checking it against its
//     logged chain digest and re-feeding the new world's datastore
//     through its normal commit step) and re-executes only the rest,
//     appending to the same WAL with continuous event sequence
//     numbers. Nothing is replayed here out-of-band — the resumed run
//     is the single commit path. A log whose identity record carries
//     no scenario, or one that no longer materializes, recovers
//     failed; one that fails a digest check ends failed, naming the
//     unit. ReplayLog, the one verifier, replays a finished log the
//     same way and runs nothing.
//
// Shutdown is the graceful half: stop admitting, drain active runs
// (their own goroutines close each WAL), abort stragglers at the
// deadline.

// openRunWAL creates a fresh submission's log under <dataDir>/runs and
// makes the identity record, carrying the compacted scenario document,
// durable.
func (s *Server) openRunWAL(rec *runRecord, doc []byte) error {
	path := filepath.Join(s.dataDir, "runs", rec.id+".wal")
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
	return nil
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

// ErrUnverified marks a finished log without chain digests, written
// before they were logged. Its replay still rebuilds the provenance.
var ErrUnverified = errors.New("unverified: written before chain digests")

// ReplayLog re-derives a finished run's history from its WAL alone,
// without modifying the log: it materializes the world from the logged
// scenario and replays the log through the resume path, every logged
// unit restored and checked against its chain digest and no tool run.
// It returns the replayed database's derivation graph, the
// number of chain records re-derived (imports included) and the first
// verification failure, which names the unit. An unfinished log fails
// with ErrInterrupted; a finished one with bytes after its end is
// damaged, since a finished run synced everything it wrote.
func ReplayLog(path string) (*history.Graph, int, error) {
	g, n, _, err := replayLog(path)
	return g, n, err
}

// replayLog is ReplayLog, also returning the replay's result.
func replayLog(path string) (*history.Graph, int, *exec.Result, error) {
	l, err := storage.OpenReadOnly(path)
	if err != nil {
		return nil, 0, nil, err
	}
	defer l.Close() // read only
	rc, err := storage.RecoverRun(l)
	switch {
	case err != nil:
		return nil, 0, nil, err
	case !rc.Finished:
		return nil, 0, nil, ErrInterrupted
	case l.Torn() || l.Records() > rc.PrefixRecords:
		return nil, 0, nil, errors.New("the log has bytes after its end: a finished run's log was altered")
	case rc.Meta == nil || len(rc.Meta.Scenario) == 0:
		return nil, 0, nil, fmt.Errorf("%w: the log records no scenario", ErrUnverified)
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
		if rc.PlanDigest == "" {
			err = ErrUnverified
		}
	}
	return world.DB().Graph(), world.DB().Len(), res, err
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
	rc, err := storage.RecoverRun(l)
	if err != nil {
		_ = l.Close()
		return err
	}
	id := strings.TrimSuffix(filepath.Base(path), ".wal")
	if rc.Meta != nil && rc.Meta.ID != "" {
		id = rc.Meta.ID
	}
	s.noteSeq(id)
	if rc.Finished {
		return s.registerFinished(id, path, rc, l, nil)
	}
	if rc.Meta == nil {
		// The crash beat the identity record to disk: there is nothing
		// to rebuild the run from, and nothing was committed.
		return l.Close()
	}
	return s.resumeRun(id, path, rc, l)
}

// registerFinished surfaces a run that will not execute again: it
// reappears with a closed, fully pre-seeded event stream and no
// derivation graph — its first provenance query replays the log. cause
// is nil for a completed run, whose terminal state derives from its
// RunFinished record (the original error text is not persisted; a
// failed or aborted run recovers as "failed") or from its terminal
// error record, whose error it keeps. A non-nil cause is why an
// interrupted run cannot be resumed: it recovers failed with that
// error and its trace prefix intact, so the operator can see it and
// resubmit — without failing the whole boot.
func (s *Server) registerFinished(id, path string, rc *storage.Recovered, l storage.Log, cause error) error {
	if err := l.Close(); err != nil {
		return err
	}
	if cause == nil && rc.Error != "" {
		cause = errors.New(rc.Error)
	}
	rec := &runRecord{id: id, cancel: func() {}, done: make(chan struct{}),
		log: newEventLog(), state: stateSucceeded, err: cause, logPath: path}
	if rc.Meta != nil {
		rec.flowName, rec.user = rc.Meta.Flow, rc.Meta.User
	}
	for _, ev := range rc.Events {
		rec.log.Emit(ev)
		s.metrics.Emit(ev)
	}
	if n := len(rc.Events); cause != nil || n == 0 {
		rec.state = stateFailed
	} else {
		fin := rc.Events[n-1]
		rec.tasksRun = fin.Committed // the run's Result.TasksRun
		if fin.Failed > 0 || fin.Skipped > 0 || fin.Committed < fin.Units {
			rec.state = stateFailed
		}
	}
	rec.log.close()
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
// stream is pre-seeded with the prefix and the fresh suffix continues
// its sequence numbers, so a trace reader sees one gapless run.
func (s *Server) resumeRun(id, path string, rc *storage.Recovered, l storage.Log) error {
	if len(rc.Meta.Scenario) == 0 {
		return s.registerFinished(id, path, rc, l, errors.New("cannot resume: the run log records no scenario"))
	}
	world, _, opts, err := materialize(rc.Meta.Scenario)
	if err != nil {
		return s.registerFinished(id, path, rc, l, fmt.Errorf("cannot resume: scenario: %w", err))
	}
	if err := rc.Rewind(l); err != nil {
		world.Close()
		_ = l.Close()
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	rec := &runRecord{id: id, flowName: rc.Meta.Flow, user: rc.Meta.User,
		log: newEventLog(), cancel: cancel, done: make(chan struct{}),
		state: stateRunning, walLog: l, wal: storage.NewRunWAL(l), logPath: path,
		prov: world.DB().Graph(), started: time.Now()}
	for _, ev := range rc.Events {
		rec.log.Emit(ev)
		s.metrics.Emit(ev)
	}
	s.mu.Lock()
	s.runs[id] = rec
	s.mu.Unlock()
	opts.Resume = rc
	s.launch(ctx, rec, world, opts)
	return nil
}

// noteSeq advances the id counter past a recovered run id, so new
// submissions never collide with recovered ones.
func (s *Server) noteSeq(id string) {
	var n int
	if _, err := fmt.Sscanf(id, "r-%d", &n); err != nil {
		return
	}
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
// own WAL, so Shutdown writes nothing and err is always nil. Safe
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
	return forced, nil
}
