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

	"repro/internal/history"
	"repro/internal/provenance"
	"repro/internal/storage"
)

// This file is the service half of the durability layer (Config.
// DataDir). Layout under the data directory:
//
//	runs/<id>.wal   one write-ahead log per submission (the identity
//	                record with the submitted scenario, then the run's
//	                trace plus each committed unit's artifacts)
//	runs/<id>.chain hash-chained derivation records of the run's
//	                history database (provenance.Chain; verified by
//	                flowd -verify-provenance)
//
// Nothing else is written. A run's artifacts live in its world's own
// datastore and are freed with the world when the run ends; no endpoint
// serves them. A store.json checkpoint left by an older flowd is
// neither read nor deleted.
//
// Boot recovery (initDurable, from New) reads every WAL back:
//
//   - A log containing RunFinished is a completed run — possibly a
//     failed or cancelled one. It reappears queryable (status, complete
//     trace) in a terminal state; nothing is replayed into a store.
//
//   - A log without RunFinished is an interrupted run (crash, kill -9).
//     The service re-materializes the run's world from the scenario in
//     the identity record — the same path a submission takes — rewinds
//     the log to its resumable prefix and relaunches the run with
//     exec.RunOptions.Resume: the executor restores every fully-committed
//     unit from the log (re-recording history and re-feeding the new
//     world's datastore through its normal committer) and re-executes
//     only the rest, appending to the same WAL with continuous event
//     sequence numbers. Nothing is replayed here out-of-band — the
//     resumed run is the single commit path. A log whose identity
//     record carries no scenario, or one that no longer materializes,
//     recovers failed.
//
// Shutdown is the graceful half: stop admitting, drain active runs
// (their own goroutines close each WAL and chain file), abort
// stragglers at the deadline.

// openRunWAL creates a fresh submission's log under <dataDir>/runs and
// makes the identity record, carrying the compacted scenario document,
// durable.
func (s *Server) openRunWAL(rec *runRecord, doc []byte) error {
	l, err := storage.OpenFile(filepath.Join(s.dataDir, "runs", rec.id+".wal"))
	if err != nil {
		return err
	}
	w := storage.NewRunWAL(l)
	if err := w.AppendMeta(storage.RunMeta{ID: rec.id, Flow: rec.flowName, User: rec.user, Scenario: doc}); err != nil {
		_ = w.Close()
		_ = l.Close()
		return err
	}
	rec.wal, rec.walLog = w, l
	return nil
}

// discardRunWAL abandons a WAL (and provenance chain, if one was
// attached) opened for a run that was never launched (admission lost a
// race with Shutdown).
func (s *Server) discardRunWAL(rec *runRecord) {
	if rec.chain != nil {
		_ = rec.chain.Close()
		rec.chain = nil
	}
	if rec.wal == nil {
		return
	}
	_ = rec.wal.Close()
	_ = rec.walLog.Close()
}

// chainPath is the run's provenance-chain log under the data dir.
func (s *Server) chainPath(id string) string {
	return filepath.Join(s.dataDir, "runs", id+".chain")
}

// attachProvenance wires the run's provenance surface to its world's
// database: a fresh adjacency index plus a hash chain — file-backed in
// durable mode, in-memory otherwise. Observe backfills both with every
// record already committed (the imports), then feeds them each live
// commit in order.
func (s *Server) attachProvenance(rec *runRecord, db *history.DB) error {
	rec.prov = provenance.NewIndex()
	db.Observe(rec.prov)
	var l storage.Log
	if s.dataDir != "" {
		fl, err := storage.OpenFile(s.chainPath(rec.id))
		if err != nil {
			return err
		}
		l = fl
	} else {
		l = storage.NewMemLog()
	}
	rec.chain = provenance.NewChain(l)
	db.Observe(rec.chain)
	return nil
}

// finishChain makes the run's chain durable once the run has ended. A
// durable run also closes the chain's file, since nothing appends
// after the run; chainLen keeps the record count verify=1 checks the
// reopened file against.
func (rec *runRecord) finishChain() error {
	if rec.wal == nil {
		return rec.chain.Sync()
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.chainLen = rec.chain.Len()
	err := rec.chain.Close()
	rec.chain = nil
	return err
}

// verifyChainFile checks a finished durable run's closed chain: the
// file is reopened, verified cold (VerifyLog) and must hold exactly the
// want records the run appended. A damaged frame ends the readable
// prefix, so damage anywhere names the first record that no longer
// reads back.
func (s *Server) verifyChainFile(id string, want int) error {
	path := s.chainPath(id)
	if _, err := os.Stat(path); err != nil { // OpenFile would create it
		return err
	}
	l, err := storage.OpenFile(path)
	if err != nil {
		return err
	}
	n, err := provenance.VerifyLog(l)
	_ = l.Close() // read only
	switch {
	case err != nil:
		return err
	case n < want:
		return fmt.Errorf("provenance: record %d damaged or missing: %d of the run's %d records read back", n, n, want)
	case n > want:
		return fmt.Errorf("provenance: record %d not appended by this run: the chain holds %d records, the run appended %d", want, n, want)
	}
	return nil
}

// dropPreCrashChain prepares an interrupted run's chain for resume. The
// resumed run is the single commit path — the executor re-records every
// restored unit through the world's database — so the chain is rebuilt
// alongside it rather than appended to (appending would duplicate every
// re-committed record). The pre-crash chain is verified first: resuming
// on top of tampered provenance is refused at boot.
func (s *Server) dropPreCrashChain(id string) error {
	path := s.chainPath(id)
	l, err := storage.OpenFile(path)
	if err != nil {
		return err
	}
	_, verr := provenance.VerifyLog(l)
	cerr := l.Close()
	if verr != nil {
		return fmt.Errorf("pre-crash chain %s: %w", filepath.Base(path), verr)
	}
	if cerr != nil {
		return cerr
	}
	return os.Remove(path)
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
		return s.registerFinished(id, rc, l, nil)
	}
	if rc.Meta == nil {
		// The crash beat the identity record to disk: there is nothing
		// to rebuild the run from, and nothing was committed.
		return l.Close()
	}
	return s.resumeRun(id, rc, l)
}

// registerFinished surfaces a run that will not execute again: it
// reappears with a closed, fully pre-seeded event stream. cause is nil
// for a completed run, whose terminal state derives from its
// RunFinished record (the original error text is not persisted; a
// failed or aborted run recovers as "failed"). A non-nil cause is why an
// interrupted run cannot be resumed: it recovers failed with that
// error and its trace prefix intact, so the operator can see it and
// resubmit — without failing the whole boot.
func (s *Server) registerFinished(id string, rc *storage.Recovered, l storage.Log, cause error) error {
	if err := l.Close(); err != nil {
		return err
	}
	rec := &runRecord{id: id, cancel: func() {}, done: make(chan struct{}),
		log: newEventLog(), state: stateSucceeded, err: cause}
	if rc.Meta != nil {
		rec.flowName, rec.user = rc.Meta.Flow, rc.Meta.User
	}
	for _, ev := range rc.Events {
		rec.log.Emit(ev)
		s.metrics.Emit(ev)
	}
	if cause != nil {
		rec.state = stateFailed
	} else {
		fin := rc.Events[len(rc.Events)-1]
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
// instance IDs the log recorded — the executor verifies every one
// before committing. The event stream is pre-seeded with the prefix
// and the fresh suffix continues its sequence numbers, so a trace
// reader sees one gapless run.
func (s *Server) resumeRun(id string, rc *storage.Recovered, l storage.Log) error {
	if len(rc.Meta.Scenario) == 0 {
		return s.registerFinished(id, rc, l, errors.New("cannot resume: the run log records no scenario"))
	}
	world, _, opts, err := s.materialize(rc.Meta.Scenario)
	if err != nil {
		return s.registerFinished(id, rc, l, fmt.Errorf("cannot resume: scenario: %w", err))
	}
	// Provenance: the resumed run re-records its whole history through
	// the fresh world's database, so the index attaches empty and the
	// chain is rebuilt (after verifying the pre-crash one) — both then
	// observe the replayed units and the fresh suffix as one stream.
	if err := s.dropPreCrashChain(id); err != nil {
		world.Close()
		_ = l.Close()
		return fmt.Errorf("provenance: %w", err)
	}
	if err := rc.Rewind(l); err != nil {
		world.Close()
		_ = l.Close()
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	rec := &runRecord{id: id, flowName: rc.Meta.Flow, user: rc.Meta.User,
		log: newEventLog(), cancel: cancel, done: make(chan struct{}),
		state: stateRunning, walLog: l, wal: storage.NewRunWAL(l)}
	rec.started = time.Now()
	if err := s.attachProvenance(rec, world.DB()); err != nil {
		cancel()
		s.discardRunWAL(rec)
		world.Close()
		return fmt.Errorf("provenance: %w", err)
	}
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
// — each run's goroutine closes its WAL and chain file on the way out —
// then cancel whatever is left. forced reports that the deadline
// expired and running flows were aborted; their WALs still hold every
// committed unit, so nothing durable is lost. Every run's durable
// state is its own WAL and chain, so Shutdown writes nothing and err
// is always nil. Safe without a DataDir.
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
