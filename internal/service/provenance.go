package service

import (
	"errors"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"repro/internal/history"
)

// This file is the HTTP face of the design-history queries: every run
// has its world database's derivation graph (history.Graph), and
//
//	GET /v1/runs/{id}/provenance?inst=ID&dir=back|fwd&depth=N
//
// answers the paper's design-history query — backward chaining ("what
// was this made from") and forward chaining ("what was made from this")
// — as a graph walk, without touching the history database's lock.
// depth bounds the chaining levels (absent or negative = unbounded).
// A run that holds its graph — running, in memory, or durable with a
// WAL that failed — answers from it. A released durable run, finished
// here or recovered as finished at boot, answers from a graph replayed
// from its WAL (ReplayLog); the server keeps the last replayGraphs of
// them, and a log that fails verification answers 409 naming the unit,
// from then on without another replay; a log that cannot be read
// answers 500, and the next query reads it again. verify=1 reports
// inline whether every logged chain digest of a finished durable run's
// WAL matched; for a released run the answer's graph comes from the
// same replay.
// The answer is written straight from the derivation (appendProvenance,
// respond.go).

// chainVerdict is the inline hash-chain check (verify=1).
type chainVerdict struct {
	Records  int    `json:"records"`
	Verified bool   `json:"verified"`
	Error    string `json:"error,omitempty"`
}

func (s *Server) handleProvenance(w http.ResponseWriter, r *http.Request) {
	rec := s.record(r.PathValue("id"))
	if rec == nil {
		writeErr(w, http.StatusNotFound, "no run %q", r.PathValue("id"))
		return
	}
	q := r.URL.Query()
	inst := q.Get("inst")
	if inst == "" {
		writeErr(w, http.StatusBadRequest, "missing inst parameter (an instance ID, e.g. Netlist:3)")
		return
	}
	dir := q.Get("dir")
	if dir == "" {
		dir = "back"
	}
	depth := -1
	if d := q.Get("depth"); d != "" {
		n, err := strconv.Atoi(d)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad depth %q: %v", d, err)
			return
		}
		depth = n
	}
	if dir != "back" && dir != "fwd" {
		writeErr(w, http.StatusBadRequest, "dir must be back or fwd, not %q", dir)
		return
	}
	g, chain, err := s.graph(rec, q.Get("verify") == "1")
	switch {
	case errors.As(err, new(*readError)):
		writeErr(w, http.StatusInternalServerError, "run %q: reading its log: %v", rec.id, err)
		return
	case err != nil:
		writeErr(w, http.StatusConflict, "run %q: its log fails verification: %v", rec.id, err)
		return
	}
	var der *history.Derivation
	if dir == "back" {
		der, err = g.Backchain(history.ID(inst), depth)
	} else {
		der, err = g.Forwardchain(history.ID(inst), depth)
	}
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeBody(w, http.StatusOK, appendProvenance(nil, rec.id, dir, depth, der, chain))
}

// graph returns the derivation graph the run's provenance answers from
// and, with verify, the verdict on its WAL's chain digests: from the
// graph the run holds, or, for a released run, from a replay of its
// log. verify replays afresh, since the log may have changed since a
// kept replay, and takes graph and verdict from that one replay; every
// other query of a released run reads the kept one. A replay that
// fails fails the query. The record keeps its error when the
// error is about the log's contents, and not when the log could not be
// read (a *readError): that query answers 500 and the next one reads
// the log again.
func (s *Server) graph(rec *runRecord, verify bool) (*history.Graph, *chainVerdict, error) {
	rec.mu.Lock()
	g, err := rec.prov, rec.provErr
	rec.mu.Unlock()
	switch {
	case err != nil:
		return nil, nil, err
	case g != nil && verify:
		return g, rec.verify(), nil
	case g != nil:
		return g, nil, nil
	}
	var n int
	if verify {
		g, n, err = ReplayLog(rec.logPath)
	} else {
		g, err = s.replays.get(rec)
	}
	if err != nil {
		if !errors.As(err, new(*readError)) {
			rec.mu.Lock()
			rec.provErr = err
			rec.mu.Unlock()
		}
		return nil, nil, err
	}
	if verify {
		return g, verdict(n, nil), nil
	}
	return g, nil, nil
}

// replayGraphs is how many replayed graphs a server keeps.
const replayGraphs = 4

// replayCache keeps the graphs replayed from the WALs of the last
// replayGraphs released runs queried, least recently used first out,
// so a burst of queries across many runs stays bounded. Queries that
// miss together each replay the log; the graphs are the same.
type replayCache struct {
	mu   sync.Mutex
	kept []replayed // least recently used first
}

// replayed is a graph ReplayLog rebuilt from a run's WAL.
type replayed struct {
	rec *runRecord
	g   *history.Graph
}

// get returns the run's kept graph, or replays its log and keeps the
// graph if the replay yields one.
func (c *replayCache) get(rec *runRecord) (*history.Graph, error) {
	c.mu.Lock()
	var g *history.Graph
	if i := slices.IndexFunc(c.kept, func(k replayed) bool { return k.rec == rec }); i >= 0 {
		g = c.kept[i].g
		c.keepLocked(rec, g)
	}
	c.mu.Unlock()
	if g != nil {
		return g, nil
	}
	g, _, err := ReplayLog(rec.logPath)
	if g != nil {
		c.mu.Lock()
		c.keepLocked(rec, g)
		c.mu.Unlock()
	}
	return g, err
}

// keepLocked makes g the run's kept graph and the most recently used,
// dropping the least recently used one past replayGraphs.
func (c *replayCache) keepLocked(rec *runRecord, g *history.Graph) {
	c.kept = slices.DeleteFunc(c.kept, func(k replayed) bool { return k.rec == rec })
	if len(c.kept) == replayGraphs {
		c.kept = slices.Delete(c.kept, 0, 1)
	}
	c.kept = append(c.kept, replayed{rec, g})
}

// verify replays the run's WAL against its logged chain digests. Only
// a finished durable run has a complete log to check.
func (rec *runRecord) verify() *chainVerdict {
	v := &chainVerdict{}
	switch {
	case rec.logPath == "":
		v.Error = "no log to verify: runs without a data dir keep no chain"
	case rec.view().State == string(stateRunning):
		v.Error = "still running: the log is verified once the run has finished"
	default:
		_, n, err := ReplayLog(rec.logPath)
		return verdict(n, err)
	}
	return v
}

// verdict is the chain verdict of a replay that re-derived n records
// and failed with err, if it failed.
func verdict(n int, err error) *chainVerdict {
	v := &chainVerdict{Records: n, Verified: err == nil}
	if err != nil {
		v.Error = err.Error()
	}
	return v
}
