package service

import (
	"net/http"
	"strconv"

	"repro/internal/history"
)

// This file is the HTTP face of the design-history queries: every run
// keeps its world database's derivation graph (history.Graph), and
//
//	GET /v1/runs/{id}/provenance?inst=ID&dir=back|fwd&depth=N
//
// answers the paper's design-history query — backward chaining ("what
// was this made from") and forward chaining ("what was made from this")
// — as a graph walk, without touching the history database's lock.
// depth bounds the chaining levels (absent or negative = unbounded).
// A run recovered at boot as finished gets its graph from its first
// query, which replays its WAL (ReplayLog); a log that fails
// verification answers 409 naming the unit. verify=1 replays a finished
// durable run's WAL and reports inline whether every logged chain
// digest matched.

// provenanceEdge is one derivation arc in the response: Parent was
// created using Child. Kind is the paper's arc label — "fd" for the
// tool arc, "dd" for a data input (with its dependency key).
type provenanceEdge struct {
	Parent string `json:"parent"`
	Child  string `json:"child"`
	Kind   string `json:"kind"`
	Key    string `json:"key,omitempty"`
}

// chainVerdict is the inline hash-chain check (verify=1).
type chainVerdict struct {
	Records  int    `json:"records"`
	Verified bool   `json:"verified"`
	Error    string `json:"error,omitempty"`
}

// provenanceView is the GET /v1/runs/{id}/provenance response.
type provenanceView struct {
	Run   string           `json:"run"`
	Root  string           `json:"root"`
	Dir   string           `json:"dir"`
	Depth int              `json:"depth"`
	Nodes []string         `json:"nodes"`
	Edges []provenanceEdge `json:"edges"`
	Chain *chainVerdict    `json:"chain,omitempty"`
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
	g, err := rec.graph()
	if err != nil {
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
	view := provenanceView{
		Run: rec.id, Root: string(der.Root), Dir: dir, Depth: depth,
		Nodes: make([]string, len(der.Nodes)),
		Edges: make([]provenanceEdge, len(der.Edges)),
	}
	for i, n := range der.Nodes {
		view.Nodes[i] = string(n)
	}
	for i, e := range der.Edges {
		view.Edges[i] = provenanceEdge{
			Parent: string(e.Parent), Child: string(e.Child),
			Kind: e.Kind.String(), Key: e.Key,
		}
	}
	if q.Get("verify") == "1" {
		view.Chain = rec.verify()
	}
	writeJSON(w, http.StatusOK, view)
}

// graph returns the run's derivation graph or, for a run recovered as
// finished, the one a replay of its log rebuilds once.
func (rec *runRecord) graph() (*history.Graph, error) {
	rec.replay.Do(func() {
		if rec.prov == nil {
			rec.prov, _, rec.provErr = ReplayLog(rec.logPath)
		}
	})
	if rec.prov == nil {
		return nil, rec.provErr
	}
	return rec.prov, nil // an unverified log still serves its graph
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
		var err error
		if _, v.Records, err = ReplayLog(rec.logPath); err != nil {
			v.Error = err.Error()
		} else {
			v.Verified = true
		}
	}
	return v
}
