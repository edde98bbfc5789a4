package service

import (
	"net/http"
	"strconv"

	"repro/internal/history"
)

// This file is the HTTP face of the provenance layer (internal/
// provenance): every run carries a commit-time adjacency index over its
// session's derivation records, and
//
//	GET /v1/runs/{id}/provenance?inst=ID&dir=back|fwd&depth=N
//
// answers the paper's design-history query — backward chaining ("what
// was this made from") and forward chaining ("what was made from this")
// — as an index walk, without touching the history database's lock.
// depth bounds the chaining levels (absent or negative = unbounded).
// Adding verify=1 also checks the run's hash chain end to end and
// reports the verdict inline.

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
	if rec.prov == nil {
		writeErr(w, http.StatusConflict,
			"run %q was recovered from a finished log and has no live provenance index; use flowd -verify-provenance for its chain", rec.id)
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
	var der *history.Derivation
	var err error
	switch dir {
	case "back":
		der, err = rec.prov.Backchain(history.ID(inst), depth)
	case "fwd":
		der, err = rec.prov.Forwardchain(history.ID(inst), depth)
	default:
		writeErr(w, http.StatusBadRequest, "dir must be back or fwd, not %q", dir)
		return
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
		view.Chain = s.verifyChain(rec)
	}
	writeJSON(w, http.StatusOK, view)
}

// verifyChain checks the run's hash chain end to end: an open chain
// verifies itself, including its record count; a finished durable
// run's closed chain file is reopened (verifyChainFile). rec.mu is held
// throughout, so the run cannot close its chain under a check.
func (s *Server) verifyChain(rec *runRecord) *chainVerdict {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	v := &chainVerdict{Records: rec.chainLen}
	var err error
	if rec.chain != nil {
		v.Records = rec.chain.Len()
		err = rec.chain.Verify()
	} else {
		err = s.verifyChainFile(rec.id, rec.chainLen)
	}
	if err != nil {
		v.Error = err.Error()
	} else {
		v.Verified = true
	}
	return v
}
