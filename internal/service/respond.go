package service

import (
	"fmt"
	"net/http"
	"slices"
	"strconv"

	"repro/internal/history"
	"repro/internal/trace"
)

// Every JSON body the service answers with is written here, without
// reflection: the run view (submit, status, cancel), the run list, the
// error body and the provenance answer. Each appender produces exactly
// the bytes json.Encoder with SetIndent("", "  ") produces for the same
// value — members one per line under a two-space indent, ": " after
// each key, [] for an empty list, a closing newline — and quotes every
// string through trace.AppendString, the event encoder's quoter, so the
// escaping is encoding/json's by construction. The json tags on runView
// and chainVerdict name the shape the tests decode and hold these
// appenders to, byte for byte, through the reflective encoder.

// writeBody sends one JSON response: its length declared, the whole
// body in one Write.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body) // a failed write means the client has gone
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeBody(w, code, appendError(nil, fmt.Sprintf(format, args...)))
}

func writeView(w http.ResponseWriter, code int, v runView) {
	writeBody(w, code, append(appendView(make([]byte, 0, 256), &v, ""), '\n'))
}

// appendItem starts the next member of an object or list whose own line
// is indented by ind: open ('{' or '[' before the first member, ',' after
// each other), a newline, and the member's indent, ind plus two spaces.
func appendItem(b []byte, open byte, ind string) []byte {
	b = append(b, open, '\n')
	b = append(b, ind...)
	return append(b, ' ', ' ')
}

// appendKey is appendItem for an object member, followed by its key,
// quoted, and ": ". Keys are ASCII literals that need no escaping.
func appendKey(b []byte, open byte, ind, key string) []byte {
	b = append(appendItem(b, open, ind), '"')
	b = append(b, key...)
	return append(b, '"', ':', ' ')
}

// appendEnd closes, with c, an object or list whose own line is
// indented by ind.
func appendEnd(b []byte, ind string, c byte) []byte {
	b = append(b, '\n')
	b = append(b, ind...)
	return append(b, c)
}

// appendView appends v as an object whose own line is indented by ind,
// without a closing newline: the list nests views one level down.
func appendView(b []byte, v *runView, ind string) []byte {
	b = trace.AppendString(appendKey(b, '{', ind, "id"), v.ID)
	b = trace.AppendString(appendKey(b, ',', ind, "flow"), v.Flow)
	b = trace.AppendString(appendKey(b, ',', ind, "user"), v.User)
	b = trace.AppendString(appendKey(b, ',', ind, "state"), v.State)
	if v.TasksRun != 0 {
		b = strconv.AppendInt(appendKey(b, ',', ind, "tasks_run"), int64(v.TasksRun), 10)
	}
	if v.ElapsedMS != 0 {
		b = strconv.AppendInt(appendKey(b, ',', ind, "elapsed_ms"), v.ElapsedMS, 10)
	}
	if v.Error != "" {
		b = trace.AppendString(appendKey(b, ',', ind, "error"), v.Error)
	}
	return appendEnd(b, ind, '}')
}

// appendList appends the GET /v1/runs body.
func appendList(b []byte, views []runView) []byte {
	if len(views) == 0 {
		return append(b, "[]\n"...)
	}
	open := byte('[')
	for i := range views {
		b = appendView(appendItem(b, open, ""), &views[i], "  ")
		open = ','
	}
	return append(appendEnd(b, "", ']'), '\n')
}

// appendError appends the body of every error answer.
func appendError(b []byte, msg string) []byte {
	b = trace.AppendString(appendKey(b, '{', "", "error"), msg)
	return append(appendEnd(b, "", '}'), '\n')
}

// appendProvenance appends the GET /v1/runs/{id}/provenance body, read
// straight from the derivation: the query (run, root, dir, depth), the
// nodes in BFS order, the edges — "fd" for the tool arc, "dd" with its
// dependency key for a data input — and, for verify=1, the chain
// verdict.
func appendProvenance(b []byte, run, dir string, depth int, der *history.Derivation, chain *chainVerdict) []byte {
	// Reserve the body's size as it is for unescaped strings: members
	// and punctuation per node and per edge, plus the fixed lines.
	n := 256 + len(run) + len(der.Root)
	for _, id := range der.Nodes {
		n += 8 + len(id)
	}
	for i := range der.Edges {
		e := &der.Edges[i]
		n += 71 + len(e.Parent) + len(e.Child)
		if e.Key != "" {
			n += 17 + len(e.Key)
		}
	}
	if chain != nil {
		n += len(chain.Error)
	}
	b = slices.Grow(b, n)

	b = trace.AppendString(appendKey(b, '{', "", "run"), run)
	b = trace.AppendString(appendKey(b, ',', "", "root"), string(der.Root))
	b = trace.AppendString(appendKey(b, ',', "", "dir"), dir)
	b = strconv.AppendInt(appendKey(b, ',', "", "depth"), int64(depth), 10)
	b = appendKey(b, ',', "", "nodes")
	if len(der.Nodes) == 0 {
		b = append(b, "[]"...)
	} else {
		open := byte('[')
		for _, id := range der.Nodes {
			b = trace.AppendString(appendItem(b, open, "  "), string(id))
			open = ','
		}
		b = appendEnd(b, "  ", ']')
	}
	b = appendKey(b, ',', "", "edges")
	if len(der.Edges) == 0 {
		b = append(b, "[]"...)
	} else {
		open := byte('[')
		for i := range der.Edges {
			e := &der.Edges[i]
			b = appendItem(b, open, "  ")
			b = trace.AppendString(appendKey(b, '{', "    ", "parent"), string(e.Parent))
			b = trace.AppendString(appendKey(b, ',', "    ", "child"), string(e.Child))
			b = trace.AppendString(appendKey(b, ',', "    ", "kind"), e.Kind.String())
			if e.Key != "" {
				b = trace.AppendString(appendKey(b, ',', "    ", "key"), e.Key)
			}
			b = appendEnd(b, "    ", '}')
			open = ','
		}
		b = appendEnd(b, "  ", ']')
	}
	if chain != nil {
		b = appendKey(b, ',', "", "chain")
		b = strconv.AppendInt(appendKey(b, '{', "  ", "records"), int64(chain.Records), 10)
		b = strconv.AppendBool(appendKey(b, ',', "  ", "verified"), chain.Verified)
		if chain.Error != "" {
			b = trace.AppendString(appendKey(b, ',', "  ", "error"), chain.Error)
		}
		b = appendEnd(b, "  ", '}')
	}
	return append(appendEnd(b, "", '}'), '\n')
}
