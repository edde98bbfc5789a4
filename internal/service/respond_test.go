package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"

	"repro/internal/history"
)

// provenanceEdge and provenanceView are the provenance answer's shape
// as encoding/json sees it: what the tests decode, and the value the
// reference encoder writes for appendProvenance to match.
type provenanceEdge struct {
	Parent string `json:"parent"`
	Child  string `json:"child"`
	Kind   string `json:"kind"`
	Key    string `json:"key,omitempty"`
}

type provenanceView struct {
	Run   string           `json:"run"`
	Root  string           `json:"root"`
	Dir   string           `json:"dir"`
	Depth int              `json:"depth"`
	Nodes []string         `json:"nodes"`
	Edges []provenanceEdge `json:"edges"`
	Chain *chainVerdict    `json:"chain,omitempty"`
}

func newProvenanceView(run, dir string, depth int, der *history.Derivation, chain *chainVerdict) provenanceView {
	v := provenanceView{Run: run, Root: string(der.Root), Dir: dir, Depth: depth,
		Nodes: make([]string, len(der.Nodes)), Edges: make([]provenanceEdge, len(der.Edges)), Chain: chain}
	for i, n := range der.Nodes {
		v.Nodes[i] = string(n)
	}
	for i, e := range der.Edges {
		v.Edges[i] = provenanceEdge{Parent: string(e.Parent), Child: string(e.Child), Kind: e.Kind.String(), Key: e.Key}
	}
	return v
}

// encoderJSON is the reference the response appenders are held to: the
// bytes json.Encoder with SetIndent("", "  ") writes for v.
func encoderJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameJSON fails the test when an appender's body differs from the
// reference encoder's.
func sameJSON(t testing.TB, what string, got []byte, v any) {
	t.Helper()
	if want := encoderJSON(t, v); !bytes.Equal(got, want) {
		t.Fatalf("%s: appended\n%s\nwant (json.Encoder)\n%s", what, got, want)
	}
}

// checkShapes holds every response shape, built from the given strings
// and numbers, to the reference encoder: a view, a list of views and the
// empty list, an error body, and a provenance answer without and with a
// chain verdict.
func checkShapes(t testing.TB, s [5]string, n int64, verified bool) {
	t.Helper()
	v := runView{ID: s[0], Flow: s[1], User: s[2], State: s[3], TasksRun: int(n), ElapsedMS: n, Error: s[4]}
	sameJSON(t, "view", append(appendView(nil, &v, ""), '\n'), v)
	list := []runView{v, {ID: s[4], Flow: s[3], User: s[2], State: s[1], Error: s[0]}, {}}
	sameJSON(t, "list", appendList(nil, list), list)
	sameJSON(t, "empty list", appendList(nil, []runView{}), []runView{})
	sameJSON(t, "error", appendError(nil, s[4]), map[string]string{"error": s[4]})

	der := &history.Derivation{
		Root:  history.ID(s[0]),
		Nodes: []history.ID{history.ID(s[0]), history.ID(s[1]), history.ID(s[2])},
		Edges: []history.Edge{
			{Parent: history.ID(s[0]), Child: history.ID(s[1]), Kind: history.EdgeTool},
			{Parent: history.ID(s[0]), Child: history.ID(s[2]), Kind: history.EdgeInput, Key: s[3]},
		},
	}
	sameJSON(t, "provenance", appendProvenance(nil, s[4], s[3], int(n), der, nil),
		newProvenanceView(s[4], s[3], int(n), der, nil))
	chain := &chainVerdict{Records: int(n), Verified: verified, Error: s[4]}
	sameJSON(t, "provenance with a verdict", appendProvenance(nil, s[1], s[2], -1, der, chain),
		newProvenanceView(s[1], s[2], -1, der, chain))
	bare := &history.Derivation{Root: history.ID(s[2])}
	sameJSON(t, "provenance without nodes or edges", appendProvenance(nil, s[0], s[1], 0, bare, chain),
		newProvenanceView(s[0], s[1], 0, bare, chain))
}

// FuzzResponseJSON puts arbitrary strings in every string field of each
// response shape: each must encode to the reference encoder's bytes.
// Seeded with what encoding/json escapes — '<', '&', U+2028, a quote, a
// control byte — and invalid UTF-8.
func FuzzResponseJSON(f *testing.F) {
	f.Add("<", "&", "\u2028", `"`, "\x01", int64(-1), false)
	f.Add("\xff\xfe", ">", "a\\b", "é\u2029", "\x7f\t\n", int64(1)<<40, true)
	f.Add("r-0001", "scenario:quickstart", "alice", "succeeded", "", int64(0), true)
	f.Fuzz(func(t *testing.T, a, b, c, d, e string, n int64, verified bool) {
		checkShapes(t, [5]string{a, b, c, d, e}, n, verified)
	})
}

// TestResponseParity holds every response the service writes to the
// reflective encoder's bytes: the shapes with escaped, empty and
// invalid strings, and then, through the handler, the provenance answer
// for every instance × dir × depth {-1, 0, 1, 8} of a generated world of
// each flowgen shape, with verify=1 on the unbounded queries.
func TestResponseParity(t *testing.T) {
	checkShapes(t, [5]string{"r-0001", "scenario:x", "alice", "failed", "tool <T> & \"quoted\"\n"}, 7, false)
	checkShapes(t, [5]string{"", "", "", "", ""}, 0, true)
	checkShapes(t, [5]string{"\u2028", "\xff", "ü", "\x00", "a\u2029b"}, -12, false)

	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(10 * time.Second)
	for _, shape := range []string{"layered", "diamond", "fanout", "chain"} {
		doc := compact(t, fmt.Sprintf(`{"name":"parity-%s","generate":{"cells":300,"shape":%q,"seed":5}}`, shape, shape))
		world, flowName, opts, err := materialize(doc)
		if err != nil {
			t.Fatal(err)
		}
		db := world.DB()
		v, err := s.start(world, flowName, opts, "alice", doc)
		if err != nil {
			t.Fatal(err)
		}
		rec := s.record(v.ID)
		<-rec.done
		if got := rec.view(); got.State != string(stateSucceeded) {
			t.Fatalf("%s: run ended %+v", shape, got)
		}
		insts := db.All()
		if len(insts) < 300 {
			t.Fatalf("%s: %d instances, want at least 300", shape, len(insts))
		}
		for _, in := range insts {
			for _, dir := range []string{"back", "fwd"} {
				for _, depth := range []int{-1, 0, 1, 8} {
					q := url.Values{"inst": {string(in.ID)}, "dir": {dir}, "depth": {strconv.Itoa(depth)}}
					if depth < 0 {
						q.Set("verify", "1")
					}
					code, got := serve(s, "/v1/runs/"+v.ID+"/provenance?"+q.Encode())
					if code != http.StatusOK {
						t.Fatalf("%s %s: %d %s", shape, q.Encode(), code, got)
					}
					chain := rec.prov.Backchain
					if dir == "fwd" {
						chain = rec.prov.Forwardchain
					}
					der, err := chain(in.ID, depth)
					if err != nil {
						t.Fatal(err)
					}
					var verdict *chainVerdict
					if depth < 0 {
						verdict = rec.verify()
					}
					sameJSON(t, shape+" "+q.Encode(), got, newProvenanceView(v.ID, dir, depth, der, verdict))
				}
			}
		}
	}
	code, list := serve(s, "/v1/runs")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	var views []runView
	if err := json.Unmarshal(list, &views); err != nil || len(views) != 4 {
		t.Fatalf("list of %d runs (%v):\n%s", len(views), err, list)
	}
	sameJSON(t, "list", list, views)
	code, status := serve(s, "/v1/runs/"+views[0].ID)
	if code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	sameJSON(t, "status", status, views[0])
	code, missing := serve(s, "/v1/runs/r-0099")
	if code != http.StatusNotFound {
		t.Fatalf("unknown run: %d", code)
	}
	sameJSON(t, "not found", missing, map[string]string{"error": `no run "r-0099"`})
}

// TestResponseHeaders: a body goes out with its Content-Length and type.
func TestResponseHeaders(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/runs/nope", nil))
	if got, want := w.Header().Get("Content-Length"), strconv.Itoa(w.Body.Len()); got != want {
		t.Fatalf("Content-Length %q for a %s-byte body", got, want)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
}

// chainQuery submits a 2,000-cell chain world to a fresh server and
// returns the server and a depth-64 backchain query from the world's
// last instance.
func chainQuery(tb testing.TB) (*Server, string) {
	tb.Helper()
	s, err := New(Config{Workers: 2})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Shutdown(10 * time.Second) })
	doc := compact(tb, `{"name":"chain-query","generate":{"cells":2000,"shape":"chain","seed":1}}`)
	world, flowName, opts, err := materialize(doc)
	if err != nil {
		tb.Fatal(err)
	}
	db := world.DB()
	v, err := s.start(world, flowName, opts, "alice", doc)
	if err != nil {
		tb.Fatal(err)
	}
	<-s.record(v.ID).done
	insts := db.All()
	return s, "/v1/runs/" + v.ID + "/provenance?inst=" + string(insts[len(insts)-1].ID) + "&depth=64"
}

// TestProvenanceQueryAllocs ratchets the allocations of one depth-64
// backchain answered through Server.ServeHTTP, recorder and request
// included. Reflective encoding took 48; the appender takes 31.
func TestProvenanceQueryAllocs(t *testing.T) {
	s, target := chainQuery(t)
	var size int
	allocs := testing.AllocsPerRun(20, func() {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", target, w.Code, w.Body.Bytes())
		}
		size = w.Body.Len()
	})
	t.Logf("%v allocations per query, %d-byte body", allocs, size)
	if size < 10_000 {
		t.Fatalf("a %d-byte answer: the query is not the depth-64 chain it should be", size)
	}
	const bound = 34
	if allocs > bound {
		t.Fatalf("%v allocations per query (%d-byte body), want at most %d", allocs, size, bound)
	}
}

// BenchmarkProvenanceQuery times one depth-64 backchain through
// Server.ServeHTTP on a 2,000-cell chain world.
func BenchmarkProvenanceQuery(b *testing.B) {
	s, target := chainQuery(b)
	req := httptest.NewRequest(http.MethodGet, target, nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	b.SetBytes(int64(w.Body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
	}
}
