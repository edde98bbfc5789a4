package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/trace"
)

// serve answers one GET in process and returns its status and body.
func serve(s *Server, target string) (int, []byte) {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
	return w.Code, w.Body.Bytes()
}

// committedInsts returns every instance a run's trace commits, in
// commit order.
func committedInsts(t *testing.T, s *Server, id string) []string {
	t.Helper()
	code, body := serve(s, "/v1/runs/"+id+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace of %s: %d", id, code)
	}
	var insts []string
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var ev trace.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind == trace.KindUnitCommitted {
			insts = append(insts, ev.Insts...)
		}
	}
	return insts
}

// TestDurableReplayGoldens runs every scenario with a golden trace
// durably, and beside it in memory, where each run keeps its world's
// graph, then restarts the durable service over the same data dir.
// Before the restart and after it, each durable run's provenance —
// backward and forward from every committed instance — answers byte
// for byte as the live in-memory run's does, rebuilt from the log;
// verify=1 verifies with the live record count; and the replay behind
// both dispatched no unit.
func TestDurableReplayGoldens(t *testing.T) {
	goldens, err := filepath.Glob(filepath.Join("..", "..", "testdata", "scenarios", "golden", "*.jsonl"))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no goldens found (%v)", err)
	}
	dir := t.TempDir()
	s0, err := New(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(Config{Workers: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		name, id string
		queries  []string
		live     map[string][]byte
		records  int
	}
	runs := make([]*run, len(goldens))
	for i, g := range goldens {
		name := strings.TrimSuffix(filepath.Base(g), ".jsonl")
		doc := compact(t, corpus(t, name))
		var id string
		for _, s := range []*Server{s0, s1} { // the same ids on both
			world, flowName, opts, err := materialize(doc)
			if err != nil {
				t.Fatal(err)
			}
			v, err := s.start(world, flowName, opts, "golden", doc)
			if err != nil {
				t.Fatal(err)
			}
			id = v.ID
		}
		runs[i] = &run{name: name, id: id, live: map[string][]byte{}}
	}
	for _, r := range runs {
		<-s0.record(r.id).done
		<-s1.record(r.id).done
		insts := committedInsts(t, s1, r.id)
		if len(insts) == 0 { // nothing committed: ask about an import
			sc, err := scenario.Decode(compact(t, corpus(t, r.name)))
			if err != nil {
				t.Fatal(err)
			}
			insts = []string{sc.Imports[0].Type + ":1"}
		}
		for _, inst := range insts {
			r.queries = append(r.queries, "?inst="+url.QueryEscape(inst), "?dir=fwd&inst="+url.QueryEscape(inst))
		}
		for _, q := range r.queries {
			code, body := serve(s0, "/v1/runs/"+r.id+"/provenance"+q)
			if code != http.StatusOK {
				t.Fatalf("%s: live provenance%s: %d %s", r.name, q, code, body)
			}
			r.live[q] = body
			if code, body := serve(s1, "/v1/runs/"+r.id+"/provenance"+q); code != http.StatusOK || !bytes.Equal(body, r.live[q]) {
				t.Fatalf("%s: provenance%s of the finished durable run: %d\n%s\nwant 200\n%s", r.name, q, code, body, r.live[q])
			}
		}
		var view provenanceView
		_, body := serve(s1, "/v1/runs/"+r.id+"/provenance"+r.queries[0]+"&verify=1")
		if err := json.Unmarshal(body, &view); err != nil || view.Chain == nil || !view.Chain.Verified {
			t.Fatalf("%s: live verify=1 = %s (%v), want verified", r.name, body, err)
		}
		r.records = view.Chain.Records
	}
	if forced, err := s0.Shutdown(10 * time.Second); err != nil || forced {
		t.Fatalf("Shutdown = (forced %v, err %v)", forced, err)
	}
	if forced, err := s1.Shutdown(10 * time.Second); err != nil || forced {
		t.Fatalf("Shutdown = (forced %v, err %v)", forced, err)
	}

	s2, err := New(Config{Workers: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		for _, q := range r.queries {
			if code, body := serve(s2, "/v1/runs/"+r.id+"/provenance"+q); code != http.StatusOK || !bytes.Equal(body, r.live[q]) {
				t.Fatalf("%s: provenance%s after restart: %d\n%s\nwant 200\n%s", r.name, q, code, body, r.live[q])
			}
		}
		var view provenanceView
		_, body := serve(s2, "/v1/runs/"+r.id+"/provenance"+r.queries[0]+"&verify=1")
		if err := json.Unmarshal(body, &view); err != nil || view.Chain == nil || !view.Chain.Verified || view.Chain.Records != r.records {
			t.Fatalf("%s: verify=1 after restart = %s (%v), want verified with %d records", r.name, body, err, r.records)
		}
		_, _, res, err := replayLog(filepath.Join(dir, "runs", r.id+".wal"))
		if err != nil {
			t.Fatalf("%s: replay: %v", r.name, err)
		}
		if res != nil && res.Finished != nil {
			t.Fatalf("%s: the replay ran to a RunFinished %+v; a finished log's replay dispatches nothing", r.name, res.Finished)
		}
	}
}

// TestDurableParentFixture: a data dir an older build wrote — a
// finished quickstart run's WAL without chain digests, beside its
// runs/<id>.chain — boots with the run succeeded and its trace byte
// for byte the golden. Nothing in the log can be checked, so verify=1
// and provenance answer 409 naming the missing digests, and neither
// file is touched.
func TestDurableParentFixture(t *testing.T) {
	dir := t.TempDir()
	runs := filepath.Join(dir, "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for src, dst := range map[string]string{
		filepath.Join("..", "storage", "testdata", "quickstart.wal"):      "r-0001.wal",
		filepath.Join("..", "provenance", "testdata", "quickstart.chain"): "r-0001.chain",
	} {
		b, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(runs, dst), b, 0o644); err != nil {
			t.Fatal(err)
		}
		files[dst] = b
	}
	s, err := New(Config{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if v := s.record("r-0001").view(); v.State != string(stateSucceeded) || v.TasksRun != 4 {
		t.Fatalf("parent run booted %+v, want succeeded with 4 tasks", v)
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "scenarios", "golden", "quickstart.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if code, body := serve(s, "/v1/runs/r-0001/trace"); code != http.StatusOK || !bytes.Equal(body, golden) {
		t.Fatalf("parent run's trace: %d\n%s\nwant the golden\n%s", code, body, golden)
	}
	for _, q := range []string{"?inst=Performance:8&verify=1", "?inst=Performance:8"} {
		if code, body := serve(s, "/v1/runs/r-0001/provenance"+q); code != http.StatusConflict ||
			!bytes.Contains(body, []byte("carries no chain digests")) {
			t.Fatalf("parent run's provenance%s: %d %s, want 409 naming the missing digests", q, code, body)
		}
	}
	for name, want := range files {
		if got, err := os.ReadFile(filepath.Join(runs, name)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s changed by boot and queries (%v)", name, err)
		}
	}
}

// TestDurableEndsBeforePlanning: a durable run that fails planning —
// fanout-cap's combo cap — logs a terminal error record, so its WAL
// reads back finished and the next boot lists it failed with that
// error instead of running it again, leaving the log byte for byte.
func TestDurableEndsBeforePlanning(t *testing.T) {
	dir := t.TempDir()
	const want = "fan-out exceeds 16 combinations"
	s1, ts1 := newTestServer(t, Config{Workers: 1, DataDir: dir})
	v := submit(t, ts1.URL, corpus(t, "fanout-cap"), "alice")
	if got := waitTerminal(t, ts1.URL, v.ID); got.State != string(stateFailed) || !strings.Contains(got.Error, want) {
		t.Fatalf("fanout-cap ended %+v, want failed with %q", got, want)
	}
	if forced, err := s1.Shutdown(5 * time.Second); err != nil || forced {
		t.Fatalf("Shutdown = (forced %v, err %v)", forced, err)
	}
	path := filepath.Join(dir, "runs", v.ID+".wal")
	rc := recoverFile(t, path)
	if !rc.Finished || !strings.Contains(rc.Error, want) || len(rc.Events) != 0 {
		t.Fatalf("fanout-cap's WAL recovered finished=%v error %q with %d events, want finished with the error", rc.Finished, rc.Error, len(rc.Events))
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rec := s2.record(v.ID)
	select {
	case <-rec.done:
	default:
		t.Fatal("the failed run was launched again at boot")
	}
	if got := rec.view(); got.State != string(stateFailed) || !strings.Contains(got.Error, want) {
		t.Fatalf("fanout-cap after boot = %+v, want failed with %q", got, want)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("boot changed the WAL (%v)", err)
	}
}

// runLogSeeds returns FuzzVerifyRunLog's seeds, named, each a run log
// without its identity record: a finished durable quickstart run's
// WAL (testdata/quickstart.wal, a durable quickstart run's
// runs/r-0001.wal for user alice on two workers, written while commit
// payloads still repeated their unit and instances), the same log with
// its last frame torn, the same log with unit 2's artifact rewritten,
// with the instance its UnitCommitted event names forged, with that
// event's type forged and with unit 2's commit record duplicated, each
// under a valid frame checksum, and an older build's digest-less
// quickstart WAL. meta is the identity record frame every input is
// written after: quickstart's, from the first log.
func runLogSeeds(tb testing.TB) (meta []byte, seeds map[string][]byte) {
	read := func(path string) []byte {
		b, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	metaLen := func(wal []byte) int { return 8 + int(binary.LittleEndian.Uint32(wal)) }
	wal := read(filepath.Join("testdata", "quickstart.wal"))
	parent := read(filepath.Join("..", "storage", "testdata", "quickstart.wal"))
	m := metaLen(wal)
	if !bytes.Equal(parent[:metaLen(parent)], wal[:m]) {
		tb.Fatal("the two quickstart logs open with different identity records")
	}
	seeds = map[string][]byte{
		"finished": wal[m:],
		"torn":     wal[m : len(wal)-5],
		"parent":   parent[m:],
	}
	for name, tamper := range map[string]func(testing.TB, string, int){
		"tampered":    rewriteArtifact,
		"forged":      forgeInst,
		"forged type": forgeType,
		"duplicated":  duplicateCommit,
	} {
		path := filepath.Join(tb.TempDir(), "r-0001.wal")
		if err := os.WriteFile(path, wal, 0o644); err != nil {
			tb.Fatal(err)
		}
		tamper(tb, path, 2)
		seeds[name] = read(path)[m:]
	}
	return wal[:m], seeds
}

// FuzzVerifyRunLog drives arbitrary bytes through the replay verifier
// as a run log on disk, after quickstart's identity record: ReplayLog
// never panics, and it passes a log only when the log finished, every
// chain digest it carries matched and its commit records name strictly
// increasing units.
func FuzzVerifyRunLog(f *testing.F) {
	meta, seeds := runLogSeeds(f)
	for _, name := range []string{"finished", "torn", "tampered", "forged", "forged type", "duplicated", "parent"} {
		f.Add(seeds[name])
	}
	path := filepath.Join(f.TempDir(), "r-0001.wal")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, append(append([]byte(nil), meta...), data...), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReplayLog(path); err != nil {
			return
		}
		rc := recoverFile(t, path)
		if !rc.Finished {
			t.Fatal("ReplayLog passed an unfinished log")
		}
		if rc.Error != "" {
			return
		}
		if rc.PlanDigest == "" {
			t.Fatal("ReplayLog passed a log without chain digests")
		}
		for i, c := range rc.Commits {
			if c.Digest == "" {
				t.Fatalf("ReplayLog passed a log whose unit %d carries no digest", c.Event.Unit)
			}
			if i > 0 && c.Event.Unit <= rc.Commits[i-1].Event.Unit {
				t.Fatalf("ReplayLog passed a log that commits unit %d after unit %d", c.Event.Unit, rc.Commits[i-1].Event.Unit)
			}
		}
	})
}

// TestVerifyRunLogSeeds pins FuzzVerifyRunLog's seeds: the finished
// log verifies with quickstart's 8 chain records, its torn copy reads
// as interrupted, the rewritten, the forged and the duplicated ones
// name unit 2, and the digest-less one is refused for its missing
// digests. The finished
// log without its identity record is refused as altered.
func TestVerifyRunLogSeeds(t *testing.T) {
	meta, seeds := runLogSeeds(t)
	for _, tc := range []struct {
		name string
		n    int
		err  string
	}{
		{"finished", 8, ""},
		{"torn", 0, ErrInterrupted.Error()},
		{"tampered", 0, "recovered unit 2 ("},
		{"forged", 0, `recovered unit 2 logged {"seq":9,"kind":"UnitCommitted","job":2,"combo":0,"unit":2,"nodes":[3],"type":"Circuit","insts":["Forged:999"]} where the replan commits {"seq":9,"kind":"UnitCommitted","job":2,"combo":0,"unit":2,"nodes":[3],"type":"Circuit","insts":["Circuit:7"]}`},
		{"forged type", 0, `"type":"Forged","insts":["Circuit:7"]} where the replan commits`},
		{"duplicated", 0, "the recovered log commits unit 2 again or out of plan order"},
		{"parent", 0, "carries no chain digests"},
	} {
		path := filepath.Join(t.TempDir(), "r-0001.wal")
		if err := os.WriteFile(path, append(append([]byte(nil), meta...), seeds[tc.name]...), 0o644); err != nil {
			t.Fatal(err)
		}
		idx, n, err := ReplayLog(path)
		switch {
		case tc.err == "" && (err != nil || n != tc.n || idx.Len() != n):
			t.Errorf("%s: ReplayLog = %d records, %v; want %d", tc.name, n, err, tc.n)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err) || n != tc.n):
			t.Errorf("%s: ReplayLog = %d records, %v; want %d and an error naming %q", tc.name, n, err, tc.n, tc.err)
		}
	}
	path := filepath.Join(t.TempDir(), "r-0001.wal")
	if err := os.WriteFile(path, seeds["finished"], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReplayLog(path); err == nil || !strings.Contains(err.Error(), "no identity record") {
		t.Errorf("ReplayLog of a finished log without its identity record = %v, want it refused", err)
	}
}

// FuzzProvenanceQuery drives arbitrary inst, dir, depth and verify
// query values at a finished in-memory run: the endpoint never panics
// and answers 200, 400 or 404 only.
func FuzzProvenanceQuery(f *testing.F) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	doc := compact(f, svcScenario)
	world, flowName, opts, err := materialize(doc)
	if err != nil {
		f.Fatal(err)
	}
	v, err := s.start(world, flowName, opts, "alice", doc)
	if err != nil {
		f.Fatal(err)
	}
	<-s.record(v.ID).done
	f.Add("Out:4", "back", "", "1")
	f.Add("Src:1", "fwd", "1", "")
	f.Add("", "sideways", "x", "0")
	f.Add("Nope:9", "back", "-1", "1")
	f.Add("Mid:3", "", "99999999999999999999", "true")
	f.Fuzz(func(t *testing.T, inst, dir, depth, verify string) {
		q := url.Values{"inst": {inst}, "dir": {dir}, "depth": {depth}, "verify": {verify}}
		code, body := serve(s, "/v1/runs/"+v.ID+"/provenance?"+q.Encode())
		switch code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("%s: %d %s", q.Encode(), code, body)
		}
	})
}
