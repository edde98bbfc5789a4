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
// durably, then restarts the service over the same data dir. After the
// restart each run's provenance — backward and forward from every
// committed instance — answers byte for byte as the live run's did,
// rebuilt from the log on the first query; verify=1 verifies with the
// live record count; and the replay behind both dispatched no unit.
func TestDurableReplayGoldens(t *testing.T) {
	goldens, err := filepath.Glob(filepath.Join("..", "..", "testdata", "scenarios", "golden", "*.jsonl"))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no goldens found (%v)", err)
	}
	dir := t.TempDir()
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
		world, flowName, opts, err := materialize(doc)
		if err != nil {
			t.Fatal(err)
		}
		v, err := s1.start(world, flowName, opts, "golden", doc)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = &run{name: name, id: v.ID, live: map[string][]byte{}}
	}
	for _, r := range runs {
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
			code, body := serve(s1, "/v1/runs/"+r.id+"/provenance"+q)
			if code != http.StatusOK {
				t.Fatalf("%s: live provenance%s: %d %s", r.name, q, code, body)
			}
			r.live[q] = body
		}
		var view provenanceView
		_, body := serve(s1, "/v1/runs/"+r.id+"/provenance"+r.queries[0]+"&verify=1")
		if err := json.Unmarshal(body, &view); err != nil || view.Chain == nil || !view.Chain.Verified {
			t.Fatalf("%s: live verify=1 = %s (%v), want verified", r.name, body, err)
		}
		r.records = view.Chain.Records
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
		if res != nil && res.Stats.UnitsRun != 0 {
			t.Fatalf("%s: the replay dispatched %d units, want none", r.name, res.Stats.UnitsRun)
		}
	}
}

// TestDurableParentFixture: a data dir the previous build wrote — a
// finished quickstart run's WAL without chain digests, beside its
// runs/<id>.chain — boots with the run succeeded and its trace byte
// for byte the golden. Provenance answers as a fresh run's does,
// verify=1 reports the log unverified rather than failed, and neither
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

	fresh, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	doc := compact(t, corpus(t, "quickstart"))
	world, flowName, opts, err := materialize(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.start(world, flowName, opts, "alice", doc); err != nil {
		t.Fatal(err)
	}
	<-fresh.record("r-0001").done
	for _, q := range []string{"?inst=Performance:8", "?inst=EditedNetlist:5&dir=fwd"} {
		_, want := serve(fresh, "/v1/runs/r-0001/provenance"+q)
		if code, body := serve(s, "/v1/runs/r-0001/provenance"+q); code != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("parent run's provenance%s: %d\n%s\nwant 200\n%s", q, code, body, want)
		}
	}
	var view provenanceView
	_, body := serve(s, "/v1/runs/r-0001/provenance?inst=Performance:8&verify=1")
	if err := json.Unmarshal(body, &view); err != nil || view.Chain == nil || view.Chain.Verified ||
		view.Chain.Error != ErrUnverified.Error() {
		t.Fatalf("parent run's verify=1 = %s (%v), want %q", body, err, ErrUnverified)
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
// WAL as this build writes it (testdata/quickstart.wal, a durable
// quickstart run's runs/r-0001.wal for user alice on two workers), the
// same log with its last frame torn, the same log with unit 2's
// artifact rewritten under a valid frame checksum, and the previous
// build's digest-less quickstart WAL. meta is the identity record
// frame every input is written after: quickstart's, from the first
// log.
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
	dir := tb.TempDir()
	path := filepath.Join(dir, "r-0001.wal")
	if err := os.WriteFile(path, wal, 0o644); err != nil {
		tb.Fatal(err)
	}
	rewriteArtifact(tb, path, 2)
	tampered := read(path)
	return wal[:m], map[string][]byte{
		"finished": wal[m:],
		"torn":     wal[m : len(wal)-5],
		"tampered": tampered[m:],
		"parent":   parent[m:],
	}
}

// FuzzVerifyRunLog drives arbitrary bytes through the replay verifier
// as a run log on disk, after quickstart's identity record: ReplayLog
// never panics, and it passes a log only when the log finished and
// every chain digest it carries matched.
func FuzzVerifyRunLog(f *testing.F) {
	meta, seeds := runLogSeeds(f)
	for _, name := range []string{"finished", "torn", "tampered", "parent"} {
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
		for u, c := range rc.Commits {
			if c.Digest == "" {
				t.Fatalf("ReplayLog passed a log whose unit %d carries no digest", u)
			}
		}
	})
}

// TestVerifyRunLogSeeds pins FuzzVerifyRunLog's seeds: this build's
// log verifies with quickstart's 8 chain records, its torn copy reads
// as interrupted, the rewritten one names unit 2, and the previous
// build's is unverified.
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
		{"parent", 8, ErrUnverified.Error()},
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
