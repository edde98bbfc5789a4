// Package harness is the conformance runner over the declarative
// scenario format (internal/scenario): it materializes a scenario into
// a fresh deterministic world — schema, history database on a frozen
// clock, content-addressed datastore, fault-instrumented registry,
// engine — executes it under a differential sweep of worker counts,
// and holds the outcome against the scenario's expectations: a golden
// masked-JSONL trace, final-state assertions on history and artifacts,
// error/skip sets, warm-rerun memo contracts, and WAL kill-and-resume
// sweeps.
//
// The determinism contract the harness enforces is the repository's
// central one: for a deterministic scenario, the masked trace and the
// final history dump are byte-identical across every configuration of
// the sweep, and byte-identical to the checked-in golden.
package harness

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/datastore"
	"repro/internal/exec"
	"repro/internal/memo"
	"repro/internal/scenario"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Options configure one conformance run.
type Options struct {
	// GoldenDir holds the golden traces (<GoldenDir>/<name>.jsonl).
	// Empty disables the golden comparison even for scenarios that want
	// one (ad-hoc runs without a corpus checkout).
	GoldenDir string
	// Update writes (or rewrites) the golden trace instead of comparing.
	Update bool
	// Logf, when set, receives progress lines (one per configuration).
	Logf func(format string, args ...any)
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Report summarizes a passed conformance run.
type Report struct {
	// Scenario is the scenario name.
	Scenario string
	// Configs lists the sweep configurations executed ("w1", …).
	Configs []string
	// TasksRun is the committed tool executions of one configuration.
	TasksRun int
	// GoldenPath is the golden trace compared against ("" when the
	// scenario is goldenless or no GoldenDir was given).
	GoldenPath string
	// GoldenUpdated reports that -update rewrote the golden.
	GoldenUpdated bool
	// WarmHits is the warm rerun's cache-hit count (0 without a
	// warm-rerun contract).
	WarmHits int
	// KillPoints is the number of WAL truncation points swept by the
	// kill-and-resume check (0 without one).
	KillPoints int
	// StaleKeys is the verified stale cone of the expect.stale check
	// (import keys, sorted; nil without one).
	StaleKeys []string
	// RetraceTasks is the number of constructions the expect.stale
	// retrace rebuilt.
	RetraceTasks int
}

// RunFile loads and runs one scenario file.
func RunFile(path string, opts Options) (*Report, error) {
	sc, err := scenario.Load(path)
	if err != nil {
		return nil, err
	}
	return Run(sc, opts)
}

// Run executes a scenario's full conformance check. The returned error
// is the first contract violation, rendered to be actionable: it names
// the scenario, the sweep configuration and the assertion, and golden
// mismatches carry a unified diff of the masked JSONL.
func Run(sc *scenario.Scenario, opts Options) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	rep := &Report{Scenario: sc.Name}

	// The differential sweep: every configuration runs in its own fresh
	// world; deterministic scenarios must agree byte-for-byte.
	configs := sweep(sc)
	outs := make([]*runOut, len(configs))
	for i, cfg := range configs {
		opts.logf("scenario %s: %s", sc.Name, cfg)
		out, err := execute(sc, cfg, sharedState{})
		if err != nil {
			return nil, err
		}
		if err := checkRunError(sc, cfg, out.err); err != nil {
			out.close()
			return nil, err
		}
		outs[i] = out
		rep.Configs = append(rep.Configs, cfg.String())
	}
	defer func() {
		for _, out := range outs {
			if out != nil {
				out.close()
			}
		}
	}()

	base := outs[0]
	if sc.Differential() {
		for _, out := range outs[1:] {
			if !bytes.Equal(out.masked, base.masked) {
				return nil, fmt.Errorf("scenario %s: masked trace differs between %s and %s:\n%s",
					sc.Name, base.cfg, out.cfg, unifiedDiff(base.cfg.String(), out.cfg.String(), base.masked, out.masked))
			}
			if !bytes.Equal(out.hist, base.hist) {
				return nil, fmt.Errorf("scenario %s: final history differs between %s and %s:\n%s",
					sc.Name, base.cfg, out.cfg, unifiedDiff(base.cfg.String(), out.cfg.String(), base.hist, out.hist))
			}
		}
	}
	if sc.WantGolden() && opts.GoldenDir != "" {
		if err := checkGolden(sc, base.masked, opts, rep); err != nil {
			return nil, err
		}
	}

	if err := assertExpect(sc, base); err != nil {
		return nil, err
	}
	if base.res != nil {
		rep.TasksRun = base.res.TasksRun
	}

	if sc.Expect.WarmRerun != nil {
		if err := checkWarmRerun(sc, base, opts, rep); err != nil {
			return nil, err
		}
	}
	if sc.Expect.KillResume {
		if err := checkKillResume(sc, base, opts, rep); err != nil {
			return nil, err
		}
	}
	// Last: the stale/retrace check mutates the base world's history.
	if sc.Expect.Stale != nil {
		if err := checkStale(sc, base, opts, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// config is one cell of the differential sweep.
type config struct {
	workers int
}

func (c config) String() string { return fmt.Sprintf("w%d", c.workers) }

// sweep expands the scenario's run spec into configurations; the
// default is the acceptance matrix, workers {1, 2, 8}. The run spec's
// Schedulers field names no axis: Validate accepts only "dataflow".
func sweep(sc *scenario.Scenario) []config {
	workers := []int{1, 2, 8}
	if len(sc.Run.Workers) > 0 {
		workers = sc.Run.Workers
	}
	out := make([]config, len(workers))
	for i, w := range workers {
		out[i] = config{workers: w}
	}
	return out
}

// sharedState carries the pieces a multi-run check deliberately shares
// between worlds (a warm rerun's datastore + result cache, a durable
// run's WAL and recovery prefix). The zero value shares nothing.
type sharedState struct {
	store  *datastore.Store
	cache  *memo.Cache
	wal    *storage.RunWAL
	resume *storage.Recovered
}

// runOut is one world's execution outcome.
type runOut struct {
	cfg    config
	w      *world
	res    *exec.Result
	err    error // run error (may be expected)
	events []trace.Event
	masked []byte
	hist   []byte
}

func (o *runOut) close() { o.w.close() }

// execute builds a fresh world for the scenario and runs it under one
// configuration. Build errors are returned directly (the scenario is
// broken); run errors land in runOut.err for expectation checking.
func execute(sc *scenario.Scenario, cfg config, shared sharedState) (*runOut, error) {
	w, err := buildWorld(sc, shared.store)
	if err != nil {
		return nil, err
	}
	w.engine.SetWorkers(cfg.workers)

	buf := trace.NewBuffer()
	var sink trace.Sink = buf
	ctx := context.Background()
	if sc.Cancel != nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		sink = &cancelAfterCommits{inner: buf, left: sc.Cancel.AfterCommits, cancel: cancel}
	}

	ro := w.runOptions()
	ro.Tracer = sink
	ro.Memo = shared.cache
	ro.WAL = shared.wal
	ro.Resume = shared.resume

	out := &runOut{cfg: cfg, w: w}
	out.res, out.err = w.run(ctx, w.engine, ro)
	out.events = buf.Events()
	out.masked = trace.MaskedJSONL(out.events)
	if out.hist, err = w.historyDump(); err != nil {
		w.close()
		return nil, fmt.Errorf("scenario %s: %s: dumping history: %w", sc.Name, cfg, err)
	}
	return out, nil
}

// cancelAfterCommits cancels the run context once N units have
// committed — the cancel-mid-run probe. It forwards every event to the
// inner sink.
type cancelAfterCommits struct {
	inner  trace.Sink
	mu     sync.Mutex
	left   int
	cancel context.CancelFunc
}

func (c *cancelAfterCommits) Emit(ev trace.Event) {
	c.inner.Emit(ev)
	if ev.Kind != trace.KindUnitCommitted {
		return
	}
	c.mu.Lock()
	c.left--
	fire := c.left == 0
	c.mu.Unlock()
	if fire {
		c.cancel()
	}
}

// checkRunError holds a configuration's run error against the
// scenario's error expectation.
func checkRunError(sc *scenario.Scenario, cfg config, err error) error {
	want := sc.Expect.Error
	switch {
	case want == "" && err != nil:
		return fmt.Errorf("scenario %s: %s: unexpected run error: %v", sc.Name, cfg, err)
	case want != "" && err == nil:
		return fmt.Errorf("scenario %s: %s: run succeeded, want an error containing %q", sc.Name, cfg, want)
	case want != "" && !strings.Contains(err.Error(), want):
		return fmt.Errorf("scenario %s: %s: run error %q does not contain %q", sc.Name, cfg, err, want)
	}
	return nil
}

// checkGolden compares (or, under -update, rewrites) the scenario's
// golden masked trace.
func checkGolden(sc *scenario.Scenario, masked []byte, opts Options, rep *Report) error {
	path := filepath.Join(opts.GoldenDir, sc.Name+".jsonl")
	rep.GoldenPath = path
	if opts.Update {
		if err := os.MkdirAll(opts.GoldenDir, 0o755); err != nil {
			return fmt.Errorf("scenario %s: creating golden dir: %w", sc.Name, err)
		}
		if err := os.WriteFile(path, masked, 0o644); err != nil {
			return fmt.Errorf("scenario %s: writing golden: %w", sc.Name, err)
		}
		rep.GoldenUpdated = true
		return nil
	}
	want, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("scenario %s: missing golden trace %s; run the conformance test with -update (make conformance-update) to create it",
				sc.Name, path)
		}
		return fmt.Errorf("scenario %s: reading golden: %w", sc.Name, err)
	}
	if !bytes.Equal(masked, want) {
		return fmt.Errorf("scenario %s: masked trace diverges from golden %s (re-bless with -update if the change is intended):\n%s",
			sc.Name, path, unifiedDiff("golden", "got", want, masked))
	}
	return nil
}

// assertExpect holds the base configuration's result against the
// scenario's final-state expectations.
func assertExpect(sc *scenario.Scenario, out *runOut) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("scenario %s: %s: %s", sc.Name, out.cfg, fmt.Sprintf(format, args...))
	}
	ex, res, w := sc.Expect, out.res, out.w
	if ex.TasksRun != nil && res.TasksRun != *ex.TasksRun {
		return fail("TasksRun = %d, want %d", res.TasksRun, *ex.TasksRun)
	}
	for _, typ := range sortedExpectTypes(ex.Instances) {
		got := len(w.db.InstancesOf(typ))
		if want := ex.Instances[typ]; got != want {
			return fail("history has %d instances of %s, want %d", got, typ, want)
		}
	}
	if len(ex.Skipped) > 0 || res.Skipped != nil {
		got := make([]string, len(res.Skipped))
		for i, id := range res.Skipped {
			got[i] = w.nodeName(id)
		}
		if !equalStrings(got, ex.Skipped) {
			return fail("skipped nodes [%s], want [%s]",
				strings.Join(got, ", "), strings.Join(ex.Skipped, ", "))
		}
	}
	if ex.FailedUnits != nil || ex.Retries != nil || ex.Timeouts != nil {
		if res.Finished == nil {
			return fail("run produced no RunFinished; cannot check failure counters")
		}
		c := fold(out.events)
		if ex.FailedUnits != nil && c.Failed != int64(*ex.FailedUnits) {
			return fail("UnitsFailed = %d, want %d", c.Failed, *ex.FailedUnits)
		}
		if ex.Retries != nil && c.Retried != int64(*ex.Retries) {
			return fail("Retries = %d, want %d", c.Retried, *ex.Retries)
		}
		if ex.Timeouts != nil && c.TimedOut != int64(*ex.Timeouts) {
			return fail("Timeouts = %d, want %d", c.TimedOut, *ex.Timeouts)
		}
	}
	for _, a := range ex.Artifacts {
		id, err := w.node(a.Node)
		if err != nil {
			return fail("expect.artifacts: %v", err)
		}
		inst, err := res.One(id)
		if err != nil {
			return fail("expect.artifacts (%s): %v", a.Node, err)
		}
		text, err := w.artifactText(inst)
		if err != nil {
			return fail("expect.artifacts (%s): %v", a.Node, err)
		}
		for _, sub := range a.Contains {
			if !strings.Contains(text, sub) {
				return fail("artifact of %s does not contain %q; artifact:\n%s", a.Node, sub, text)
			}
		}
	}
	return nil
}

// fold counts a run's own events through trace.Metrics, the one
// instrumentation path.
func fold(events []trace.Event) trace.Snapshot {
	m := trace.NewMetrics()
	for _, ev := range events {
		m.Emit(ev)
	}
	return m.Snapshot()
}

// checkWarmRerun runs the scenario twice over one shared datastore and
// result cache and enforces the memo contract: the exact hit count, a
// warm trace that projects (minus UnitCacheHit) onto the cold trace,
// and a warm history byte-identical to the cold one.
func checkWarmRerun(sc *scenario.Scenario, base *runOut, opts Options, rep *Report) error {
	opts.logf("scenario %s: warm rerun", sc.Name)
	store := datastore.NewStore()
	cache := memo.New(0)
	cold, err := execute(sc, base.cfg, sharedState{store: store, cache: cache})
	if err != nil {
		return err
	}
	defer cold.close()
	if err := checkRunError(sc, cold.cfg, cold.err); err != nil {
		return fmt.Errorf("warm-rerun cold pass: %w", err)
	}
	// An empty cache must be invisible: the cold pass reproduces the
	// sweep's trace byte-for-byte.
	if sc.WantGolden() && !bytes.Equal(cold.masked, base.masked) {
		return fmt.Errorf("scenario %s: cold run with an (empty) memo diverges from the memo-less trace:\n%s",
			sc.Name, unifiedDiff("memo-less", "cold", base.masked, cold.masked))
	}
	warm, err := execute(sc, base.cfg, sharedState{store: store, cache: cache})
	if err != nil {
		return err
	}
	defer warm.close()
	if err := checkRunError(sc, warm.cfg, warm.err); err != nil {
		return fmt.Errorf("warm rerun: %w", err)
	}
	hits := int(fold(warm.events).CacheHits)
	if want := sc.Expect.WarmRerun.Hits; hits != want {
		return fmt.Errorf("scenario %s: warm rerun hit the cache %d times, want %d", sc.Name, hits, want)
	}
	rep.WarmHits = hits
	projected := trace.MaskedJSONL(trace.DropKinds(warm.events, trace.KindUnitCacheHit))
	coldMasked := trace.MaskedJSONL(trace.DropKinds(cold.events, trace.KindUnitCacheHit))
	if !bytes.Equal(projected, coldMasked) {
		return fmt.Errorf("scenario %s: warm trace (minus UnitCacheHit) diverges from cold:\n%s",
			sc.Name, unifiedDiff("cold", "warm", coldMasked, projected))
	}
	if !bytes.Equal(warm.hist, cold.hist) {
		return fmt.Errorf("scenario %s: warm history diverges from cold:\n%s",
			sc.Name, unifiedDiff("cold", "warm", cold.hist, warm.hist))
	}
	return nil
}

// killableLog models kill -9 at a precise point in the WAL stream: it
// accepts (and makes durable) the first killAt records and silently
// drops everything after — what survives a crash whose last group
// commit covered record killAt.
type killableLog struct {
	*storage.MemLog
	mu     sync.Mutex
	n      int
	killAt int
}

func (l *killableLog) Append(rec []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n >= l.killAt {
		return nil // the process is dead: the write never happens
	}
	l.n++
	if err := l.MemLog.Append(rec); err != nil {
		return err
	}
	return l.MemLog.Sync()
}

func (l *killableLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n >= l.killAt {
		return nil
	}
	return l.MemLog.Sync()
}

// checkKillResume runs the scenario durably and sweeps kill-and-resume
// over every WAL record boundary: each resumed run must complete with
// the full golden stream in its WAL and a history byte-identical to an
// uninterrupted run's.
func checkKillResume(sc *scenario.Scenario, base *runOut, opts Options, rep *Report) error {
	// Golden: one uninterrupted durable run.
	goldLog := storage.NewMemLog()
	goldWAL := storage.NewRunWAL(goldLog)
	gold, err := execute(sc, base.cfg, sharedState{wal: goldWAL})
	if err != nil {
		return err
	}
	defer gold.close()
	if err := goldWAL.Close(); err != nil {
		return fmt.Errorf("scenario %s: closing golden WAL: %w", sc.Name, err)
	}
	if err := checkRunError(sc, gold.cfg, gold.err); err != nil {
		return fmt.Errorf("kill-resume golden pass: %w", err)
	}
	// The WAL must be invisible to the trace.
	if !bytes.Equal(gold.masked, base.masked) {
		return fmt.Errorf("scenario %s: durable run diverges from the WAL-less trace:\n%s",
			sc.Name, unifiedDiff("wal-less", "durable", base.masked, gold.masked))
	}
	goldRecs, err := goldLog.Committed()
	if err != nil {
		return fmt.Errorf("scenario %s: reading golden WAL: %w", sc.Name, err)
	}
	goldenMasked := trace.MaskedJSONL(gold.events)
	_, goldDigests, err := walEventList(goldLog)
	if err != nil {
		return fmt.Errorf("scenario %s: reading golden WAL: %w", sc.Name, err)
	}

	for killAt := 0; killAt < len(goldRecs); killAt++ {
		opts.logf("scenario %s: kill-resume at record %d/%d", sc.Name, killAt, len(goldRecs))
		kl := &killableLog{MemLog: storage.NewMemLog(), killAt: killAt}
		vWAL := storage.NewRunWAL(kl)
		victim, err := execute(sc, base.cfg, sharedState{wal: vWAL})
		if err != nil {
			return err
		}
		victim.close()
		_ = vWAL.Close()

		rec, err := storage.RecoverRun(kl.MemLog)
		if err != nil {
			return fmt.Errorf("scenario %s: killAt=%d: recover: %w", sc.Name, killAt, err)
		}
		if rec.Finished {
			return fmt.Errorf("scenario %s: killAt=%d of %d recovered as finished", sc.Name, killAt, len(goldRecs))
		}
		if err := rec.Rewind(kl.MemLog); err != nil {
			return fmt.Errorf("scenario %s: killAt=%d: rewind: %w", sc.Name, killAt, err)
		}
		rWAL := storage.NewRunWAL(kl.MemLog)
		resumed, err := execute(sc, base.cfg, sharedState{wal: rWAL, resume: rec})
		if err != nil {
			return err
		}
		if cerr := rWAL.Close(); cerr != nil {
			resumed.close()
			return fmt.Errorf("scenario %s: killAt=%d: closing resumed WAL: %w", sc.Name, killAt, cerr)
		}
		if err := checkRunError(sc, resumed.cfg, resumed.err); err != nil {
			resumed.close()
			return fmt.Errorf("kill-resume killAt=%d: %w", killAt, err)
		}
		final, digests, err := walEventList(kl.MemLog)
		if err != nil {
			resumed.close()
			return fmt.Errorf("scenario %s: killAt=%d: reading final WAL: %w", sc.Name, killAt, err)
		}
		if got := trace.MaskedJSONL(final); !bytes.Equal(got, goldenMasked) {
			resumed.close()
			return fmt.Errorf("scenario %s: killAt=%d: final WAL diverges from golden:\n%s",
				sc.Name, killAt, unifiedDiff("golden", "final WAL", goldenMasked, got))
		}
		if !equalStrings(digests, goldDigests) {
			resumed.close()
			return fmt.Errorf("scenario %s: killAt=%d: final WAL's chain digests diverge from golden:\n got %q\nwant %q",
				sc.Name, killAt, digests, goldDigests)
		}
		if !bytes.Equal(resumed.hist, gold.hist) {
			resumed.close()
			return fmt.Errorf("scenario %s: killAt=%d: resumed history diverges from golden:\n%s",
				sc.Name, killAt, unifiedDiff("golden", "resumed", gold.hist, resumed.hist))
		}
		resumed.close()
	}
	rep.KillPoints = len(goldRecs)
	return nil
}

// walEventList reads a finished run's log back through
// storage.RecoverRun: the event stream it persists, and the chain
// digests its records carry (the plan's, then each commit record's, in
// log order; "" for a record that carries none, which no golden log's
// does). A log RecoverRun does not read to its end as one finished run
// (an undecodable record, a record after the run's end, or no end at
// all) is refused.
func walEventList(l storage.Log) ([]trace.Event, []string, error) {
	rec, err := storage.RecoverRun(l)
	if err != nil {
		return nil, nil, err
	}
	recs, err := l.Committed()
	if err != nil {
		return nil, nil, err
	}
	if !rec.Finished || rec.PrefixRecords != len(recs) {
		return nil, nil, fmt.Errorf("WAL of %d records is not one finished run: finished %v, prefix of %d records",
			len(recs), rec.Finished, rec.PrefixRecords)
	}
	digests := []string{rec.PlanDigest}
	for _, c := range rec.Commits {
		digests = append(digests, c.Digest)
	}
	return rec.Events, digests, nil
}

func sortedExpectTypes(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Deterministic assertion order means deterministic first-failure.
	sort.Strings(keys)
	return keys
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
