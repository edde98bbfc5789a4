package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/history"
	"repro/internal/provenance"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/trace"
)

// repConfig selects one repetition of a workload.
type repConfig struct {
	workload string
	seed     int64
	rep      int
	z        sizes
	corpus   string // corpus-mix scenario directory
}

// repResult is what one repetition reports: raw samples and counters,
// aggregated by the parent across repetitions.
type repResult struct {
	// ReadyUnixNano is when flowd answered /healthz (history-query: when
	// its priming run finished); the parent subtracts the process start.
	ReadyUnixNano int64    `json:"ready_unix_nano"`
	Attempted     int      `json:"attempted"`
	Failed        int      `json:"failed"`
	Failures      []string `json:"failures,omitempty"`

	// Submissions of the timed phase (history-query: client B's).
	Runs       int       `json:"runs"`
	Units      int       `json:"units"`
	Events     int       `json:"events"`
	RunSeconds float64   `json:"run_seconds"`
	RunMS      []float64 `json:"run_ms"`    // POST → trace EOF
	SubmitMS   []float64 `json:"submit_ms"` // POST → 201
	StreamMS   []float64 `json:"stream_ms"` // 201 → trace EOF
	TasksRun   int       `json:"tasks_run"`
	CacheHits  int       `json:"cache_hits"`

	// history-query's client A.
	Queries      int       `json:"queries,omitempty"`
	QuerySeconds float64   `json:"query_seconds,omitempty"`
	QueryMS      []float64 `json:"query_ms,omitempty"`

	HeapMB        float64 `json:"heap_mb"`
	HeapKBPerRun  float64 `json:"heap_kb_per_run"`
	GCCycles      uint32  `json:"gc_cycles"`
	GCCPUFraction float64 `json:"gc_cpu_fraction"`

	// durable only.
	RecoverS  float64 `json:"recover_s,omitempty"`
	DiskBytes int64   `json:"disk_bytes,omitempty"`
}

const maxFailureNotes = 10

func (r *repResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxFailureNotes {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// sent is one submission awaiting its outcome check.
type sent struct {
	id     string // empty when the POST failed
	in     *input
	err    string // a failure seen while submitting or streaming
	events int
	last   trace.Kind // kind of the trace's last event
}

// submitter is one closed-loop client: it submits a run, follows its
// trace to EOF, then submits the next.
type submitter struct {
	c                         *client
	runMS, submitMS, streamMS []float64
	units, events             int
	sent                      []sent
	start, end                time.Time
}

func (s *submitter) run(in *input) {
	t0 := time.Now()
	id, err := s.c.submit(in.body)
	if err != nil {
		s.sent = append(s.sent, sent{in: in, err: err.Error()})
		return
	}
	t1 := time.Now()
	n, last, err := s.c.follow(id, nil)
	t2 := time.Now()
	if err != nil {
		s.sent = append(s.sent, sent{id: id, in: in, err: err.Error()})
		return
	}
	s.runMS = append(s.runMS, ms(t2.Sub(t0)))
	s.submitMS = append(s.submitMS, ms(t1.Sub(t0)))
	s.streamMS = append(s.streamMS, ms(t2.Sub(t1)))
	s.units += last.Committed
	s.events += n
	s.sent = append(s.sent, sent{id: id, in: in, events: n, last: last.Kind})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// outcome checks one submission against flowd's final view of it.
func outcome(s sent, views map[string]runView) error {
	if s.err != "" {
		return fmt.Errorf("%s", s.err)
	}
	exp := s.in.exp
	// A run that fails while planning emits no events at all; every
	// other trace closes with RunFinished.
	planFailure := s.events == 0 && exp.state == "failed" && exp.tasks == 0
	if s.last != trace.KindRunFinished && !planFailure {
		return fmt.Errorf("trace ended with %q after %d events", s.last, s.events)
	}
	v, ok := views[s.id]
	if !ok {
		return fmt.Errorf("missing from /v1/runs")
	}
	if v.State != exp.state {
		return fmt.Errorf("state %s, want %s (error %q)", v.State, exp.state, v.Error)
	}
	if exp.errSub != "" && !strings.Contains(v.Error, exp.errSub) {
		return fmt.Errorf("error %q does not contain %q", v.Error, exp.errSub)
	}
	if exp.tasks >= 0 && v.TasksRun != exp.tasks {
		return fmt.Errorf("tasks_run %d, want %d", v.TasksRun, exp.tasks)
	}
	return nil
}

// runRep runs one repetition of a workload against an in-process flowd
// and checks every outcome.
func runRep(cfg repConfig) (*repResult, error) {
	res := &repResult{}
	var ins, corpus []input
	var world input
	switch cfg.workload {
	case bigflow, durable:
		ins = bigflowInputs(cfg.seed, cfg.rep, cfg.z)
	case corpusMix:
		var err error
		if corpus, _, err = loadCorpus(cfg.corpus); err != nil {
			return nil, err
		}
	case historyQuery:
		world = historyWorld(cfg.seed, cfg.rep, cfg.z)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}

	var scfg service.Config
	if cfg.workload == durable {
		dir, err := os.MkdirTemp("", "flowload-durable-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		scfg.DataDir = dir
	}
	srv, err := service.New(scfg)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv)
	tr := newTransport()
	defer tr.CloseIdleConnections()
	c := newClient(ts.URL, tr)
	stop := func() error {
		ts.Close()
		forced, err := srv.Shutdown(time.Minute)
		if err == nil && forced {
			err = fmt.Errorf("flowd shutdown had to abort runs")
		}
		return err
	}
	if err := c.healthz(); err != nil {
		stop()
		return nil, err
	}

	var hq *historyState
	var priming []sent
	if cfg.workload == historyQuery {
		if hq, priming, err = prime(c, &world); err != nil {
			stop()
			return nil, err
		}
	}
	res.ReadyUnixNano = time.Now().UnixNano()
	if hq != nil {
		if err := hq.expect(cfg, &world); err != nil {
			stop()
			return nil, err
		}
	}

	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var subs []*submitter
	switch cfg.workload {
	case bigflow, durable:
		s := &submitter{c: c, start: time.Now()}
		for i := range ins {
			s.run(&ins[i])
		}
		s.end = time.Now()
		subs = []*submitter{s}
		res.RunSeconds = s.end.Sub(s.start).Seconds()
	case corpusMix:
		subs = runCorpusMix(c, corpus, cfg, res)
	case historyQuery:
		subs = hq.run(c, cfg, res)
	}
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)

	views := map[string]runView{}
	list, err := c.list()
	if err != nil {
		stop()
		return nil, err
	}
	for _, v := range list {
		views[v.ID] = v
	}
	all := priming
	for _, s := range subs {
		res.Runs += len(s.sent)
		res.Units += s.units
		res.Events += s.events
		res.RunMS = append(res.RunMS, s.runMS...)
		res.SubmitMS = append(res.SubmitMS, s.submitMS...)
		res.StreamMS = append(res.StreamMS, s.streamMS...)
		all = append(all, s.sent...)
	}
	for _, s := range all {
		res.Attempted++
		if err := outcome(s, views); err != nil {
			res.fail("run %s (%s): %v", s.id, s.in.name, err)
		}
		v := views[s.id]
		res.TasksRun += v.TasksRun
		res.CacheHits += v.CacheHits
	}

	const mb = 1 << 20
	res.HeapMB = float64(m2.HeapAlloc) / mb
	res.GCCycles = m1.NumGC - m0.NumGC
	res.GCCPUFraction = m1.GCCPUFraction
	if res.Runs > 0 {
		res.HeapKBPerRun = (float64(m2.HeapAlloc) - float64(m0.HeapAlloc)) / 1024 / float64(res.Runs)
	}
	if err := stop(); err != nil {
		return nil, err
	}
	if cfg.workload == durable {
		if err := recoverDurable(scfg, all, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runCorpusMix runs the corpus-mix timed phase: two closed-loop
// clients, each submitting seeded draws from the pinned corpus.
func runCorpusMix(c *client, corpus []input, cfg repConfig, res *repResult) []*submitter {
	subs := make([]*submitter, maxConns)
	var wg sync.WaitGroup
	start := time.Now()
	for k := range subs {
		s := &submitter{c: c, start: start}
		subs[k] = s
		rng := rand.New(rand.NewSource(cfg.seed*1000 + int64(cfg.rep)*maxConns + int64(k)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < cfg.z.mixPerClient; i++ {
				s.run(&corpus[rng.Intn(len(corpus))])
			}
			s.end = time.Now()
		}()
	}
	wg.Wait()
	res.RunSeconds = time.Since(start).Seconds()
	return subs
}

// recoverDurable restarts flowd over the durable workload's data
// directory and times boot recovery until /v1/runs lists every run of
// the repetition as succeeded again. It also records the bytes the runs
// left under runs/.
func recoverDurable(scfg service.Config, all []sent, res *repResult) error {
	var size int64
	err := filepath.Walk(filepath.Join(scfg.DataDir, "runs"), func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			size += fi.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	res.DiskBytes = size

	t0 := time.Now()
	srv, err := service.New(scfg)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	tr := newTransport()
	defer tr.CloseIdleConnections()
	list, err := newClient(ts.URL, tr).list()
	res.RecoverS = time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	views := map[string]runView{}
	for _, v := range list {
		views[v.ID] = v
	}
	for _, s := range all {
		if v, ok := views[s.id]; s.id != "" && (!ok || v.State != "succeeded") {
			res.fail("recovery: run %s listed as %q, want succeeded", s.id, v.State)
		}
	}
	if _, err := srv.Shutdown(time.Minute); err != nil {
		return err
	}
	return nil
}

// historyState is history-query's query side: the primed run and the
// expected answer of every drawn query.
type historyState struct {
	id        string
	committed []string
	draws     []query
	want      []uint64 // fnv-64a of each draw's expected node list
}

// prime submits the chain world and collects its committed instance IDs
// from the trace.
func prime(c *client, world *input) (*historyState, []sent, error) {
	id, err := c.submit(world.body)
	if err != nil {
		return nil, nil, fmt.Errorf("priming run: %w", err)
	}
	hq := &historyState{id: id}
	marker := []byte(`"kind":"UnitCommitted"`)
	n, last, err := c.follow(id, func(line []byte) error {
		if !bytes.Contains(line, marker) {
			return nil
		}
		var ev struct {
			Insts []string `json:"insts"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return err
		}
		hq.committed = append(hq.committed, ev.Insts...)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("priming run: %w", err)
	}
	if last.Kind != trace.KindRunFinished || len(hq.committed) == 0 {
		return nil, nil, fmt.Errorf("priming run: trace ended with %q after %d commits", last.Kind, len(hq.committed))
	}
	return hq, []sent{{id: id, in: world, events: n, last: last.Kind}}, nil
}

// expect draws the repetition's queries and computes their answers from
// a local oracle, which it then drops so the timed phase and the heap
// figure see flowd alone.
func (hq *historyState) expect(cfg repConfig, world *input) error {
	o, err := buildOracle(world)
	if err != nil {
		return err
	}
	if !slices.Equal(o.committed, hq.committed) {
		return fmt.Errorf("oracle committed %d instances, flowd %d: the determinism contract is broken",
			len(o.committed), len(hq.committed))
	}
	rng := rand.New(rand.NewSource(cfg.seed*1000 + int64(cfg.rep)))
	hq.draws = drawQueries(rng, hq.committed, cfg.z.hqQueries)
	hq.want = make([]uint64, len(hq.draws))
	for i, q := range hq.draws {
		d, err := o.query(q)
		if err != nil {
			return err
		}
		hq.want[i] = hashNodes(d)
	}
	return nil
}

// run is history-query's timed phase: client A sends every drawn query
// while client B keeps submitting layered worlds until A finishes.
func (hq *historyState) run(c *client, cfg repConfig, res *repResult) []*submitter {
	var done atomic.Bool
	writer := &submitter{c: c}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		writer.start = time.Now()
		for i := 0; !done.Load(); i++ {
			in := writerInput(cfg.seed, cfg.rep, i, cfg.z)
			writer.run(&in)
		}
		writer.end = time.Now()
	}()

	start := time.Now()
	for i, q := range hq.draws {
		t0 := time.Now()
		body, err := c.provenance(hq.id, q)
		lat := time.Since(t0)
		res.Attempted++
		if err != nil {
			res.fail("query %v: %v", q, err)
			continue
		}
		nodes, err := provenanceNodes(body)
		if err != nil {
			res.fail("query %v: %v", q, err)
			continue
		}
		if hashNodes(nodes) != hq.want[i] {
			res.fail("query %v: %d nodes differ from the local index's answer", q, len(nodes))
			continue
		}
		res.QueryMS = append(res.QueryMS, ms(lat))
	}
	res.QuerySeconds = time.Since(start).Seconds()
	res.Queries = len(hq.draws)
	done.Store(true)
	wg.Wait()
	res.RunSeconds = writer.end.Sub(writer.start).Seconds()
	return []*submitter{writer}
}

func hashNodes(nodes []string) uint64 {
	h := fnv.New64a()
	for _, n := range nodes {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// oracle is a scenario executed locally on flowd's materialization
// path, with its history indexed. The determinism contract makes its
// instance IDs equal flowd's, so its answers are the expected ones.
type oracle struct {
	idx       *provenance.Index
	committed []string
}

func buildOracle(in *input) (*oracle, error) {
	m, err := harness.Materialize(in.sc, nil)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	o := &oracle{idx: provenance.NewIndex()}
	m.DB().Observe(o.idx)
	buf := trace.NewBuffer()
	opts := runOptions(in.sc)
	opts.Tracer = buf
	eng := exec.New(m.Schema(), m.DB(), m.Store(), m.Registry())
	defer eng.Close()
	if _, err := execute(eng, m, opts); !outcomeMatches(err, in.exp) {
		return nil, fmt.Errorf("local run of %s: %v (want %s)", in.name, err, in.exp.state)
	}
	o.committed = committedInsts(buf.Events())
	return o, nil
}

func (o *oracle) query(q query) ([]string, error) {
	chain := o.idx.Backchain
	if q.dir == "fwd" {
		chain = o.idx.Forwardchain
	}
	d, err := chain(history.ID(q.inst), q.depth)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(d.Nodes))
	for i, n := range d.Nodes {
		out[i] = string(n)
	}
	return out, nil
}

// committedInsts lists the instance IDs of a trace's UnitCommitted
// events, in commit order.
func committedInsts(events []trace.Event) []string {
	var out []string
	for _, ev := range events {
		if ev.Kind == trace.KindUnitCommitted {
			out = append(out, ev.Insts...)
		}
	}
	return out
}

// runOptions carries a scenario's run stanza onto exec options the way
// flowd's submit handler does: failure policy, retry budget, per-task
// timeout and fan-out cap.
func runOptions(sc *scenario.Scenario) *exec.RunOptions {
	o := &exec.RunOptions{MaxCombos: sc.Run.MaxCombos}
	if sc.Run.Policy == "continue" {
		p := exec.ContinueOnError
		o.Policy = &p
	}
	if r := sc.Run.Retry; r != nil {
		o.Retry = &exec.RetryPolicy{
			MaxAttempts: r.Attempts,
			BaseDelay:   time.Duration(r.BaseMicros) * time.Microsecond,
			Seed:        r.Seed,
		}
	}
	if sc.Run.TimeoutMs > 0 {
		d := time.Duration(sc.Run.TimeoutMs) * time.Millisecond
		o.TaskTimeout = &d
	}
	return o
}

// execute runs a materialized world's flow, or its run.target sub-flow.
func execute(eng *exec.Engine, m *harness.World, opts *exec.RunOptions) (*exec.Result, error) {
	if t := m.Target(); t != 0 {
		return eng.RunNodeOptions(context.Background(), m.Flow(), t, opts)
	}
	return eng.RunFlowOptions(context.Background(), m.Flow(), opts)
}

// outcomeMatches reports whether a local run's error is the one the
// scenario expects.
func outcomeMatches(err error, exp expectation) bool {
	if exp.state == "succeeded" {
		return err == nil
	}
	return err != nil && strings.Contains(err.Error(), exp.errSub)
}
