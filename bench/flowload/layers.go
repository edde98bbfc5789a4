package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datastore"
	"repro/internal/exec"
	"repro/internal/flowgen"
	"repro/internal/harness"
	"repro/internal/memo"
	"repro/internal/provenance"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/trace"
)

// The layer pass times each layer from outside, through its public
// functions, over the workload's own inputs: bigflow and durable one of
// their generated worlds, corpus-mix every pinned scenario, history-query
// one of client B's worlds (and, for the query layers, its chain world).
// Costs are per submission, averaged over the subjects, each the median
// of layerReps repetitions.

// layerResult is what the layer pass reports to the parent.
type layerResult struct {
	Metrics map[string]float64 `json:"metrics"`
	// Per-submission counts the ledger multiplies per-record and
	// per-event costs by.
	RecordsPerRun float64  `json:"records_per_run"`
	EventsPerRun  float64  `json:"events_per_run"`
	Attempted     int      `json:"attempted"`
	Failed        int      `json:"failed"`
	Failures      []string `json:"failures,omitempty"`
}

func (r *layerResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxFailureNotes {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// subjectCost is one subject's isolated layer costs.
type subjectCost struct {
	decode, materialize, plan          time.Duration
	bare, w1, w2, traced, memo, wal    time.Duration
	index, chainMem, chainFile, verify time.Duration
	encode, fold, recover              time.Duration
	units, records, events, replayed   int
	walBytes, walSyncs                 int64
	walSync                            time.Duration
	waitsUS                            []float64
	busyUS, capacityUS                 float64 // RunFinished busy and elapsed × workers
}

func layerPass(cfg repConfig) (*layerResult, error) {
	var subjects, queryWorlds []input
	switch cfg.workload {
	case bigflow, durable:
		subjects = bigflowInputs(cfg.seed, 0, cfg.z)[:1]
		queryWorlds = subjects
	case corpusMix:
		var err error
		if subjects, _, err = loadCorpus(cfg.corpus); err != nil {
			return nil, err
		}
		queryWorlds = subjects
	case historyQuery:
		subjects = []input{writerInput(cfg.seed, 0, 0, cfg.z)}
		queryWorlds = []input{historyWorld(cfg.seed, 0, cfg.z)}
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	tmp, err := os.MkdirTemp("", "flowload-layers-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	costs := make([]*subjectCost, len(subjects))
	for i := range subjects {
		if costs[i], err = measureSubject(&subjects[i], tmp); err != nil {
			return nil, fmt.Errorf("layer pass over %s: %w", subjects[i].name, err)
		}
	}
	out := &layerResult{Metrics: summarize(costs)}
	n := float64(len(costs))
	for _, c := range costs {
		out.RecordsPerRun += float64(c.records) / n
		out.EventsPerRun += float64(c.events) / n
	}
	if err := queryProbe(cfg, queryWorlds, out); err != nil {
		return nil, err
	}
	if out.Metrics["exec.samedb_units_per_s"], err = sameDB(cfg); err != nil {
		return nil, err
	}
	return out, nil
}

// medianOf runs f layerReps times and returns the median duration.
func medianOf(f func() (time.Duration, error)) (time.Duration, error) {
	ds := make([]float64, layerReps)
	for i := range ds {
		d, err := f()
		if err != nil {
			return 0, err
		}
		ds[i] = float64(d)
	}
	return time.Duration(median(ds)), nil
}

// timedRun materializes a fresh world and times one execution of it on
// an engine with the given workers and options. The caller closes the
// returned world.
func timedRun(in *input, workers int, set func(*exec.RunOptions)) (time.Duration, *harness.World, error) {
	m, err := harness.Materialize(in.sc, nil)
	if err != nil {
		return 0, nil, err
	}
	eng := exec.New(m.Schema(), m.DB(), m.Store(), m.Registry())
	eng.SetWorkers(workers)
	opts := runOptions(in.sc)
	if set != nil {
		set(opts)
	}
	runtime.GC() // no collection debt carried in from the previous repetition
	t0 := time.Now()
	_, err = execute(eng, m, opts)
	d := time.Since(t0)
	if cerr := eng.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if !outcomeMatches(err, in.exp) {
		m.Close()
		return 0, nil, fmt.Errorf("run outcome %v, want %s", err, in.exp.state)
	}
	return d, m, nil
}

// runMedian is medianOf over timedRun; keep, when non-nil, receives each
// repetition's world and owns it from then on.
func runMedian(in *input, workers int, set func(*exec.RunOptions), keep func(*harness.World)) (time.Duration, error) {
	return medianOf(func() (time.Duration, error) {
		d, m, err := timedRun(in, workers, set)
		if err != nil {
			return 0, err
		}
		if keep != nil {
			keep(m)
		} else {
			m.Close()
		}
		return d, nil
	})
}

// countingLog counts what a run's WAL writes and how long its syncs take.
type countingLog struct {
	*storage.FileLog
	bytes, syncs, syncNanos atomic.Int64
}

func (l *countingLog) Append(rec []byte) error {
	l.bytes.Add(int64(len(rec)))
	return l.FileLog.Append(rec)
}

func (l *countingLog) Sync() error {
	t0 := time.Now()
	err := l.FileLog.Sync()
	l.syncNanos.Add(int64(time.Since(t0)))
	l.syncs.Add(1)
	return err
}

func measureSubject(in *input, tmp string) (*subjectCost, error) {
	c := &subjectCost{}
	var err error
	if c.decode, err = medianOf(func() (time.Duration, error) {
		t0 := time.Now()
		_, err := scenario.Decode(in.raw)
		return time.Since(t0), err
	}); err != nil {
		return nil, err
	}
	if c.materialize, err = medianOf(func() (time.Duration, error) {
		t0 := time.Now()
		m, err := harness.Materialize(in.sc, nil)
		d := time.Since(t0)
		if err == nil {
			m.Close()
		}
		return d, err
	}); err != nil {
		return nil, err
	}
	if c.plan, err = medianOf(func() (time.Duration, error) {
		m, err := harness.Materialize(in.sc, nil)
		if err != nil {
			return 0, err
		}
		defer m.Close()
		eng := exec.New(m.Schema(), m.DB(), m.Store(), m.Registry())
		defer eng.Close()
		t0 := time.Now()
		_, _, err = eng.DryPlan(m.Flow())
		d := time.Since(t0)
		if err != nil && in.exp.state == "succeeded" {
			return 0, err // a plan error is an outcome only a failing scenario may have
		}
		return d, nil
	}); err != nil {
		return nil, err
	}

	// Bare execution: no memo, tracer, WAL or observers. The last world
	// stays open for the provenance backfills below.
	var last *harness.World
	keepLast := func(m *harness.World) {
		if last != nil {
			last.Close()
		}
		last = m
	}
	if c.bare, err = runMedian(in, 4, nil, keepLast); err != nil {
		return nil, err
	}
	defer last.Close()
	if c.w1, err = runMedian(in, 1, nil, nil); err != nil {
		return nil, err
	}
	if c.w2, err = runMedian(in, 2, nil, nil); err != nil {
		return nil, err
	}
	if c.memo, err = runMedian(in, 4, func(o *exec.RunOptions) { o.Memo = memo.New(0) }, nil); err != nil {
		return nil, err
	}
	var buf *trace.Buffer
	if c.traced, err = runMedian(in, 4, func(o *exec.RunOptions) {
		buf = trace.NewBuffer()
		o.Tracer = buf
	}, nil); err != nil {
		return nil, err
	}
	events := buf.Events()
	c.events = len(events)
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindUnitDispatched:
			c.waitsUS = append(c.waitsUS, float64(ev.WaitMicros))
		case trace.KindRunFinished:
			c.units = ev.Committed
			c.busyUS = float64(ev.BusyMicros)
			c.capacityUS = float64(ev.ElapsedMicros) * float64(ev.Workers)
		}
	}
	if c.encode, err = medianOf(func() (time.Duration, error) {
		enc := json.NewEncoder(io.Discard) // flowd's trace handler loop, without the flush
		t0 := time.Now()
		for _, ev := range events {
			if err := enc.Encode(trace.Mask(ev)); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}); err != nil {
		return nil, err
	}
	if c.fold, err = medianOf(func() (time.Duration, error) {
		m := trace.NewMetrics()
		t0 := time.Now()
		for _, ev := range events {
			m.Emit(ev)
		}
		return time.Since(t0), nil
	}); err != nil {
		return nil, err
	}

	if err := measureWAL(in, tmp, c); err != nil {
		return nil, err
	}
	if err := measureProvenance(last, tmp, c); err != nil {
		return nil, err
	}
	return c, nil
}

// measureWAL times runs with a file-backed WAL under a counting log,
// then recovery and replay of the last run's log.
func measureWAL(in *input, tmp string, c *subjectCost) error {
	path := filepath.Join(tmp, "run.wal")
	var err error
	if c.wal, err = medianOf(func() (time.Duration, error) {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return 0, err
		}
		fl, err := storage.OpenFile(path)
		if err != nil {
			return 0, err
		}
		defer fl.Close()
		cl := &countingLog{FileLog: fl}
		w := storage.NewRunWAL(cl)
		if err := w.AppendMeta(storage.RunMeta{ID: "layer", Flow: "scenario:" + in.name, User: "flowload"}); err != nil {
			w.Close()
			return 0, err
		}
		cl.bytes.Store(0)
		cl.syncs.Store(0)
		cl.syncNanos.Store(0)
		d, m, err := timedRun(in, 4, func(o *exec.RunOptions) { o.WAL = w })
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, err
		}
		m.Close()
		c.walBytes, c.walSyncs, c.walSync = cl.bytes.Load(), cl.syncs.Load(), time.Duration(cl.syncNanos.Load())
		return d, nil
	}); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	c.recover, err = medianOf(func() (time.Duration, error) {
		t0 := time.Now()
		l, err := storage.OpenFile(path)
		if err != nil {
			return 0, err
		}
		defer l.Close()
		rc, err := storage.RecoverRun(l)
		if err != nil {
			return 0, err
		}
		if err := rc.Replay(datastore.NewStore(), memo.New(0)); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		if !rc.Finished && in.exp.state == "succeeded" {
			return 0, fmt.Errorf("recovered log of a finished run has no RunFinished")
		}
		c.replayed = len(rc.Commits)
		return d, nil
	})
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	return nil
}

// measureProvenance times the commit observers as a DB.Observe backfill
// over a finished world: the index feed, the hash chain over memory and
// over a file, and verification of the whole chain.
func measureProvenance(m *harness.World, tmp string, c *subjectCost) error {
	db := m.DB()
	c.records = db.Len()
	var err error
	if c.index, err = medianOf(func() (time.Duration, error) {
		idx := provenance.NewIndex()
		t0 := time.Now()
		db.Observe(idx)
		return time.Since(t0), nil
	}); err != nil {
		return err
	}
	var chain *provenance.Chain
	if c.chainMem, err = medianOf(func() (time.Duration, error) {
		chain = provenance.NewChain(storage.NewMemLog())
		t0 := time.Now()
		db.Observe(chain)
		err := chain.Sync()
		return time.Since(t0), err
	}); err != nil {
		return err
	}
	if c.verify, err = medianOf(func() (time.Duration, error) {
		t0 := time.Now()
		err := chain.Verify()
		return time.Since(t0), err
	}); err != nil {
		return err
	}
	path := filepath.Join(tmp, "run.chain")
	if c.chainFile, err = medianOf(func() (time.Duration, error) {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return 0, err
		}
		fl, err := storage.OpenFile(path)
		if err != nil {
			return 0, err
		}
		ch := provenance.NewChain(fl)
		t0 := time.Now()
		db.Observe(ch)
		err = ch.Sync() // flowd syncs a run's chain once, when the run ends
		d := time.Since(t0)
		if cerr := ch.Close(); err == nil {
			err = cerr
		}
		return d, err
	}); err != nil {
		return fmt.Errorf("chain file: %w", err)
	}
	return nil
}

// summarize folds the subjects' costs into per-submission layer metrics:
// times averaged over the subjects, rates and per-item costs as totals
// over totals.
func summarize(costs []*subjectCost) map[string]float64 {
	n := float64(len(costs))
	mean := func(f func(*subjectCost) time.Duration) float64 {
		var sum time.Duration
		for _, c := range costs {
			sum += f(c)
		}
		return ms(sum) / n
	}
	var (
		units, records, events, replayed            float64
		w1, w2, w4, index, chainMem, chainFile, rec time.Duration
		encode, fold, verify                        time.Duration
		walBytes, walSyncs, busy, capacity          float64
		waits                                       []float64
	)
	for _, c := range costs {
		units += float64(c.units)
		records += float64(c.records)
		events += float64(c.events)
		replayed += float64(c.replayed)
		w1, w2, w4 = w1+c.w1, w2+c.w2, w4+c.bare
		index, chainMem, chainFile = index+c.index, chainMem+c.chainMem, chainFile+c.chainFile
		rec, encode, fold, verify = rec+c.recover, encode+c.encode, fold+c.fold, verify+c.verify
		walBytes += float64(c.walBytes)
		walSyncs += float64(c.walSyncs)
		busy += c.busyUS
		capacity += c.capacityUS
		waits = append(waits, c.waitsUS...)
	}
	perSec := func(count float64, d time.Duration) float64 { return count / d.Seconds() }
	perUS := func(d time.Duration, count float64) float64 {
		return float64(d) / float64(time.Microsecond) / count
	}
	sort.Float64s(waits)
	waitP50, _ := percentile(waits, 50)
	waitP90, _ := percentile(waits, 90)
	return map[string]float64{
		"scenario.decode_us":              mean(func(c *subjectCost) time.Duration { return c.decode }) * 1000,
		"harness.materialize_ms":          mean(func(c *subjectCost) time.Duration { return c.materialize }),
		"exec.plan_ms":                    mean(func(c *subjectCost) time.Duration { return c.plan }),
		"exec.run_ms":                     mean(func(c *subjectCost) time.Duration { return c.bare }),
		"exec.units_per_s.w1":             perSec(units, w1),
		"exec.units_per_s.w2":             perSec(units, w2),
		"exec.units_per_s.w4":             perSec(units, w4),
		"exec.queue_wait_p50_us":          waitP50,
		"exec.queue_wait_p90_us":          waitP90,
		"exec.occupancy":                  busy / capacity,
		"exec.tracer_ms":                  mean(func(c *subjectCost) time.Duration { return c.traced - c.bare }),
		"memo.overhead_ms":                mean(func(c *subjectCost) time.Duration { return c.memo - c.bare }),
		"provenance.index_feed_us":        perUS(index, records),
		"provenance.chain_append_us":      perUS(chainMem, records),
		"provenance.chain_append_file_us": perUS(chainFile, records),
		"provenance.chain_verify_ms":      ms(verify),
		"storage.wal_ms":                  mean(func(c *subjectCost) time.Duration { return c.wal - c.bare }),
		"storage.wal_bytes_per_unit":      walBytes / units,
		"storage.wal_syncs":               walSyncs / n,
		"storage.wal_sync_ms":             mean(func(c *subjectCost) time.Duration { return c.walSync }),
		"storage.recover_ms":              mean(func(c *subjectCost) time.Duration { return c.recover }),
		"storage.replay_units_per_s":      perSec(replayed, rec),
		"trace.stream_encode_us":          perUS(encode, events),
		"trace.fold_us":                   perUS(fold, events),
		"trace.events_per_unit":           events / units,
	}
}

// queryProbe submits the query worlds to a fresh in-process flowd and
// sends each drawn query both over HTTP and straight to a local oracle's
// index, checking that the answers agree. The direct times are the
// index's own cost; the HTTP median minus the direct median is what the
// service adds per query.
func queryProbe(cfg repConfig, worlds []input, out *layerResult) error {
	srv, err := service.New(service.Config{})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Shutdown(time.Minute)
	}()
	tr := newTransport()
	defer tr.CloseIdleConnections()
	c := newClient(ts.URL, tr)

	type target struct {
		run   string
		o     *oracle
		draws []query
	}
	var targets []target
	for i := range worlds {
		w := &worlds[i]
		out.Attempted++
		hq, _, err := prime(c, w)
		if err != nil {
			if w.exp.state == "failed" {
				continue // a world that must fail may commit nothing to query
			}
			out.fail("probe submission %s: %v", w.name, err)
			continue
		}
		o, err := buildOracle(w)
		if err != nil {
			return err
		}
		if !slices.Equal(o.committed, hq.committed) {
			out.fail("probe submission %s: flowd committed %d instances, the local run %d",
				w.name, len(hq.committed), len(o.committed))
			continue
		}
		targets = append(targets, target{run: hq.id, o: o})
	}
	if len(targets) == 0 {
		return fmt.Errorf("query probe: no world committed anything")
	}
	// Each target gets its share of the queries; a single target draws
	// exactly the first queries of the e2e pass's first repetition.
	rng := rand.New(rand.NewSource(cfg.seed * 1000))
	per := (cfg.z.probeQueries + len(targets) - 1) / len(targets)
	var back, fwd, all, viaHTTP []float64
	for _, t := range targets {
		for _, q := range drawQueries(rng, t.o.committed, per) {
			out.Attempted++
			t0 := time.Now()
			want, err := t.o.query(q)
			direct := float64(time.Since(t0)) / float64(time.Microsecond)
			if err != nil {
				return err
			}
			t0 = time.Now()
			body, err := c.provenance(t.run, q)
			lat := float64(time.Since(t0)) / float64(time.Microsecond)
			if err != nil {
				out.fail("probe query %v: %v", q, err)
				continue
			}
			got, err := provenanceNodes(body)
			if err != nil || !slices.Equal(got, want) {
				out.fail("probe query %v: flowd's %d nodes differ from the index's %d", q, len(got), len(want))
				continue
			}
			if q.dir == "back" {
				back = append(back, direct)
			} else {
				fwd = append(fwd, direct)
			}
			all = append(all, direct)
			viaHTTP = append(viaHTTP, lat)
		}
	}
	out.Metrics["provenance.backchain_us"] = median(back)
	out.Metrics["provenance.forwardchain_us"] = median(fwd)
	out.Metrics["service.query_overhead_us"] = median(viaHTTP) - median(all)
	return nil
}

// sameDB runs samedbRuns concurrent copies of one small layered flow
// over a single history database — the engine point where runs sharing
// a DB serialize on its commit lock — and returns units per second.
func sameDB(cfg repConfig) (float64, error) {
	z := cfg.z
	var units int64
	d, err := medianOf(func() (time.Duration, error) {
		b, err := flowgen.Build(flowgen.Spec{Cells: z.samedbCells, Shape: flowgen.Layered, Seed: cfg.seed})
		if err != nil {
			return 0, err
		}
		eng := exec.New(b.Schema, b.DB, b.Store, b.Reg)
		defer eng.Close()
		eng.SetWorkers(4)
		var wg sync.WaitGroup
		var done atomic.Int64
		errs := make(chan error, z.samedbRuns)
		runtime.GC()
		t0 := time.Now()
		for i := 0; i < z.samedbRuns; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := eng.RunFlow(b.Flow)
				if err != nil {
					errs <- err
					return
				}
				done.Add(int64(res.TasksRun))
			}()
		}
		wg.Wait()
		d := time.Since(t0)
		close(errs)
		if err := <-errs; err != nil {
			return 0, err
		}
		if want := int64(z.samedbRuns * z.samedbCells); done.Load() != want {
			return 0, fmt.Errorf("same-DB runs committed %d tasks, want %d", done.Load(), want)
		}
		units = done.Load()
		return d, nil
	})
	if err != nil {
		return 0, fmt.Errorf("same-DB runs: %w", err)
	}
	return float64(units) / d.Seconds(), nil
}
