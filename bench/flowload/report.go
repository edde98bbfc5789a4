package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct{ name, unit, better string }

// e2eDefs are the end-to-end metrics every workload reports. An "op" is
// what the workload's measured client does: a submission followed to
// trace EOF, or on history-query a provenance query (client A). The run
// metrics are always submissions (history-query: client B's).
var e2eDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"runs_per_s", "runs/s", "higher"},
	{"units_per_s", "units/s", "higher"},
	{"run_p50_ms", "ms", "lower"},
	{"run_p90_ms", "ms", "lower"},
	{"ops_per_s", "ops/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"heap_mb", "MB", "lower"},
}

// ledgerLayers are the ledger's terms, in print order.
var ledgerLayers = []string{"materialize", "exec", "memo", "tracer", "provenance", "encode", "submit", "storage"}

// layerDefs are the per-layer metrics of the traced pass.
var layerDefs = func() []metricDef {
	defs := []metricDef{
		{"exec.plan_ms", "ms", "lower"},
		{"exec.run_ms", "ms", "lower"},
		{"exec.units_per_s.w1", "units/s", "higher"},
		{"exec.units_per_s.w2", "units/s", "higher"},
		{"exec.units_per_s.w4", "units/s", "higher"},
		{"exec.queue_wait_p50_us", "us", "lower"},
		{"exec.queue_wait_p90_us", "us", "lower"},
		{"exec.occupancy", "ratio", "higher"},
		{"exec.tracer_ms", "ms", "lower"},
		{"exec.samedb_units_per_s", "units/s", "higher"},
		{"memo.overhead_ms", "ms", "lower"},
		{"memo.hit_ratio", "ratio", "higher"},
		{"provenance.index_feed_us", "us", "lower"},
		{"provenance.chain_append_us", "us", "lower"},
		{"provenance.chain_append_file_us", "us", "lower"},
		{"provenance.backchain_us", "us", "lower"},
		{"provenance.forwardchain_us", "us", "lower"},
		{"provenance.chain_verify_ms", "ms", "lower"},
		{"service.query_overhead_us", "us", "lower"},
		{"service.submit_p50_ms", "ms", "lower"},
		{"service.stream_p50_ms", "ms", "lower"},
		{"storage.wal_ms", "ms", "lower"},
		{"storage.wal_bytes_per_unit", "B", "lower"},
		{"storage.wal_syncs", "count", "lower"},
		{"storage.wal_sync_ms", "ms", "lower"},
		{"storage.recover_ms", "ms", "lower"},
		{"storage.replay_units_per_s", "units/s", "higher"},
		{"scenario.decode_us", "us", "lower"},
		{"harness.materialize_ms", "ms", "lower"},
		{"trace.stream_encode_us", "us", "lower"},
		{"trace.fold_us", "us", "lower"},
		{"trace.events_per_unit", "count", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
		{"runtime.gc_cpu_fraction", "ratio", "lower"},
		{"runtime.heap_kb_per_run", "KB", "lower"},
		{"ledger.attributed_ms", "ms", "lower"},
		{"ledger.unattributed_ms", "ms", "lower"},
	}
	for _, l := range append(ledgerLayers, "unattributed") {
		defs = append(defs, metricDef{"ledger." + l + ".share", "ratio", "lower"})
	}
	return defs
}()

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// metricValue is one reported metric with the samples behind it.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// tail is the highest percentile of a latency that still has minBeyond
// samples beyond it. It is reported without a bound.
type tail struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
}

const minBeyond = 10

// workloadReport is one workload's result in the report file.
type workloadReport struct {
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Reps      int      `json:"reps"`
	Seconds   float64  `json:"seconds"`
	// Speed is the median over repetitions of the box's speed relative
	// to the reference (speed.go). Metrics are at the reference speed;
	// Raw holds the same figures as the box delivered them.
	Speed   float64                `json:"speed"`
	Metrics map[string]metricValue `json:"metrics"`
	Raw     map[string]metricValue `json:"raw"`
	Tails   map[string]tail        `json:"tails,omitempty"`
	Layers  map[string]metricValue `json:"layers,omitempty"`
	// Repetitions summarizes every repetition the medians were taken over.
	Repetitions []repSummary `json:"repetitions"`
}

// repSummary is one repetition's own raw figures and the box's speed
// around it.
type repSummary struct {
	Speed     float64 `json:"speed"`
	SetupS    float64 `json:"setup_s"`
	RunsPerS  float64 `json:"runs_per_s"`
	UnitsPerS float64 `json:"units_per_s"`
	RunP50MS  float64 `json:"run_p50_ms"`
	OpsPerS   float64 `json:"ops_per_s"`
	OpP50MS   float64 `json:"op_p50_ms"`
	HeapMB    float64 `json:"heap_mb"`
}

// report is the file -out writes and -compare reads.
type report struct {
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Scale     float64                    `json:"scale"`
	Nproc     int                        `json:"nproc"`
	GoVersion string                     `json:"go"`
	Commit    string                     `json:"commit"`
	Inputs    map[string]string          `json:"inputs"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

// repSample is one repetition as the parent saw it.
type repSample struct {
	res   *repResult
	setup float64 // process start → ready, seconds
	speed float64 // the box's speed around the repetition (speedOf)
}

// e2eMetrics folds a workload's repetitions into its end-to-end
// metrics, each repetition's times multiplied and rates divided by
// scale(rep): per-repetition rates, set-up times and heap as medians
// over repetitions, latencies as percentiles over every sample pooled.
func e2eMetrics(workload string, reps []repSample, scale func(repSample) float64) (map[string]metricValue, map[string]tail) {
	metrics, tails := map[string]metricValue{}, map[string]tail{}
	var setup, runRate, unitRate, opRate, heap, recoverS, diskPerUnit, runMS, opMS []float64
	times := func(dst, src []float64, f float64) []float64 {
		for _, v := range src {
			dst = append(dst, v*f)
		}
		return dst
	}
	for _, s := range reps {
		x, f := s.res, scale(s)
		setup = append(setup, s.setup*f)
		runRate = append(runRate, float64(x.Runs)/x.RunSeconds/f)
		unitRate = append(unitRate, float64(x.Units)/x.RunSeconds/f)
		runMS = times(runMS, x.RunMS, f)
		heap = append(heap, x.HeapMB)
		if workload == historyQuery {
			opRate = append(opRate, float64(x.Queries)/x.QuerySeconds/f)
			opMS = times(opMS, x.QueryMS, f)
		}
		if workload == durable {
			recoverS = append(recoverS, x.RecoverS*f)
			diskPerUnit = append(diskPerUnit, float64(x.DiskBytes)/float64(x.Units))
		}
	}
	if workload != historyQuery {
		opRate, opMS = runRate, runMS
	}
	set := func(name, unit string, v float64, n int) {
		metrics[name] = metricValue{Value: v, Unit: unit, Samples: n}
	}
	setLat := func(prefix string, samples []float64) {
		s := sortedCopy(samples)
		p50, _ := percentile(s, 50)
		p90, _ := percentile(s, 90)
		set(prefix+"_p50_ms", "ms", p50, len(s))
		set(prefix+"_p90_ms", "ms", p90, len(s))
		if p, ok := tailPercentile(len(s), minBeyond); ok && p > 90 {
			v, beyond := percentile(s, p)
			tails[prefix] = tail{Percentile: p, Value: v, Samples: len(s), Beyond: beyond}
		}
	}
	set("setup_s", "s", median(setup), len(reps))
	set("runs_per_s", "runs/s", median(runRate), len(reps))
	set("units_per_s", "units/s", median(unitRate), len(reps))
	setLat("run", runMS)
	set("ops_per_s", "ops/s", median(opRate), len(reps))
	setLat("op", opMS)
	set("heap_mb", "MB", median(heap), len(reps))
	if workload == durable {
		set("recover_s", "s", median(recoverS), len(reps))
		set("disk_bytes_per_unit", "B", median(diskPerUnit), len(reps))
	}
	return metrics, tails
}

// aggregateE2E builds a workload's report from its repetitions: the
// end-to-end metrics at the reference speed and raw, the outcome
// counts, and the layer metrics the end-to-end pass itself yields.
func aggregateE2E(workload string, reps []repSample, elapsed time.Duration) *workloadReport {
	r := &workloadReport{Reps: len(reps), Seconds: elapsed.Seconds(), Layers: map[string]metricValue{}}
	r.Metrics, r.Tails = e2eMetrics(workload, reps, func(s repSample) float64 { return s.speed })
	r.Raw, _ = e2eMetrics(workload, reps, func(repSample) float64 { return 1 })
	var speed, gcCycles, gcFrac, heapPerRun, submitMS, streamMS []float64
	var hits, tasks int
	for _, s := range reps {
		x := s.res
		r.Attempted += x.Attempted
		r.Failed += x.Failed
		for _, f := range x.Failures {
			if len(r.Failures) < maxFailureNotes {
				r.Failures = append(r.Failures, f)
			}
		}
		speed = append(speed, s.speed)
		gcCycles = append(gcCycles, float64(x.GCCycles))
		gcFrac = append(gcFrac, x.GCCPUFraction)
		heapPerRun = append(heapPerRun, x.HeapKBPerRun)
		submitMS = append(submitMS, x.SubmitMS...)
		streamMS = append(streamMS, x.StreamMS...)
		hits += x.CacheHits
		tasks += x.TasksRun
		sum := repSummary{Speed: s.speed, SetupS: s.setup, RunsPerS: float64(x.Runs) / x.RunSeconds,
			UnitsPerS: float64(x.Units) / x.RunSeconds, RunP50MS: median(x.RunMS), HeapMB: x.HeapMB}
		sum.OpsPerS, sum.OpP50MS = sum.RunsPerS, sum.RunP50MS
		if workload == historyQuery {
			sum.OpsPerS, sum.OpP50MS = float64(x.Queries)/x.QuerySeconds, median(x.QueryMS)
		}
		r.Repetitions = append(r.Repetitions, sum)
	}
	r.Speed = median(speed)
	r.Correct = r.Failed == 0
	r.Metrics["failed_frac"] = metricValue{Value: float64(r.Failed) / float64(r.Attempted), Unit: "ratio", Samples: r.Attempted}

	// Layer metrics that come from the end-to-end pass itself, raw.
	layer := func(name string, v float64, n int) {
		r.Layers[name] = metricValue{Value: v, Unit: unitOf(layerDefs, name), Samples: n}
	}
	layer("memo.hit_ratio", float64(hits)/float64(tasks), tasks)
	submit, _ := percentile(sortedCopy(submitMS), 50)
	stream, _ := percentile(sortedCopy(streamMS), 50)
	layer("service.submit_p50_ms", submit, len(submitMS))
	layer("service.stream_p50_ms", stream, len(streamMS))
	layer("runtime.gc_cycles", median(gcCycles), len(reps))
	layer("runtime.gc_cpu_fraction", median(gcFrac), len(reps))
	layer("runtime.heap_kb_per_run", median(heapPerRun), len(reps))
	return r
}

// addLayers merges the layer pass into the report and builds the
// ledger: the isolated layer costs of one submission against the
// end-to-end run_p50_ms.
func addLayers(workload string, r *workloadReport, l *layerResult) {
	r.Attempted += l.Attempted
	r.Failed += l.Failed
	r.Failures = append(r.Failures, l.Failures...)
	r.Correct = r.Failed == 0
	for name, v := range l.Metrics {
		r.Layers[name] = metricValue{Value: v, Unit: unitOf(layerDefs, name), Samples: layerReps}
	}
	// The layer costs are raw, so they are laid against the raw median.
	lg := ledgerFor(workload, r.Raw["run_p50_ms"].Value, r.Layers["service.submit_p50_ms"].Value, l)
	layer := func(name string, v float64) {
		r.Layers[name] = metricValue{Value: v, Unit: unitOf(layerDefs, name)}
	}
	layer("ledger.attributed_ms", ms(lg.attributed))
	layer("ledger.unattributed_ms", ms(lg.unattributed))
	for _, t := range lg.terms {
		layer("ledger."+t.name+".share", lg.share(t.cost))
	}
	layer("ledger.unattributed.share", lg.share(lg.unattributed))
}

// ledgerFor lays one submission's isolated layer costs against the
// median run latency. The provenance term is the per-record index feed
// and chain append (file-backed on durable, as flowd's durable chains
// are) times the records per run; the encode term the per-event trace
// encoding times the events per run; submit is the POST → 201 median
// less the materialization it contains; storage is the WAL's cost,
// which only durable pays.
func ledgerFor(workload string, runP50, submitP50 float64, l *layerResult) ledger {
	m := l.Metrics
	chain := m["provenance.chain_append_us"]
	walMS := 0.0
	if workload == durable {
		chain = m["provenance.chain_append_file_us"]
		walMS = m["storage.wal_ms"]
	}
	terms := []ledgerTerm{
		{"materialize", msDur(m["harness.materialize_ms"])},
		{"exec", msDur(m["exec.run_ms"])},
		{"memo", msDur(m["memo.overhead_ms"])},
		{"tracer", msDur(m["exec.tracer_ms"])},
		{"provenance", msDur((m["provenance.index_feed_us"] + chain) * l.RecordsPerRun / 1000)},
		{"encode", msDur(m["trace.stream_encode_us"] * l.EventsPerRun / 1000)},
		{"submit", msDur(submitP50 - m["harness.materialize_ms"])},
		{"storage", msDur(walMS)},
	}
	return newLedger(msDur(runP50), terms)
}

// printWorkload writes a workload's metrics, one per line, each with
// its unit and sample count.
func printWorkload(w io.Writer, name string, r *workloadReport, withE2E, withLayers bool) {
	fmt.Fprintf(w, "== %s: %d repetitions in %.1f s, each in a fresh process; box speed %.3f of reference ==\n",
		name, r.Reps, r.Seconds, r.Speed)
	line := func(metric string, v metricValue, note string) {
		fmt.Fprintf(w, "  %-34s %14.6g %-8s %s\n", metric, v.Value, v.Unit, note)
	}
	if withE2E {
		names := []string{}
		for _, d := range e2eDefs {
			names = append(names, d.name)
		}
		for _, name := range append(names, "recover_s", "disk_bytes_per_unit") {
			v, ok := r.Metrics[name]
			if !ok {
				continue
			}
			note := fmt.Sprintf("n=%d", v.Samples)
			switch name {
			case "run_p50_ms", "run_p90_ms", "op_p50_ms", "op_p90_ms":
				note += " samples"
			default:
				note += " repetitions (median)"
			}
			line(name, v, fmt.Sprintf("%-28s raw %.6g", note, r.Raw[name].Value))
		}
		for _, k := range []string{"run", "op"} {
			if t, ok := r.Tails[k]; ok {
				line(fmt.Sprintf("%s_p%.4g_ms", k, t.Percentile), metricValue{Value: t.Value, Unit: "ms"},
					fmt.Sprintf("n=%d samples, %d beyond (tail, no bound)", t.Samples, t.Beyond))
			}
		}
		v := r.Metrics["failed_frac"]
		line("failed_frac", v, fmt.Sprintf("%d failed of %d operations", r.Failed, r.Attempted))
	}
	if withLayers && len(r.Layers) > 0 {
		fmt.Fprintf(w, "  -- per layer (layer pass: medians of %d; service.*_p50 and runtime.* from the runs above)\n", layerReps)
		for _, d := range layerDefs {
			if v, ok := r.Layers[d.name]; ok {
				note := fmt.Sprintf("n=%d", v.Samples)
				if v.Samples == 0 {
					note = "derived"
				}
				line(d.name, v, note)
			}
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// resultLine is the last line of a single-workload run: the metrics of
// the requested kind with their units.
func resultLine(r *workloadReport, traceMode int) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	add := func(defs []metricDef, from map[string]metricValue) error {
		for _, d := range defs {
			v, ok := from[d.name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				return fmt.Errorf("metric %s was not measured", d.name)
			}
			metrics[d.name] = value{v.Value, d.unit}
		}
		return nil
	}
	if traceMode != 1 {
		if err := add(e2eDefs, r.Metrics); err != nil {
			return nil, err
		}
	}
	if traceMode != 0 {
		if err := add(layerDefs, r.Layers); err != nil {
			return nil, err
		}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

func writeReport(path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}
