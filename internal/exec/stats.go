package exec

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Stats makes one run's schedule observable (the flow automation of
// §3.3, instrumented): where the time went per task type, how busy the
// workers were, the dependency-imposed lower bound on the makespan, and
// how long ready work sat queued. flowbench prints it next to every
// Fig. 6 measurement.
type Stats struct {
	// Workers is the pool size actually used (clamped to the unit count).
	Workers int
	// Jobs counts schedulable constructions; Units counts (job, combo)
	// executions planned; UnitsRun counts those actually executed (fewer
	// than Units when fail-fast stopped the run).
	Jobs, Units, UnitsRun int
	// Elapsed spans the scheduling loop; Busy sums worker execution
	// time; Occupancy is Busy / (Elapsed × Workers).
	Elapsed   time.Duration
	Busy      time.Duration
	Occupancy float64
	// CriticalPath is the longest dependency chain of measured job
	// durations — no schedule on any worker count beats it.
	CriticalPath     time.Duration
	CriticalPathJobs int
	// Fault-tolerance counters. Retries counts extra attempts beyond the
	// first; Timeouts counts attempts cut off by the per-task deadline;
	// UnitsFailed counts units whose final attempt failed; JobsSkipped
	// counts constructions never dispatched because a producer failed
	// (ContinueOnError).
	Retries, Timeouts, UnitsFailed, JobsSkipped int
	// CacheHits counts units satisfied from the derivation-keyed result
	// cache (Engine.SetMemo) without running a tool.
	CacheHits int
	// PerTask aggregates wall time by the job's representative type.
	PerTask map[string]TaskStat
	// QueueWait histograms the delay between a unit becoming ready and a
	// worker picking it up.
	QueueWait WaitHistogram

	started time.Time
}

// TaskStat aggregates the executions of one task type.
type TaskStat struct {
	Runs  int
	Total time.Duration
	Max   time.Duration
}

// WaitHistogram counts ready→dispatch waits in fixed buckets; the last
// bucket is unbounded.
type WaitHistogram struct {
	Bounds []time.Duration
	Counts []int
}

var defaultWaitBounds = []time.Duration{
	100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond,
	100 * time.Millisecond, time.Second,
}

func (h *WaitHistogram) observe(d time.Duration) {
	for i, b := range h.Bounds {
		if d <= b {
			h.Counts[i]++
			return
		}
	}
	h.Counts[len(h.Counts)-1]++
}

func (h WaitHistogram) String() string {
	parts := make([]string, 0, len(h.Counts))
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if i < len(h.Bounds) {
			parts = append(parts, fmt.Sprintf("≤%v:%d", h.Bounds[i], c))
		} else {
			parts = append(parts, fmt.Sprintf(">%v:%d", h.Bounds[len(h.Bounds)-1], c))
		}
	}
	if len(parts) == 0 {
		return "(empty)"
	}
	return strings.Join(parts, " ")
}

func newStats(p *plan) *Stats {
	return &Stats{
		Jobs:    len(p.jobs),
		Units:   p.units,
		PerTask: make(map[string]TaskStat),
		QueueWait: WaitHistogram{
			Bounds: defaultWaitBounds,
			Counts: make([]int, len(defaultWaitBounds)+1),
		},
		started: time.Now(),
	}
}

func (s *Stats) observeUnit(j *plannedJob, wait, dur time.Duration) {
	s.UnitsRun++
	s.Busy += dur
	ts := s.PerTask[j.repType]
	ts.Runs++
	ts.Total += dur
	if dur > ts.Max {
		ts.Max = dur
	}
	s.PerTask[j.repType] = ts
	s.QueueWait.observe(wait)
}

// finish closes the measurement: occupancy from the scheduling span and
// the critical path from measured job durations (a DP over the job
// graph, valid because plan order is topological).
func (s *Stats) finish(p *plan) {
	s.Elapsed = time.Since(s.started)
	if s.Workers > 0 && s.Elapsed > 0 {
		s.Occupancy = float64(s.Busy) / (float64(s.Elapsed) * float64(s.Workers))
	}
	cp := make([]time.Duration, len(p.jobs))
	cpJobs := make([]int, len(p.jobs))
	for i, j := range p.jobs {
		var best time.Duration
		var bestJobs int
		for _, d := range j.deps {
			if cp[d] > best || (cp[d] == best && cpJobs[d] > bestJobs) {
				best, bestJobs = cp[d], cpJobs[d]
			}
		}
		cp[i] = best + j.dur
		cpJobs[i] = bestJobs + 1
		if cp[i] > s.CriticalPath {
			s.CriticalPath = cp[i]
			s.CriticalPathJobs = cpJobs[i]
		}
	}
}

// Summary renders the stats as a short multi-line report for CLIs and
// benches.
func (s *Stats) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workers=%d jobs=%d units=%d/%d\n",
		s.Workers, s.Jobs, s.UnitsRun, s.Units)
	fmt.Fprintf(&b, "elapsed=%v busy=%v occupancy=%.0f%% critical-path=%v (%d jobs)\n",
		s.Elapsed.Round(time.Microsecond), s.Busy.Round(time.Microsecond),
		s.Occupancy*100, s.CriticalPath.Round(time.Microsecond), s.CriticalPathJobs)
	if s.CacheHits != 0 {
		fmt.Fprintf(&b, "memo: cache-hits=%d/%d\n", s.CacheHits, s.Units)
	}
	if s.Retries != 0 || s.Timeouts != 0 || s.UnitsFailed != 0 || s.JobsSkipped != 0 {
		fmt.Fprintf(&b, "faults: retries=%d timeouts=%d failed=%d skipped=%d\n",
			s.Retries, s.Timeouts, s.UnitsFailed, s.JobsSkipped)
	}
	fmt.Fprintf(&b, "queue-wait: %s", s.QueueWait)
	types := make([]string, 0, len(s.PerTask))
	for t := range s.PerTask {
		types = append(types, t)
	}
	sort.Strings(types)
	for _, t := range types {
		ts := s.PerTask[t]
		fmt.Fprintf(&b, "\n  %-20s runs=%-3d total=%-10v max=%v",
			t, ts.Runs, ts.Total.Round(time.Microsecond), ts.Max.Round(time.Microsecond))
	}
	return b.String()
}
