package exec

import (
	"strings"
	"testing"
	"time"

	"repro/internal/history"
)

// Unit tests for the run-statistics layer: Summary rendering, the
// occupancy gauge, the critical-path DP and the queue-wait histogram,
// on hand-built plans (no engine involved).

// statsPlan builds a synthetic plan: jobs[i] has one combo, the given
// type and measured duration, and deps[i] edges (indices must be
// smaller than i so plan order stays topological).
func statsPlan(types []string, durs []time.Duration, deps [][]int) *plan {
	p := &plan{}
	for i, typ := range types {
		j := &plannedJob{idx: i, repType: typ,
			combos: [][]history.ID{{}}, dur: durs[i]}
		if deps != nil {
			j.deps = deps[i]
		}
		p.jobs = append(p.jobs, j)
		p.units++
	}
	return p
}

func TestStatsCriticalPathDiamond(t *testing.T) {
	// A(3ms) and B(7ms) feed C(2ms): the critical path is B→C = 9ms over
	// 2 jobs, regardless of how many workers ran it.
	p := statsPlan(
		[]string{"A", "B", "C"},
		[]time.Duration{3 * time.Millisecond, 7 * time.Millisecond, 2 * time.Millisecond},
		[][]int{nil, nil, {0, 1}})
	s := newStats(Dataflow, p)
	s.Workers = 2
	s.finish(p)
	if want := 9 * time.Millisecond; s.CriticalPath != want {
		t.Errorf("CriticalPath = %v, want %v", s.CriticalPath, want)
	}
	if s.CriticalPathJobs != 2 {
		t.Errorf("CriticalPathJobs = %d, want 2", s.CriticalPathJobs)
	}
}

func TestStatsCriticalPathChainBeatsWideLevel(t *testing.T) {
	// A 3-deep chain of 2ms tasks (6ms) beats one independent 5ms task.
	p := statsPlan(
		[]string{"A", "A", "A", "Z"},
		[]time.Duration{2 * time.Millisecond, 2 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond},
		[][]int{nil, {0}, {1}, nil})
	s := newStats(Dataflow, p)
	s.finish(p)
	if want := 6 * time.Millisecond; s.CriticalPath != want || s.CriticalPathJobs != 3 {
		t.Errorf("critical path = %v over %d jobs, want %v over 3", s.CriticalPath, s.CriticalPathJobs, want)
	}
}

func TestStatsCriticalPathTieBreakPrefersLongerChain(t *testing.T) {
	// Two paths into C measure the same duration; the DP reports the one
	// with more jobs (5ms direct vs 2+3ms through a chain).
	p := statsPlan(
		[]string{"A", "B", "B2", "C"},
		[]time.Duration{5 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, time.Millisecond},
		[][]int{nil, nil, {1}, {0, 2}})
	s := newStats(Dataflow, p)
	s.finish(p)
	if want := 6 * time.Millisecond; s.CriticalPath != want || s.CriticalPathJobs != 3 {
		t.Errorf("critical path = %v over %d jobs, want %v over 3 (tie broken toward the longer chain)",
			s.CriticalPath, s.CriticalPathJobs, want)
	}
}

func TestStatsOccupancy(t *testing.T) {
	p := statsPlan([]string{"A"}, []time.Duration{0}, nil)
	s := newStats(Dataflow, p)
	s.Workers = 2
	s.Busy = 1500 * time.Millisecond
	s.started = time.Now().Add(-time.Second)
	s.finish(p)
	// Elapsed ≈ 1s (time.Since adds scheduling noise), so occupancy ≈
	// 1.5/(1×2) = 0.75, from above.
	if s.Occupancy < 0.70 || s.Occupancy > 0.76 {
		t.Errorf("Occupancy = %v, want ≈0.75", s.Occupancy)
	}
	// Workers unset → gauge stays zero rather than dividing by zero.
	s2 := newStats(Dataflow, p)
	s2.Busy = time.Second
	s2.finish(p)
	if s2.Occupancy != 0 {
		t.Errorf("Occupancy with no workers = %v, want 0", s2.Occupancy)
	}
}

func TestStatsObserveUnitAggregates(t *testing.T) {
	p := statsPlan([]string{"Sim", "Sim"}, []time.Duration{0, 0}, nil)
	s := newStats(Barrier, p)
	s.observeUnit(p.jobs[0], 50*time.Microsecond, 2*time.Millisecond)
	s.observeUnit(p.jobs[1], 5*time.Millisecond, 3*time.Millisecond)
	if s.UnitsRun != 2 || s.Busy != 5*time.Millisecond {
		t.Errorf("UnitsRun=%d Busy=%v, want 2 / 5ms", s.UnitsRun, s.Busy)
	}
	ts := s.PerTask["Sim"]
	if ts.Runs != 2 || ts.Total != 5*time.Millisecond || ts.Max != 3*time.Millisecond {
		t.Errorf("PerTask[Sim] = %+v", ts)
	}
	// 50µs lands in the ≤100µs bucket, 5ms in the ≤10ms bucket.
	if s.QueueWait.Counts[0] != 1 || s.QueueWait.Counts[2] != 1 {
		t.Errorf("QueueWait.Counts = %v", s.QueueWait.Counts)
	}
}

func TestStatsSummaryContents(t *testing.T) {
	p := statsPlan(
		[]string{"Netlist", "Performance"},
		[]time.Duration{time.Millisecond, 2 * time.Millisecond},
		[][]int{nil, {0}})
	s := newStats(Dataflow, p)
	s.Workers = 2
	s.observeUnit(p.jobs[0], 10*time.Microsecond, time.Millisecond)
	s.observeUnit(p.jobs[1], 10*time.Microsecond, 2*time.Millisecond)
	s.finish(p)
	out := s.Summary()
	for _, want := range []string{
		"scheduler=dataflow workers=2 jobs=2 units=2/2",
		"critical-path=3ms (2 jobs)",
		"queue-wait: ≤100µs:2",
		"Netlist", "Performance", "runs=1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Summary missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "faults:") {
		t.Errorf("fault-free summary must omit the faults line:\n%s", out)
	}
	s.Retries, s.Timeouts = 2, 1
	if out := s.Summary(); !strings.Contains(out, "faults: retries=2 timeouts=1 failed=0 skipped=0") {
		t.Errorf("faulted summary missing faults line:\n%s", out)
	}
}

func TestWaitHistogramRendering(t *testing.T) {
	h := WaitHistogram{Bounds: defaultWaitBounds, Counts: make([]int, len(defaultWaitBounds)+1)}
	if got := h.String(); got != "(empty)" {
		t.Errorf("empty histogram renders %q", got)
	}
	h.observe(100 * time.Microsecond) // boundary: inclusive
	h.observe(101 * time.Microsecond) // next bucket
	h.observe(2 * time.Second)        // overflow bucket
	if h.Counts[0] != 1 || h.Counts[1] != 1 || h.Counts[len(h.Counts)-1] != 1 {
		t.Errorf("Counts = %v", h.Counts)
	}
	out := h.String()
	for _, want := range []string{"≤100µs:1", "≤1ms:1", ">1s:1"} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram %q missing %q", out, want)
		}
	}
}
