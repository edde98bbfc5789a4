// Command flowload is the repository's end-to-end benchmark: it drives
// an in-process flowd (service.New behind httptest) over loopback HTTP
// with at most two client connections, checks every outcome, and prints
// every metric by name with its unit and sample count.
//
// Each workload repetition runs in a fresh child process, because flowd
// retains every finished run and a process's heap and GC state would
// otherwise carry from one repetition into the next. A repetition does a
// fixed amount of work; the parent starts repetitions until -seconds
// have passed and reports medians over them. With -trace 1 a separate
// child then times each layer from outside over the same inputs.
//
// Run from the repository root, building first (bench is its own
// module):
//
//	bash bench/run.sh -seed 1993 -out report.json           # all workloads, both passes
//	bash bench/run.sh --workload bigflow --seed 7 --seconds 25 --trace 0
//	bash bench/run.sh -compare A/*.json -- B/*.json
//
// A single-workload run ends with one JSON line: correct, attempted,
// failed and the end-to-end (-trace 0) or per-layer (-trace 1) metrics.
// The exit code is non-zero when any correctness check fails.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// childEnv selects a child role (e2e or layer) in a re-executed copy of
// the benchmark; the parent sets it, users never do.
const childEnv = "FLOWLOAD_CHILD"

func main() {
	if role := os.Getenv(childEnv); role != "" {
		os.Exit(childMain(role, os.Args[1:]))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// options are the parent's flags.
type options struct {
	workloads []string
	seed      int64
	seconds   int
	trace     int // 0: end-to-end only; 1: per-layer; -1: both
	out       string
	scale     float64
	corpus    string
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("flowload", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+"); default all")
	seed := fs.Int64("seed", 1993, "seed every input derives from")
	seconds := fs.Int("seconds", 25, "start repetitions of a workload for this long")
	traceMode := fs.Int("trace", -1, "0: end-to-end metrics; 1: per-layer metrics from a separate traced pass; -1: both")
	out := fs.String("out", "", "write the report as JSON to this file")
	compare := fs.Bool("compare", false, "compare report files: -compare A/*.json -- B/*.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(specFile, fs.Args(), stdout)
	}
	o := options{workloads: workloadNames, seed: *seed, seconds: *seconds, trace: *traceMode,
		out: *out, scale: 1, corpus: defaultCorpus}
	if *workload != "" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(os.Stderr, "flowload: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames, ", "))
			return 2
		}
		o.workloads = []string{*workload}
	}
	if o.trace < -1 || o.trace > 1 {
		fmt.Fprintln(os.Stderr, "flowload: -trace must be 0 or 1")
		return 2
	}
	rep, err := measure(o, stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flowload: %v\n", err)
		return 1
	}
	if o.out != "" {
		if err := writeReport(o.out, rep); err != nil {
			fmt.Fprintf(os.Stderr, "flowload: %v\n", err)
			return 1
		}
	}
	ok := true
	for _, w := range o.workloads {
		ok = ok && rep.Workloads[w].Correct
	}
	if len(o.workloads) == 1 {
		line, err := resultLine(rep.Workloads[o.workloads[0]], o.trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flowload: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "flowload: correctness checks failed")
		return 1
	}
	return 0
}

// measure runs the selected workloads and prints each one's metrics.
func measure(o options, stdout io.Writer) (*report, error) {
	_, sums, err := loadCorpus(o.corpus)
	if err != nil {
		return nil, err
	}
	rep := &report{Seed: o.seed, Seconds: o.seconds, Scale: o.scale, Nproc: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: commit(), Inputs: sums,
		Workloads: map[string]*workloadReport{}}
	fmt.Fprintf(stdout, "flowload: seed %d, %d s per workload, scale %g, nproc %d, %s, commit %s\n",
		o.seed, o.seconds, o.scale, rep.Nproc, rep.GoVersion, rep.Commit)
	for _, w := range o.workloads {
		r, err := measureWorkload(o, w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w, err)
		}
		rep.Workloads[w] = r
		printWorkload(stdout, w, r, o.trace != 1, o.trace != 0)
	}
	return rep, nil
}

// measureWorkload runs the end-to-end pass — fresh-process repetitions
// until the time is up — then, unless -trace 0, the layer pass.
func measureWorkload(o options, workload string) (*workloadReport, error) {
	start := time.Now()
	var reps []repSample
	before := kernel()
	for rep := 0; rep == 0 || time.Since(start) < time.Duration(o.seconds)*time.Second; rep++ {
		var res repResult
		spawned, err := spawn("e2e", o, workload, rep, &res)
		if err != nil {
			return nil, err
		}
		after := kernel()
		reps = append(reps, repSample{res: &res, setup: float64(res.ReadyUnixNano-spawned.UnixNano()) / 1e9,
			speed: speedOf(before, after)})
		before = after
	}
	r := aggregateE2E(workload, reps, time.Since(start))
	if o.trace != 0 {
		var l layerResult
		if _, err := spawn("layer", o, workload, 0, &l); err != nil {
			return nil, err
		}
		addLayers(workload, r, &l)
	}
	return r, nil
}

// spawn runs one child of this binary and decodes its JSON result. It
// returns when the child was started.
func spawn(role string, o options, workload string, rep int, result any) (time.Time, error) {
	exe, err := os.Executable()
	if err != nil {
		return time.Time{}, err
	}
	cmd := osexec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(o.seed),
		"-rep", fmt.Sprint(rep), "-scale", fmt.Sprint(o.scale), "-corpus", o.corpus)
	cmd.Env = append(os.Environ(), childEnv+"="+role)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	started := time.Now()
	if err := cmd.Run(); err != nil {
		return started, fmt.Errorf("%s child (repetition %d): %w", role, rep, err)
	}
	if err := json.Unmarshal(out.Bytes(), result); err != nil {
		return started, fmt.Errorf("%s child (repetition %d): %w", role, rep, err)
	}
	return started, nil
}

// childMain is the entry point of a re-executed child: one end-to-end
// repetition or the layer pass, reported as JSON on stdout.
func childMain(role string, args []string) int {
	fs := flag.NewFlagSet("flowload child", flag.ContinueOnError)
	workload := fs.String("workload", "", "")
	seed := fs.Int64("seed", 0, "")
	rep := fs.Int("rep", 0, "")
	scale := fs.Float64("scale", 1, "")
	corpus := fs.String("corpus", defaultCorpus, "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := repConfig{workload: *workload, seed: *seed, rep: *rep, z: sizesFor(*scale), corpus: *corpus}
	var result any
	var err error
	switch role {
	case "e2e":
		result, err = runRep(cfg)
	case "layer":
		result, err = layerPass(cfg)
	default:
		err = fmt.Errorf("unknown child role %q", role)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "flowload %s %s: %v\n", role, *workload, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(result); err != nil {
		fmt.Fprintf(os.Stderr, "flowload: %v\n", err)
		return 1
	}
	return 0
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}
