package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
)

// specFile is the benchmark definition, relative to the repository root.
const specFile = "BENCHMARK.json"

// benchSpec is BENCHMARK.json: the compare mode takes its bounds from
// it and from nowhere else.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runCompare prints, for every (metric, workload), each side's median
// and quartiles and — for the bounded end-to-end metrics — a verdict.
// It exits 0 only when every bounded pair agrees and every run of both
// sides passed its correctness checks.
func runCompare(specPath string, args []string, w io.Writer) int {
	var aPaths, bPaths []string
	for i, a := range args {
		if a == "--" {
			aPaths, bPaths = args[:i], args[i+1:]
			break
		}
	}
	if len(aPaths) == 0 || len(bPaths) == 0 {
		fmt.Fprintln(os.Stderr, "flowload: usage: -compare A/*.json -- B/*.json")
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flowload: %v\n", err)
		return 2
	}
	load := func(paths []string) ([]*report, error) {
		var out []*report
		for _, p := range paths {
			r, err := readReport(p)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}
	as, err := load(aPaths)
	if err == nil {
		var bs []*report
		if bs, err = load(bPaths); err == nil {
			return compareReports(spec, as, bs, w)
		}
	}
	fmt.Fprintf(os.Stderr, "flowload: %v\n", err)
	return 2
}

func compareReports(spec *benchSpec, as, bs []*report, w io.Writer) int {
	ok := true
	all := append(append([]*report(nil), as...), bs...)
	for _, r := range all[1:] {
		if !maps.Equal(all[0].Inputs, r.Inputs) {
			fmt.Fprintln(w, "inputs differ between report files: the pinned corpus changed")
			ok = false
			break
		}
	}
	fmt.Fprintf(w, "A: %d reports, B: %d reports; spread = (q3-q1)/median; change = B vs A, positive is worse\n", len(as), len(bs))
	fmt.Fprintf(w, "%-14s %-32s %12s %22s %12s %22s %8s %7s  %s\n",
		"workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "change", "bound", "verdict")
	values := func(rs []*report, wl, name string, layer bool) []float64 {
		var out []float64
		for _, r := range rs {
			x, found := r.Workloads[wl]
			if !found {
				continue
			}
			m := x.Metrics
			if layer {
				m = x.Layers
			}
			if v, found := m[name]; found {
				out = append(out, v.Value)
			}
		}
		return out
	}
	row := func(wl, name string, a, b []float64, higher bool, bound string, verdict string) {
		qa1, ma, qa3 := quartiles(a)
		qb1, mb, qb3 := quartiles(b)
		change := (mb - ma) / ma * 100
		if higher {
			change = -change
		}
		fmt.Fprintf(w, "%-14s %-32s %12.5g %10.4g..%-10.4g %12.5g %10.4g..%-10.4g %+7.2f%% %7s  %s\n",
			wl, name, ma, qa1, qa3, mb, qb1, qb3, change, bound, verdict)
	}
	for _, wl := range workloadNames {
		present := false
		for _, r := range all {
			if x, found := r.Workloads[wl]; found {
				present = true
				if !x.Correct || x.Failed > 0 {
					fmt.Fprintf(w, "%-14s a run failed its correctness checks (%d of %d operations)\n", wl, x.Failed, x.Attempted)
					ok = false
				}
			}
		}
		if !present {
			continue
		}
		for _, m := range spec.EndToEnd {
			a, b := values(as, wl, m.Name, false), values(bs, wl, m.Name, false)
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(w, "%-14s %-32s missing from a side\n", wl, m.Name)
				ok = false
				continue
			}
			v := judge(a, b, m.Better == "higher", m.Bound)
			ok = ok && v == agree
			row(wl, m.Name, a, b, m.Better == "higher", fmt.Sprintf("%.0f%%", m.Bound*100), v)
		}
		for _, name := range []string{"recover_s", "disk_bytes_per_unit"} { // durable's restart
			a, b := values(as, wl, name, false), values(bs, wl, name, false)
			if len(a) > 0 && len(b) > 0 {
				row(wl, name, a, b, false, "-", "(no bound)")
			}
		}
		for _, m := range spec.PerLayer {
			a, b := values(as, wl, m.Name, true), values(bs, wl, m.Name, true)
			if len(a) > 0 && len(b) > 0 {
				row(wl, m.Name, a, b, m.Better == "higher", "-", "(no bound)")
			}
		}
	}
	if !ok {
		return 1
	}
	return 0
}
