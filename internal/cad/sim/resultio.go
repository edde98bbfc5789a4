package sim

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Serialization of simulation results, so a Performance entity can live
// in the datastore like any other design artifact and be consumed by
// downstream tools (the Plotter).
//
// Format:
//
//	performance <circuit> <stimuli> <library>
//	critpath <ps>
//	events <n>
//	toggles <n>
//	end <ps>
//	sample <i> <out>=<0|1|x> ...
//	wave <net> <t>:<v> ...

// FormatResult renders a result.
func FormatResult(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "performance %s %s %s\n", r.Circuit, r.Stimuli, r.Library)
	fmt.Fprintf(&b, "critpath %d\n", r.CriticalPathPS)
	fmt.Fprintf(&b, "events %d\n", r.Events)
	fmt.Fprintf(&b, "toggles %d\n", r.Toggles)
	fmt.Fprintf(&b, "end %d\n", r.EndTimePS)
	for i, s := range r.Samples {
		keys := make([]string, 0, len(s))
		for k := range s {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "sample %d", i)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%s", k, s[k])
		}
		fmt.Fprintln(&b)
	}
	for _, n := range r.NetNames() {
		fmt.Fprintf(&b, "wave %s", n)
		for _, tr := range r.Waveforms[n] {
			fmt.Fprintf(&b, " %d:%s", tr.TimePS, tr.Val)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// maxLine is the scanner's maximum token size: the longest line
// ParseResult accepts, newline included, is maxLine bytes (a waveform
// is one line). The buffer starts small and grows on demand up to it.
const maxLine = 16 << 20

// ParseResult reads a result back.
func ParseResult(r io.Reader) (*Result, error) {
	res := &Result{Waveforms: make(map[string]Waveform)}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	lineno := 0
	parseVal := func(s string) (Value, error) {
		switch s {
		case "0":
			return L, nil
		case "1":
			return H, nil
		case "x":
			return X, nil
		}
		return X, fmt.Errorf("bad value %q", s)
	}
	seenHeader := false
	for sc.Scan() {
		lineno++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("performance line %d: %s", lineno, fmt.Sprintf(format, args...))
		}
		switch fields[0] {
		case "performance":
			if len(fields) != 4 {
				return nil, fail("header wants circuit, stimuli, library")
			}
			res.Circuit, res.Stimuli, res.Library = fields[1], fields[2], fields[3]
			seenHeader = true
		case "critpath", "events", "toggles", "end":
			if len(fields) != 2 {
				return nil, fail("%s wants one value", fields[0])
			}
			x, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fail("bad %s %q", fields[0], fields[1])
			}
			switch fields[0] {
			case "critpath":
				res.CriticalPathPS = x
			case "events":
				res.Events = x
			case "toggles":
				res.Toggles = x
			case "end":
				res.EndTimePS = x
			}
		case "sample":
			if len(fields) < 2 {
				return nil, fail("sample wants an index")
			}
			s := make(map[string]Value)
			for _, f := range fields[2:] {
				k, v, ok := strings.Cut(f, "=")
				if !ok {
					return nil, fail("bad sample entry %q", f)
				}
				val, err := parseVal(v)
				if err != nil {
					return nil, fail("%v", err)
				}
				s[k] = val
			}
			res.Samples = append(res.Samples, s)
		case "wave":
			if len(fields) < 2 {
				return nil, fail("wave wants a net name")
			}
			var w Waveform
			for _, f := range fields[2:] {
				ts, vs, ok := strings.Cut(f, ":")
				if !ok {
					return nil, fail("bad transition %q", f)
				}
				t, err := strconv.Atoi(ts)
				if err != nil {
					return nil, fail("bad time %q", ts)
				}
				v, err := parseVal(vs)
				if err != nil {
					return nil, fail("%v", err)
				}
				w = append(w, Transition{TimePS: t, Val: v})
			}
			res.Waveforms[fields[1]] = w
		default:
			return nil, fail("unknown keyword %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !seenHeader {
		return nil, fmt.Errorf("performance: missing header")
	}
	return res, nil
}

// ParseResultString is ParseResult over a string.
func ParseResultString(src string) (*Result, error) {
	return ParseResult(strings.NewReader(src))
}
