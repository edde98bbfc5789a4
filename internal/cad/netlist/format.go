package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Text format, one declaration per line, '#' comments:
//
//	netlist <name>
//	in  <net> [<net> ...]
//	out <net> [<net> ...]
//	gate <name> <type> <in> [<in>] -> <out>
//	mos  <name> <nmos|pmos> g=<net> s=<net> d=<net> w=<int> l=<int>

// maxLine is the scanner's maximum token size: the longest line Parse
// accepts, newline included, is maxLine bytes. The buffer starts small
// and grows on demand up to it.
const maxLine = 1 << 20

// Parse reads a netlist from r and validates it.
func Parse(r io.Reader) (*Netlist, error) {
	n := &Netlist{}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("netlist line %d: %s", lineno, fmt.Sprintf(format, args...))
		}
		switch fields[0] {
		case "netlist":
			if len(fields) != 2 {
				return nil, fail("netlist wants exactly one name")
			}
			n.Name = fields[1]
		case "in", "out":
			dir := In
			if fields[0] == "out" {
				dir = Out
			}
			if len(fields) < 2 {
				return nil, fail("%s wants at least one net", fields[0])
			}
			for _, f := range fields[1:] {
				n.AddPort(f, dir)
			}
		case "gate":
			g, err := parseGate(fields[1:])
			if err != nil {
				return nil, fail("%v", err)
			}
			n.Gates = append(n.Gates, g)
		case "mos":
			m, err := parseMOS(fields[1:])
			if err != nil {
				return nil, fail("%v", err)
			}
			n.Devices = append(n.Devices, m)
		default:
			return nil, fail("unknown keyword %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("netlist: %w", err)
	}
	if n.Name == "" {
		return nil, fmt.Errorf("netlist: missing 'netlist <name>' header")
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

// ParseString is Parse over a string.
func ParseString(src string) (*Netlist, error) {
	return Parse(strings.NewReader(src))
}

// MustParseString is ParseString but panics on error; for fixtures.
func MustParseString(src string) *Netlist {
	n, err := ParseString(src)
	if err != nil {
		panic(err)
	}
	return n
}

func parseGate(fields []string) (Gate, error) {
	// <name> <type> <in> [<in>] -> <out>
	if len(fields) < 5 {
		return Gate{}, fmt.Errorf("gate wants: name type in... -> out")
	}
	arrow := -1
	for i, f := range fields {
		if f == "->" {
			arrow = i
		}
	}
	if arrow != len(fields)-2 || arrow < 3 {
		return Gate{}, fmt.Errorf("gate wants: name type in... -> out")
	}
	g := Gate{Name: fields[0], Type: GateType(fields[1]), Output: fields[len(fields)-1]}
	g.Inputs = append(g.Inputs, fields[2:arrow]...)
	return g, nil
}

func parseMOS(fields []string) (MOS, error) {
	if len(fields) != 7 {
		return MOS{}, fmt.Errorf("mos wants: name type g= s= d= w= l=")
	}
	m := MOS{Name: fields[0]}
	switch fields[1] {
	case "nmos":
		m.Type = NMOS
	case "pmos":
		m.Type = PMOS
	default:
		return MOS{}, fmt.Errorf("mos %s: unknown type %q", m.Name, fields[1])
	}
	for _, f := range fields[2:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return MOS{}, fmt.Errorf("mos %s: bad attribute %q", m.Name, f)
		}
		switch k {
		case "g":
			m.Gate = v
		case "s":
			m.Source = v
		case "d":
			m.Drain = v
		case "w", "l":
			x, err := strconv.Atoi(v)
			if err != nil {
				return MOS{}, fmt.Errorf("mos %s: bad %s=%q", m.Name, k, v)
			}
			if k == "w" {
				m.W = x
			} else {
				m.L = x
			}
		default:
			return MOS{}, fmt.Errorf("mos %s: unknown attribute %q", m.Name, k)
		}
	}
	return m, nil
}

// Format renders the netlist in the text format; Parse(Format(n))
// reproduces n.
func Format(n *Netlist) string {
	var b strings.Builder
	fmt.Fprintf(&b, "netlist %s\n", n.Name)
	if ins := n.Inputs(); len(ins) > 0 {
		fmt.Fprintf(&b, "in %s\n", strings.Join(ins, " "))
	}
	if outs := n.Outputs(); len(outs) > 0 {
		fmt.Fprintf(&b, "out %s\n", strings.Join(outs, " "))
	}
	for _, g := range n.Gates {
		fmt.Fprintf(&b, "gate %s %s %s -> %s\n", g.Name, g.Type, strings.Join(g.Inputs, " "), g.Output)
	}
	for _, m := range n.Devices {
		fmt.Fprintf(&b, "mos %s %s g=%s s=%s d=%s w=%d l=%d\n",
			m.Name, m.Type, m.Gate, m.Source, m.Drain, m.W, m.L)
	}
	return b.String()
}

// Write writes the formatted netlist to w.
func Write(w io.Writer, n *Netlist) error {
	_, err := io.WriteString(w, Format(n))
	return err
}
