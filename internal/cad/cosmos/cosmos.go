// Package cosmos implements a compiled logic simulator in the style of
// COSMOS (Bryant et al., DAC 1987), the paper's example of a tool that is
// *created during the design process* (Fig. 2): a simulator compiler
// takes a netlist and produces a dedicated simulator for that netlist,
// which is then executed on different stimuli.
//
// Compilation levelizes the gate network into a straight-line program
// over value slots; running a vector is a single pass over the program
// with no event queue. The compiled program has a text form, so the
// generated tool is itself a design artifact: it can be stored in the
// datastore, recorded in the history database, and bound to flow nodes
// exactly like any other tool instance — which is the paper's point.
package cosmos

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/cad/netlist"
	"repro/internal/cad/sim"
)

// opcode is the operation of one program step.
type opcode uint8

const (
	opConst0 opcode = iota
	opConst1
	opNot
	opBuf
	opNand
	opNor
	opAnd
	opOr
	opXor
	opXnor
)

var opNames = map[opcode]string{
	opConst0: "const0", opConst1: "const1", opNot: "not", opBuf: "buf",
	opNand: "nand", opNor: "nor", opAnd: "and", opOr: "or", opXor: "xor", opXnor: "xnor",
}

var opByName = func() map[string]opcode {
	m := make(map[string]opcode, len(opNames))
	for k, v := range opNames {
		m[v] = k
	}
	return m
}()

var opForGate = map[netlist.GateType]opcode{
	netlist.INV: opNot, netlist.BUF: opBuf, netlist.NAND: opNand, netlist.NOR: opNor,
	netlist.AND: opAnd, netlist.OR: opOr, netlist.XOR: opXor, netlist.XNOR: opXnor,
}

// instr is one step: slots[out] = op(slots[a], slots[b]).
type instr struct {
	op   opcode
	out  int
	a, b int
}

// Program is a compiled simulator for one netlist.
type Program struct {
	// Netlist names the circuit the program was compiled for.
	Netlist string
	// inputs/outputs map port names to slots.
	inputs  map[string]int
	outputs map[string]int
	code    []instr
	nslots  int
	// inputOrder/outputOrder preserve declaration order for rendering.
	inputOrder, outputOrder []string
}

// Compile builds a compiled simulator for the netlist, dispatching on
// its view: gate-level netlists are levelized directly; transistor-level
// netlists (extracted layouts) go through the switch-level compiler
// (CompileTransistor), exactly as the original COSMOS compiled MOS
// circuits. Mixed netlists are rejected.
func Compile(nl *netlist.Netlist) (*Program, error) {
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	if len(nl.Gates) == 0 && len(nl.Devices) > 0 {
		return CompileTransistor(nl)
	}
	if len(nl.Gates) == 0 || len(nl.Devices) != 0 {
		return nil, fmt.Errorf("cosmos: %q must be a pure gate-level or pure transistor netlist", nl.Name)
	}
	p := &Program{
		Netlist: nl.Name,
		inputs:  make(map[string]int),
		outputs: make(map[string]int),
	}
	slot := make(map[string]int)
	alloc := func(net string) int {
		if s, ok := slot[net]; ok {
			return s
		}
		s := p.nslots
		p.nslots++
		slot[net] = s
		return s
	}
	// Rails first, as constant instructions.
	p.code = append(p.code, instr{op: opConst1, out: alloc(netlist.Vdd)})
	p.code = append(p.code, instr{op: opConst0, out: alloc(netlist.Gnd)})
	for _, in := range nl.Inputs() {
		p.inputs[in] = alloc(in)
		p.inputOrder = append(p.inputOrder, in)
	}

	// Levelize: emit each gate once all its inputs have slots.
	pending := make([]netlist.Gate, len(nl.Gates))
	copy(pending, nl.Gates)
	for len(pending) > 0 {
		var next []netlist.Gate
		progress := false
		for _, g := range pending {
			ready := true
			for _, in := range g.Inputs {
				if _, ok := slot[in]; !ok {
					ready = false
					break
				}
			}
			if !ready {
				next = append(next, g)
				continue
			}
			ins := instr{op: opForGate[g.Type], a: slot[g.Inputs[0]]}
			if len(g.Inputs) > 1 {
				ins.b = slot[g.Inputs[1]]
			} else {
				ins.b = ins.a
			}
			ins.out = alloc(g.Output)
			p.code = append(p.code, ins)
			progress = true
		}
		if !progress {
			return nil, fmt.Errorf("cosmos: netlist %q has a combinational loop (%d gates unlevelizable)",
				nl.Name, len(next))
		}
		pending = next
	}
	for _, out := range nl.Outputs() {
		p.outputs[out] = slot[out]
		p.outputOrder = append(p.outputOrder, out)
	}
	return p, nil
}

// Inputs returns the program's input names in declaration order.
func (p *Program) Inputs() []string { return append([]string(nil), p.inputOrder...) }

// Outputs returns the program's output names in declaration order.
func (p *Program) Outputs() []string { return append([]string(nil), p.outputOrder...) }

// Steps returns the number of compiled instructions.
func (p *Program) Steps() int { return len(p.code) }

// Run evaluates one input vector and returns the outputs. The vector
// must assign every input.
func (p *Program) Run(in map[string]bool) (map[string]bool, error) {
	slots := make([]bool, p.nslots)
	if err := p.runInto(slots, in); err != nil {
		return nil, err
	}
	out := make(map[string]bool, len(p.outputs))
	for name, s := range p.outputs {
		out[name] = slots[s]
	}
	return out, nil
}

// runInto evaluates into a caller-provided slot array (hot path for
// RunVectors).
func (p *Program) runInto(slots []bool, in map[string]bool) error {
	for name, s := range p.inputs {
		v, ok := in[name]
		if !ok {
			return fmt.Errorf("cosmos: missing input %s", name)
		}
		slots[s] = v
	}
	for _, ins := range p.code {
		a, b := slots[ins.a], slots[ins.b]
		switch ins.op {
		case opConst0:
			slots[ins.out] = false
		case opConst1:
			slots[ins.out] = true
		case opNot:
			slots[ins.out] = !a
		case opBuf:
			slots[ins.out] = a
		case opNand:
			slots[ins.out] = !(a && b)
		case opNor:
			slots[ins.out] = !(a || b)
		case opAnd:
			slots[ins.out] = a && b
		case opOr:
			slots[ins.out] = a || b
		case opXor:
			slots[ins.out] = a != b
		case opXnor:
			slots[ins.out] = a == b
		}
	}
	return nil
}

// RunVectors executes the program over an entire stimuli set and returns
// the outputs per vector — the compiled analogue of sim.Simulator.Run
// (functional values only; a compiled simulator has no timing).
func (p *Program) RunVectors(st *sim.Stimuli) ([]map[string]bool, error) {
	if err := st.Validate(); err != nil {
		return nil, err
	}
	idx := make([]int, len(st.Inputs))
	for i, name := range st.Inputs {
		s, ok := p.inputs[name]
		if !ok {
			return nil, fmt.Errorf("cosmos: stimuli input %s is not a program input", name)
		}
		idx[i] = s
	}
	if len(st.Inputs) != len(p.inputs) {
		return nil, fmt.Errorf("cosmos: stimuli covers %d of %d inputs", len(st.Inputs), len(p.inputs))
	}
	slots := make([]bool, p.nslots)
	var out []map[string]bool
	for _, vec := range st.Vectors {
		for i, s := range idx {
			slots[s] = vec[i]
		}
		for _, ins := range p.code {
			a, b := slots[ins.a], slots[ins.b]
			switch ins.op {
			case opConst0:
				slots[ins.out] = false
			case opConst1:
				slots[ins.out] = true
			case opNot:
				slots[ins.out] = !a
			case opBuf:
				slots[ins.out] = a
			case opNand:
				slots[ins.out] = !(a && b)
			case opNor:
				slots[ins.out] = !(a || b)
			case opAnd:
				slots[ins.out] = a && b
			case opOr:
				slots[ins.out] = a || b
			case opXor:
				slots[ins.out] = a != b
			case opXnor:
				slots[ins.out] = a == b
			}
		}
		sample := make(map[string]bool, len(p.outputs))
		for name, s := range p.outputs {
			sample[name] = slots[s]
		}
		out = append(out, sample)
	}
	return out, nil
}

// Format renders the compiled program as text — the physical form of the
// generated tool, storable in the datastore like any design artifact.
func Format(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cosmos %s\n", p.Netlist)
	fmt.Fprintf(&b, "slots %d\n", p.nslots)
	for _, name := range p.inputOrder {
		fmt.Fprintf(&b, "input %s %d\n", name, p.inputs[name])
	}
	for _, name := range p.outputOrder {
		fmt.Fprintf(&b, "output %s %d\n", name, p.outputs[name])
	}
	for _, ins := range p.code {
		fmt.Fprintf(&b, "op %s %d %d %d\n", opNames[ins.op], ins.out, ins.a, ins.b)
	}
	return b.String()
}

// maxLine is the scanner's maximum token size: the longest line Parse
// accepts, newline included, is maxLine bytes. The buffer starts small
// and grows on demand up to it.
const maxLine = 1 << 20

// Parse reads a compiled program back from its text form.
func Parse(r io.Reader) (*Program, error) {
	p := &Program{inputs: make(map[string]int), outputs: make(map[string]int)}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	lineno := 0
	for sc.Scan() {
		lineno++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("cosmos line %d: %s", lineno, fmt.Sprintf(format, args...))
		}
		atoi := func(s string) (int, error) { return strconv.Atoi(s) }
		switch fields[0] {
		case "cosmos":
			if len(fields) != 2 {
				return nil, fail("cosmos wants a netlist name")
			}
			p.Netlist = fields[1]
		case "slots":
			if len(fields) != 2 {
				return nil, fail("slots wants a count")
			}
			n, err := atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fail("bad slot count %q", fields[1])
			}
			p.nslots = n
		case "input", "output":
			if len(fields) != 3 {
				return nil, fail("%s wants name and slot", fields[0])
			}
			s, err := atoi(fields[2])
			if err != nil {
				return nil, fail("bad slot %q", fields[2])
			}
			if fields[0] == "input" {
				p.inputs[fields[1]] = s
				p.inputOrder = append(p.inputOrder, fields[1])
			} else {
				p.outputs[fields[1]] = s
				p.outputOrder = append(p.outputOrder, fields[1])
			}
		case "op":
			if len(fields) != 5 {
				return nil, fail("op wants: name out a b")
			}
			op, ok := opByName[fields[1]]
			if !ok {
				return nil, fail("unknown op %q", fields[1])
			}
			out, err1 := atoi(fields[2])
			a, err2 := atoi(fields[3])
			bb, err3 := atoi(fields[4])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fail("bad slot number")
			}
			p.code = append(p.code, instr{op: op, out: out, a: a, b: bb})
		default:
			return nil, fail("unknown keyword %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if p.Netlist == "" {
		return nil, fmt.Errorf("cosmos: missing header")
	}
	for _, ins := range p.code {
		if ins.out >= p.nslots || ins.a >= p.nslots || ins.b >= p.nslots ||
			ins.out < 0 || ins.a < 0 || ins.b < 0 {
			return nil, fmt.Errorf("cosmos: instruction slot out of range (have %d slots)", p.nslots)
		}
	}
	for name, s := range p.inputs {
		if s < 0 || s >= p.nslots {
			return nil, fmt.Errorf("cosmos: input %s slot out of range", name)
		}
	}
	for name, s := range p.outputs {
		if s < 0 || s >= p.nslots {
			return nil, fmt.Errorf("cosmos: output %s slot out of range", name)
		}
	}
	return p, nil
}

// ParseString is Parse over a string.
func ParseString(src string) (*Program, error) { return Parse(strings.NewReader(src)) }
