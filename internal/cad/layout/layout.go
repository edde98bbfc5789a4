// Package layout provides the mask-geometry representation used by the
// physical-design tools: rectangles on a small set of layers, text
// labels for net names, and a text file format. Package place orders
// cells, Generate (in this package) produces the geometry, and package
// extract recovers a transistor netlist from it — the physical view of
// the paper's Fig. 7 and the synthesis/verification flows of Fig. 8.
//
// Connectivity conventions (enforced by generation, assumed by
// extraction):
//
//   - rects on the same layer connect where they overlap with positive
//     area;
//   - a contact rect connects every poly, diffusion and metal1 shape it
//     overlaps;
//   - a via rect connects every metal1 and metal2 shape it overlaps;
//   - a poly rect crossing a diffusion rect forms a transistor and
//     splits the diffusion into disconnected source/drain fragments.
package layout

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cad/netlist"
)

// Layer is a mask layer.
type Layer string

// The supported layers.
const (
	Ndiff   Layer = "ndiff"
	Pdiff   Layer = "pdiff"
	Poly    Layer = "poly"
	Metal1  Layer = "metal1"
	Metal2  Layer = "metal2"
	Contact Layer = "contact" // connects poly/diff/metal1
	Via     Layer = "via"     // connects metal1/metal2
)

// Layers lists all layers in a fixed order.
var Layers = []Layer{Ndiff, Pdiff, Poly, Metal1, Metal2, Contact, Via}

// Known reports whether l is a supported layer.
func Known(l Layer) bool {
	for _, x := range Layers {
		if x == l {
			return true
		}
	}
	return false
}

// Rect is an axis-aligned rectangle on a layer. Coordinates are in
// lambda; the ranges are half-open: [X0, X1) x [Y0, Y1).
type Rect struct {
	Layer          Layer
	X0, Y0, X1, Y1 int
}

// R is shorthand for constructing a Rect.
func R(l Layer, x0, y0, x1, y1 int) Rect { return Rect{Layer: l, X0: x0, Y0: y0, X1: x1, Y1: y1} }

// Valid reports whether the rectangle has positive area and a known
// layer.
func (r Rect) Valid() bool {
	return Known(r.Layer) && r.X0 < r.X1 && r.Y0 < r.Y1
}

// Overlaps reports whether two rects share positive area (layers are not
// compared).
func (r Rect) Overlaps(o Rect) bool {
	return r.X0 < o.X1 && o.X0 < r.X1 && r.Y0 < o.Y1 && o.Y0 < r.Y1
}

// Contains reports whether the point (x, y) lies inside the rect.
func (r Rect) Contains(x, y int) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// Area returns the rect's area in square lambda.
func (r Rect) Area() int { return (r.X1 - r.X0) * (r.Y1 - r.Y0) }

// String renders "layer x0 y0 x1 y1".
func (r Rect) String() string {
	return fmt.Sprintf("%s %d %d %d %d", r.Layer, r.X0, r.Y0, r.X1, r.Y1)
}

// Label attaches a net name to the conducting shape containing the point
// on the given layer (the way real extractors pick up port names).
type Label struct {
	Name  string
	Layer Layer
	X, Y  int
}

// String renders "name layer x y".
func (l Label) String() string {
	return fmt.Sprintf("%s %s %d %d", l.Name, l.Layer, l.X, l.Y)
}

// Layout is a named piece of mask geometry with labels and declared
// ports.
type Layout struct {
	Name   string
	Ports  []netlist.Port
	Rects  []Rect
	Labels []Label
}

// New returns an empty layout.
func New(name string) *Layout { return &Layout{Name: name} }

// Add appends a rect.
func (l *Layout) Add(r Rect) { l.Rects = append(l.Rects, r) }

// AddLabel appends a label.
func (l *Layout) AddLabel(name string, layer Layer, x, y int) {
	l.Labels = append(l.Labels, Label{Name: name, Layer: layer, X: x, Y: y})
}

// Bounds returns the bounding box (x0, y0, x1, y1) of all rects, or
// zeros for an empty layout.
func (l *Layout) Bounds() (int, int, int, int) {
	if len(l.Rects) == 0 {
		return 0, 0, 0, 0
	}
	r0 := l.Rects[0]
	x0, y0, x1, y1 := r0.X0, r0.Y0, r0.X1, r0.Y1
	for _, r := range l.Rects[1:] {
		if r.X0 < x0 {
			x0 = r.X0
		}
		if r.Y0 < y0 {
			y0 = r.Y0
		}
		if r.X1 > x1 {
			x1 = r.X1
		}
		if r.Y1 > y1 {
			y1 = r.Y1
		}
	}
	return x0, y0, x1, y1
}

// OnLayer returns all rects on the given layer, in insertion order.
func (l *Layout) OnLayer(layer Layer) []Rect {
	var out []Rect
	for _, r := range l.Rects {
		if r.Layer == layer {
			out = append(out, r)
		}
	}
	return out
}

// Validate checks that every rect is well-formed and every label names a
// point covered by some rect on its layer.
func (l *Layout) Validate() error {
	var errs []string
	for i, r := range l.Rects {
		if !r.Valid() {
			errs = append(errs, fmt.Sprintf("rect %d (%s) is degenerate or on unknown layer", i, r))
		}
	}
	for _, lb := range l.Labels {
		found := false
		for _, r := range l.Rects {
			if r.Layer == lb.Layer && r.Contains(lb.X, lb.Y) {
				found = true
				break
			}
		}
		if !found {
			errs = append(errs, fmt.Sprintf("label %s is not over any %s shape", lb, lb.Layer))
		}
	}
	seen := map[string]bool{}
	for _, p := range l.Ports {
		if seen[p.Name] {
			errs = append(errs, fmt.Sprintf("duplicate port %s", p.Name))
		}
		seen[p.Name] = true
		found := false
		for _, lb := range l.Labels {
			if lb.Name == p.Name {
				found = true
				break
			}
		}
		if !found {
			errs = append(errs, fmt.Sprintf("port %s has no label", p.Name))
		}
	}
	if len(errs) > 0 {
		sort.Strings(errs)
		return fmt.Errorf("layout %q invalid:\n  %s", l.Name, strings.Join(errs, "\n  "))
	}
	return nil
}

// Clone returns a deep copy.
func (l *Layout) Clone() *Layout {
	out := New(l.Name)
	out.Ports = append([]netlist.Port(nil), l.Ports...)
	out.Rects = append([]Rect(nil), l.Rects...)
	out.Labels = append([]Label(nil), l.Labels...)
	return out
}

// Format renders the layout in its text form:
//
//	layout <name>
//	in <net> ...
//	out <net> ...
//	rect <layer> <x0> <y0> <x1> <y1>
//	label <name> <layer> <x> <y>
func Format(l *Layout) string {
	var b strings.Builder
	fmt.Fprintf(&b, "layout %s\n", l.Name)
	var ins, outs []string
	for _, p := range l.Ports {
		if p.Dir == netlist.In {
			ins = append(ins, p.Name)
		} else {
			outs = append(outs, p.Name)
		}
	}
	if len(ins) > 0 {
		fmt.Fprintf(&b, "in %s\n", strings.Join(ins, " "))
	}
	if len(outs) > 0 {
		fmt.Fprintf(&b, "out %s\n", strings.Join(outs, " "))
	}
	for _, r := range l.Rects {
		fmt.Fprintf(&b, "rect %s\n", r)
	}
	for _, lb := range l.Labels {
		fmt.Fprintf(&b, "label %s\n", lb)
	}
	return b.String()
}

// maxLine is the scanner's maximum token size: the longest line Parse
// accepts, newline included, is maxLine bytes. The buffer starts small
// and grows on demand up to it.
const maxLine = 1 << 20

// Parse reads a layout from its text form and validates it.
func Parse(r io.Reader) (*Layout, error) {
	l := &Layout{}
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
			return fmt.Errorf("layout line %d: %s", lineno, fmt.Sprintf(format, args...))
		}
		switch fields[0] {
		case "layout":
			if len(fields) != 2 {
				return nil, fail("layout wants exactly one name")
			}
			l.Name = fields[1]
		case "in", "out":
			dir := netlist.In
			if fields[0] == "out" {
				dir = netlist.Out
			}
			for _, f := range fields[1:] {
				l.Ports = append(l.Ports, netlist.Port{Name: f, Dir: dir})
			}
		case "rect":
			if len(fields) != 6 {
				return nil, fail("rect wants: layer x0 y0 x1 y1")
			}
			var coords [4]int
			for i, f := range fields[2:] {
				x, err := strconv.Atoi(f)
				if err != nil {
					return nil, fail("bad coordinate %q", f)
				}
				coords[i] = x
			}
			r := Rect{Layer: Layer(fields[1]), X0: coords[0], Y0: coords[1], X1: coords[2], Y1: coords[3]}
			if !r.Valid() {
				return nil, fail("invalid rect %s", r)
			}
			l.Rects = append(l.Rects, r)
		case "label":
			if len(fields) != 5 {
				return nil, fail("label wants: name layer x y")
			}
			x, err1 := strconv.Atoi(fields[3])
			y, err2 := strconv.Atoi(fields[4])
			if err1 != nil || err2 != nil {
				return nil, fail("bad label coordinates")
			}
			if !Known(Layer(fields[2])) {
				return nil, fail("unknown layer %q", fields[2])
			}
			l.Labels = append(l.Labels, Label{Name: fields[1], Layer: Layer(fields[2]), X: x, Y: y})
		default:
			return nil, fail("unknown keyword %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if l.Name == "" {
		return nil, fmt.Errorf("layout: missing 'layout <name>' header")
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return l, nil
}

// ParseString is Parse over a string.
func ParseString(src string) (*Layout, error) { return Parse(strings.NewReader(src)) }
