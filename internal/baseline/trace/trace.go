// Package trace implements the second baseline of the paper's related
// work (§2): Casotto's design traces — a historical record of tool
// invocations that can be replayed as a prototype for new activity.
// Traces avoid the flow straight-jacket entirely, but — as the paper
// notes — "provide no means for enforcing a particular design
// methodology, nor ... a means for organizing and indexing traces in a
// more generalized fashion than with regard to specific design data
// files".
//
// The benchmarks use this package to show both properties: replay works
// (the positive), and nothing stops an ill-typed replay from being
// attempted, nor can traces be queried by entity type (the negatives).
package trace

import (
	"fmt"
	"strings"

	"repro/internal/encap"
	"repro/internal/history"
	"repro/internal/schema"
)

// Event is one recorded tool invocation.
type Event struct {
	// ToolType and Tool identify the invocation (hardwired, like the
	// static baseline).
	ToolType string
	Tool     []byte
	// Inputs maps dependency keys to slot names.
	Inputs map[string]string
	// Output is the slot the product lands in.
	Output string
	// Produces is the produced entity type.
	Produces string
}

// Trace is a linear record of invocations.
type Trace struct {
	Name   string
	Events []Event
}

// Capture linearizes the derivation history of an instance into a
// trace: the constructions along its backchain in execution order, with
// slot names taken from instance IDs. This shows that a trace is a
// strictly poorer projection of the history database — it discards
// typing and branching structure. Artifacts are not captured; the
// replayer supplies initial slots for the primitive sources.
func Capture(db *history.DB, target history.ID) (*Trace, error) {
	if !db.Has(target) {
		return nil, fmt.Errorf("history: no instance %s", target)
	}
	// Emit constructions children-first so a replay has its inputs.
	emitted := make(map[history.ID]bool)
	var events []Event
	var visit func(id history.ID)
	visit = func(id history.ID) {
		if emitted[id] {
			return
		}
		emitted[id] = true
		in := db.Get(id)
		if in.Tool != "" {
			visit(in.Tool)
		}
		for _, x := range in.Inputs {
			visit(x.Inst)
		}
		if in.Tool == "" && len(in.Inputs) == 0 {
			return // primitive source: becomes an initial slot
		}
		ev := Event{Output: string(id), Produces: in.Type, Inputs: make(map[string]string)}
		if in.Tool != "" {
			tin := db.Get(in.Tool)
			ev.ToolType = tin.Type
			ev.Tool = []byte(string(tin.ID)) // placeholder; replay rebinds tools
		}
		for _, x := range in.Inputs {
			ev.Inputs[x.Key] = string(x.Inst)
		}
		events = append(events, ev)
	}
	visit(target)
	return &Trace{Name: "trace of " + string(target), Events: events}, nil
}

// Replay re-runs the trace's invocations against the registry, starting
// from initial slot contents (for primitive sources) and tool artifacts
// (keyed by the recorded tool slot). There is no schema checking of the
// sequencing: a trace replays whatever it recorded, on whatever data it
// is given — which is both its flexibility and its weakness.
func (t *Trace) Replay(s *schema.Schema, reg *encap.Registry,
	slots map[string][]byte, tools map[string][]byte) (map[string][]byte, error) {
	out := make(map[string][]byte, len(slots))
	for k, v := range slots {
		out[k] = v
	}
	for i, ev := range t.Events {
		if ev.ToolType == "" {
			// A composition event: rebuild the composite artifact.
			parts := make(map[string][]byte, len(ev.Inputs))
			for key, slot := range ev.Inputs {
				b, ok := out[slot]
				if !ok {
					return nil, fmt.Errorf("trace: event %d needs slot %q", i, slot)
				}
				parts[key] = b
			}
			out[ev.Output] = encap.ComposeParts(parts)
			continue
		}
		enc, err := reg.Lookup(s, ev.ToolType)
		if err != nil {
			return nil, err
		}
		req := &encap.Request{
			Goal:     ev.Produces,
			ToolType: ev.ToolType,
			Tool:     tools[string(ev.Tool)],
			Inputs:   make(map[string][]byte, len(ev.Inputs)),
		}
		for key, slot := range ev.Inputs {
			b, ok := out[slot]
			if !ok {
				return nil, fmt.Errorf("trace: event %d needs slot %q", i, slot)
			}
			req.Inputs[key] = b
		}
		res, err := enc.Run(req)
		if err != nil {
			return nil, fmt.Errorf("trace: event %d (%s): %w", i, ev.ToolType, err)
		}
		data, ok := res[ev.Produces]
		if !ok {
			return nil, fmt.Errorf("trace: event %d produced no %s", i, ev.Produces)
		}
		out[ev.Output] = data
	}
	return out, nil
}

// ToolSequence returns the recorded tool types in order.
func (t *Trace) ToolSequence() []string {
	var out []string
	for _, ev := range t.Events {
		if ev.ToolType != "" {
			out = append(out, ev.ToolType)
		}
	}
	return out
}

// String renders the trace.
func (t *Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d events)\n", t.Name, len(t.Events))
	for i, ev := range t.Events {
		tool := ev.ToolType
		if tool == "" {
			tool = "compose"
		}
		fmt.Fprintf(&b, "  %d. %s -> %s (%s)\n", i+1, tool, ev.Output, ev.Produces)
	}
	return b.String()
}
