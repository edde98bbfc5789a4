package storage

import (
	"encoding/base64"
	"sort"

	"repro/internal/trace"
)

// Hand-rolled JSON encoding of WAL records. The writer goroutine
// timeshares with the scheduler it serves — on a single-core host
// every cycle it burns comes straight out of dispatch throughput — so
// records are encoded reflection-free into a buffer the writer reuses
// across appends; events go through trace.AppendJSON, the one event
// encoder, and every string through trace.AppendString. The output is
// plain JSON, decodable by encoding/json with the structs' tags;
// decoding (recovery) is off the hot path and stays reflective. Output keys are emitted in deterministic order
// (struct order; sorted for the outputs map), so identical records
// produce identical bytes.

// appendWALRecord appends one record envelope as JSON. Exactly one of
// meta, ev and errMsg is set (ev counts as set when ev.Kind != "");
// commit and digest may ride along with an event.
func appendWALRecord(b []byte, m *walMsg) []byte {
	b = append(b, '{')
	if meta := m.meta; meta != nil {
		b = append(b, `"meta":{"id":`...)
		b = trace.AppendString(b, meta.ID)
		b = append(b, `,"flow":`...)
		b = trace.AppendString(b, meta.Flow)
		b = append(b, `,"user":`...)
		b = trace.AppendString(b, meta.User)
		if len(meta.Scenario) > 0 {
			b = append(b, `,"scenario":`...)
			b = append(b, meta.Scenario...)
		}
		b = append(b, '}')
	}
	if m.ev.Kind != "" {
		b = append(b, `"event":`...)
		b = trace.AppendJSON(b, &m.ev)
	}
	if m.commit != nil {
		b = append(b, `,"commit":`...)
		b = appendCommit(b, m.commit)
	}
	if m.digest != "" {
		b = append(b, `,"digest":`...)
		b = trace.AppendString(b, m.digest)
	}
	if m.errMsg != "" {
		b = append(b, `"error":`...)
		b = trace.AppendString(b, m.errMsg)
	}
	return append(b, '}')
}

// appendCommit encodes a unit's durable payload; artifact bytes are
// base64 as encoding/json would emit them, outputs in sorted type
// order so the encoding is deterministic.
func appendCommit(b []byte, c *UnitCommit) []byte {
	b = append(b, `{"outputs":{`...)
	if len(c.Outputs) == 1 {
		for typ, data := range c.Outputs {
			b = trace.AppendString(b, typ)
			b = append(b, ':', '"')
			b = base64.StdEncoding.AppendEncode(b, data)
			b = append(b, '"')
		}
	} else if len(c.Outputs) > 1 {
		types := make([]string, 0, len(c.Outputs))
		for typ := range c.Outputs {
			types = append(types, typ)
		}
		sort.Strings(types)
		for i, typ := range types {
			if i > 0 {
				b = append(b, ',')
			}
			b = trace.AppendString(b, typ)
			b = append(b, ':', '"')
			b = base64.StdEncoding.AppendEncode(b, c.Outputs[typ])
			b = append(b, '"')
		}
	}
	b = append(b, '}')
	if c.MemoKey != "" {
		b = append(b, `,"memo_key":`...)
		b = trace.AppendString(b, c.MemoKey)
	}
	return append(b, '}')
}
