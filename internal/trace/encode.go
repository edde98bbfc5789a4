package trace

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"
)

// AppendJSON appends the JSON encoding of ev to b and returns the
// extended buffer. The output is byte-identical to json.Marshal(ev) —
// same field order, same omitempty shape, same string escaping (see
// AppendString) — without reflection for the common all-ASCII event.
// It is the one event encoder: the WAL's event records, MaskedJSONL
// (and so the goldens), the Writer sink and the service's trace stream
// all go through it.
func AppendJSON(b []byte, ev *Event) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, int64(ev.Seq), 10)
	if ev.Run != "" {
		b = append(b, `,"run":`...)
		b = AppendString(b, ev.Run)
	}
	b = append(b, `,"kind":`...)
	b = AppendString(b, string(ev.Kind))
	b = append(b, `,"job":`...)
	b = strconv.AppendInt(b, int64(ev.Job), 10)
	b = append(b, `,"combo":`...)
	b = strconv.AppendInt(b, int64(ev.Combo), 10)
	b = append(b, `,"unit":`...)
	b = strconv.AppendInt(b, int64(ev.Unit), 10)
	if len(ev.Nodes) > 0 {
		b = append(b, `,"nodes":[`...)
		for i, n := range ev.Nodes {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(n), 10)
		}
		b = append(b, ']')
	}
	b = appendStringField(b, `,"type":`, ev.Type)
	b = appendIntField(b, `,"attempt":`, int64(ev.Attempt))
	if len(ev.Insts) > 0 {
		b = append(b, `,"insts":[`...)
		for i, s := range ev.Insts {
			if i > 0 {
				b = append(b, ',')
			}
			b = AppendString(b, s)
		}
		b = append(b, ']')
	}
	b = appendIntField(b, `,"blame":`, int64(ev.Blame))
	b = appendStringField(b, `,"err":`, ev.Err)
	b = appendIntField(b, `,"workers":`, int64(ev.Workers))
	b = appendIntField(b, `,"jobs":`, int64(ev.Jobs))
	b = appendIntField(b, `,"units":`, int64(ev.Units))
	b = appendIntField(b, `,"committed":`, int64(ev.Committed))
	b = appendIntField(b, `,"failed":`, int64(ev.Failed))
	b = appendIntField(b, `,"skipped":`, int64(ev.Skipped))
	b = appendIntField(b, `,"wait_us":`, ev.WaitMicros)
	b = appendIntField(b, `,"dur_us":`, ev.DurMicros)
	b = appendIntField(b, `,"busy_us":`, ev.BusyMicros)
	b = appendIntField(b, `,"elapsed_us":`, ev.ElapsedMicros)
	return append(b, '}')
}

// appendIntField appends an omitempty integer field: key (with its
// leading comma and trailing colon) and value, or nothing for zero.
func appendIntField(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	b = append(b, key...)
	return strconv.AppendInt(b, v, 10)
}

// appendStringField is appendIntField for an omitempty string.
func appendStringField(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	b = append(b, key...)
	return AppendString(b, s)
}

// AppendString appends s as a JSON string literal exactly as
// encoding/json writes it. Plain ASCII is copied directly; a string
// with anything encoding/json would escape (control bytes, quotes,
// '<', '>', '&', non-ASCII) falls back to json.Marshal, so parity holds
// by construction. It is the one quoter for the event encoder and the
// WAL's record envelope.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' || c >= utf8.RuneSelf {
			esc, _ := json.Marshal(s)
			return append(b, esc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
