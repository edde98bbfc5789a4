package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// tricky are strings whose JSON escaping differs between naive quoting
// and encoding/json: HTML characters, JS line separators, every kind of
// control byte, quotes, and invalid or truncated UTF-8.
var tricky = []string{
	"", "plain", "<", ">", "&", "a<b>&c", "\u2028", "x\u2029y", "\x00\x01\x1f",
	"\b\f\n\r\t", `"quoted"`, `back\slash`, "\x7f", "\u00e9", "\u65e5\u672c", "\xff", "\xfe\xff",
	"\xe2\x80", "ok\xc3", "\U0001F600", "\ufffd",
}

func checkParity(t *testing.T, ev Event) {
	t.Helper()
	want, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendJSON(nil, &ev); !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON(%+v)\n got  %s\n want %s", ev, got, want)
	}
}

func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	checkParity(t, Event{})
	checkParity(t, Event{Seq: 4, Kind: KindUnitCommitted, Job: 1, Combo: 0, Unit: 2,
		Nodes: []int{3, -1}, Type: "Netlist", Insts: []string{"Netlist:1", ""}})
	checkParity(t, Event{Seq: -1, Kind: KindRunFinished, Job: -1, Combo: -1, Unit: -1,
		Workers: 8, Jobs: 3, Units: 5, Committed: 4, Failed: 1,
		Skipped: 1, WaitMicros: -2, DurMicros: 1 << 40, BusyMicros: 9, ElapsedMicros: 10,
		Attempt: 2, Blame: 7, Err: "boom", Run: "r-0001"})
	for _, s := range tricky {
		checkParity(t, Event{Run: s, Kind: Kind(s), Type: s, Err: s, Insts: []string{s, s}})
	}
	ev := sample(3)[1]
	ev.Err = "<&>\u2028"
	checkParity(t, ev)
}

// FuzzAppendJSON holds AppendJSON to byte-for-byte parity with
// json.Marshal over fuzzed string and integer fields. insts is split on
// ',' so empty and multiple instance IDs are covered; nodes are present
// when unit is odd.
func FuzzAppendJSON(f *testing.F) {
	for _, s := range tricky {
		f.Add(s, s, s, s, s+","+s, 0, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0, int64(0), int64(0), int64(0), int64(0))
	}
	f.Add("r-0001", "UnitCommitted", "Netlist", "", "Netlist:1,Netlist:2",
		7, 1, 0, 3, 2, 5, 4, 3, 6, 5, 1, 0, int64(11), int64(-12), int64(13), int64(1<<40))
	f.Fuzz(func(t *testing.T, run, kind, typ, errText, insts string,
		seq, job, combo, unit, attempt, blame, workers, jobs, units, committed, failed, skipped int,
		wait, dur, busy, elapsed int64) {
		ev := Event{
			Seq: seq, Run: run, Kind: Kind(kind), Job: job, Combo: combo, Unit: unit,
			Type: typ, Attempt: attempt, Blame: blame, Err: errText,
			Workers: workers, Jobs: jobs, Units: units, Committed: committed,
			Failed: failed, Skipped: skipped, WaitMicros: wait, DurMicros: dur,
			BusyMicros: busy, ElapsedMicros: elapsed,
		}
		if insts != "" {
			ev.Insts = strings.Split(insts, ",")
		}
		if unit%2 != 0 {
			ev.Nodes = []int{job, combo, unit}
		}
		checkParity(t, ev)
	})
}
