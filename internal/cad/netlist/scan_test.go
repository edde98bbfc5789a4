package netlist

import (
	"bufio"
	"errors"
	"runtime"
	"strings"
	"testing"
)

// TestParseAllocation pins the parser's per-call garbage: the scan
// buffer grows with the input instead of starting at the maximum line
// size, so a small netlist costs a few KiB, not 1 MiB.
func TestParseAllocation(t *testing.T) {
	src := Format(FullAdder())
	const parses = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < parses; i++ {
		if _, err := ParseString(src); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perParse := (after.TotalAlloc - before.TotalAlloc) / parses; perParse >= 32<<10 {
		t.Fatalf("Parse allocates %d bytes per call on a %d-byte netlist, want < 32 KiB", perParse, len(src))
	}
}

// TestParseLineLimit: a line of maxLine bytes with its newline parses;
// one byte more fails with the scanner's ErrTooLong.
func TestParseLineLimit(t *testing.T) {
	src := Format(Inverter())
	pad := func(n int) string {
		i := strings.IndexByte(src, '\n')
		return src[:i] + strings.Repeat(" ", n-i) + src[i:]
	}
	if _, err := ParseString(pad(maxLine - 1)); err != nil {
		t.Fatalf("line just under the limit: %v", err)
	}
	_, err := ParseString(pad(maxLine))
	if !errors.Is(err, bufio.ErrTooLong) || err.Error() != "netlist: bufio.Scanner: token too long" {
		t.Fatalf("line over the limit: err = %v, want netlist-wrapped bufio.ErrTooLong", err)
	}
}
