package layout

import (
	"bufio"
	"strings"
	"testing"

	"repro/internal/cad/netlist"
)

// TestParseLineLimit: a line of maxLine bytes with its newline parses;
// one byte more fails with the scanner's bare ErrTooLong.
func TestParseLineLimit(t *testing.T) {
	l, err := Generate(netlist.Inverter(), nil)
	if err != nil {
		t.Fatal(err)
	}
	src := Format(l)
	pad := func(n int) string {
		i := strings.IndexByte(src, '\n')
		return src[:i] + strings.Repeat(" ", n-i) + src[i:]
	}
	if _, err := ParseString(pad(maxLine - 1)); err != nil {
		t.Fatalf("line just under the limit: %v", err)
	}
	if _, err := ParseString(pad(maxLine)); err != bufio.ErrTooLong {
		t.Fatalf("line over the limit: err = %v, want bufio.ErrTooLong", err)
	}
}
