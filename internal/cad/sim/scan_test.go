package sim

import (
	"bufio"
	"strings"
	"testing"
)

// TestParseResultLineLimit: a line of maxLine bytes with its newline
// parses; one byte more fails with the scanner's bare ErrTooLong.
func TestParseResultLineLimit(t *testing.T) {
	src := FormatResult(&Result{Circuit: "c", Stimuli: "s", Library: "l"})
	pad := func(n int) string {
		i := strings.IndexByte(src, '\n')
		return src[:i] + strings.Repeat(" ", n-i) + src[i:]
	}
	if _, err := ParseResultString(pad(maxLine - 1)); err != nil {
		t.Fatalf("line just under the limit: %v", err)
	}
	if _, err := ParseResultString(pad(maxLine)); err != bufio.ErrTooLong {
		t.Fatalf("line over the limit: err = %v, want bufio.ErrTooLong", err)
	}
}
