package harness

import (
	"fmt"
	"strings"
)

// unifiedDiff renders a line-based unified diff between two byte
// streams (masked JSONL traces, history dumps). Golden mismatches must
// say *which events* diverged, not just "mismatch": a trace line is a
// whole event, so the diff reads as a narrative of where the schedules
// parted ways.
func unifiedDiff(aName, bName string, a, b []byte) string {
	al := splitLines(a)
	bl := splitLines(b)
	ops := diffOps(al, bl)

	var sb strings.Builder
	hunks := 0

	const ctx = 3
	// Group ops into hunks: runs of changes with ctx lines of context.
	for i := 0; i < len(ops); {
		if ops[i].kind == opEqual {
			i++
			continue
		}
		// Hunk start: back up ctx equal lines.
		start := i
		for start > 0 && ops[start-1].kind == opEqual && i-start < ctx {
			start--
		}
		// Hunk end: advance past changes, absorbing gaps of ≤ 2·ctx
		// equal lines between change runs.
		end := i
		for j := i; j < len(ops); j++ {
			if ops[j].kind != opEqual {
				end = j + 1
				continue
			}
			if j-end >= 2*ctx {
				break
			}
		}
		stop := end
		for stop < len(ops) && ops[stop].kind == opEqual && stop-end < ctx {
			stop++
		}
		if hunks == 0 {
			fmt.Fprintf(&sb, "--- %s\n+++ %s\n", aName, bName)
		}
		hunks++
		writeHunk(&sb, ops[start:stop])
		i = stop
	}
	return strings.TrimRight(sb.String(), "\n")
}

type opKind int

const (
	opEqual opKind = iota
	opDelete
	opInsert
)

type diffOp struct {
	kind  opKind
	text  string
	aLine int // 1-based line in a (equal/delete)
	bLine int // 1-based line in b (equal/insert)
}

func writeHunk(sb *strings.Builder, ops []diffOp) {
	aStart, aCount, bStart, bCount := 0, 0, 0, 0
	for _, op := range ops {
		switch op.kind {
		case opEqual:
			if aStart == 0 {
				aStart, bStart = op.aLine, op.bLine
			}
			aCount++
			bCount++
		case opDelete:
			if aStart == 0 {
				aStart, bStart = op.aLine, op.bLine+1
			}
			aCount++
		case opInsert:
			if aStart == 0 {
				aStart, bStart = op.aLine+1, op.bLine
			}
			bCount++
		}
	}
	fmt.Fprintf(sb, "@@ -%d,%d +%d,%d @@\n", aStart, aCount, bStart, bCount)
	for _, op := range ops {
		switch op.kind {
		case opEqual:
			fmt.Fprintf(sb, " %s\n", op.text)
		case opDelete:
			fmt.Fprintf(sb, "-%s\n", op.text)
		case opInsert:
			fmt.Fprintf(sb, "+%s\n", op.text)
		}
	}
}

// diffOps computes a minimal line diff by LCS dynamic programming —
// traces and history dumps are at most a few thousand lines, well
// within quadratic comfort.
func diffOps(a, b []string) []diffOp {
	n, m := len(a), len(b)
	// lcs[i][j] = LCS length of a[i:], b[j:].
	lcs := make([][]int32, n+1)
	for i := range lcs {
		lcs[i] = make([]int32, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if a[i] == b[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else if lcs[i+1][j] >= lcs[i][j+1] {
				lcs[i][j] = lcs[i+1][j]
			} else {
				lcs[i][j] = lcs[i][j+1]
			}
		}
	}
	var ops []diffOp
	i, j := 0, 0
	for i < n && j < m {
		switch {
		case a[i] == b[j]:
			ops = append(ops, diffOp{opEqual, a[i], i + 1, j + 1})
			i++
			j++
		case lcs[i+1][j] >= lcs[i][j+1]:
			ops = append(ops, diffOp{opDelete, a[i], i + 1, j})
			i++
		default:
			ops = append(ops, diffOp{opInsert, b[j], i, j + 1})
			j++
		}
	}
	for ; i < n; i++ {
		ops = append(ops, diffOp{opDelete, a[i], i + 1, j})
	}
	for ; j < m; j++ {
		ops = append(ops, diffOp{opInsert, b[j], i, j + 1})
	}
	return ops
}

func splitLines(b []byte) []string {
	s := strings.TrimRight(string(b), "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}
