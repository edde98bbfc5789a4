package main

import (
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// The box's speed drifts with its neighbours' load by tens of percent
// over minutes, so two runs of the same code minutes apart can differ
// by more than any useful bound. The parent therefore times a fixed
// reference kernel before and after every repetition and scales the
// repetition's times by how fast the box ran the kernel: every
// end-to-end figure is reported at the reference speed, the raw one
// beside it. The kernel does the kinds of work flowd does — string
// building, map growth, sorting, JSON encoding, allocation — because a
// kernel of pure arithmetic tracks the drift of flowd's memory-bound
// work less closely.

// referenceKernel is the kernel's time at the reference speed: its
// typical time on the 2-core box the results under bench/results come
// from.
const referenceKernel = 65 * time.Millisecond

// kernel runs the reference kernel and returns its time. It runs in the
// parent, between children, so flowd's heap cannot slow it.
func kernel() time.Duration {
	runtime.GC()
	t0 := time.Now()
	for round := 0; round < 2; round++ {
		const n = 40000
		m := make(map[string][]string)
		for i := 0; i < n; i++ {
			k := "Cell:" + strconv.Itoa(i)
			m[k] = append(m[k], k, strconv.Itoa(i*7))
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		enc := json.NewEncoder(io.Discard)
		for _, k := range keys[:n/4] {
			if err := enc.Encode(m[k]); err != nil {
				panic(err) // encoding a []string to io.Discard cannot fail
			}
		}
	}
	return time.Since(t0)
}

// speedOf is the box's speed around a repetition relative to the
// reference, from the kernel times before and after it: below 1 when
// the box ran slow.
func speedOf(before, after time.Duration) float64 {
	return float64(referenceKernel) / (float64(before+after) / 2)
}
