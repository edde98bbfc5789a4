package main

import (
	"math"
	"sort"
	"time"
)

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// ascending samples and how many samples lie beyond its rank. NaN for
// no samples.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	// The epsilon keeps an exact rank (p·n/100 integral) from being
	// pushed up by floating-point error.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return sorted[r-1], n - r
}

// tailPercentile is the highest percentile of n samples that still has
// minBeyond samples beyond it; ok is false when n is too small.
func tailPercentile(n, minBeyond int) (p float64, ok bool) {
	if n <= minBeyond {
		return 0, false
	}
	return 100 * float64(n-minBeyond) / float64(n), true
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) returns (its default "exclusive"
// method); the middle one is the median. A single value is all three;
// no values give NaN.
func quartiles(v []float64) (q1, q2, q3 float64) {
	d := sortedCopy(v)
	switch len(d) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	ld := len(d)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, m, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

// Verdicts of the compare mode.
const (
	agree      = "agree"
	worse      = "worse"
	unresolved = "unresolved"
)

// judge compares a change's runs b against the parent's runs a for one
// metric. It is worse when b's median is worse than a's by more than
// bound, a share of a's median. When either side's spread exceeds the
// bound the medians cannot resolve that, and the verdict is unresolved
// unless every run of b is better than every run of a.
func judge(a, b []float64, higherBetter bool, bound float64) string {
	better := func(x, y float64) bool { // x better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	if math.Max(spread(a), spread(b)) > bound {
		for _, x := range b {
			for _, y := range a {
				if !better(x, y) {
					return unresolved
				}
			}
		}
		return agree
	}
	ma, mb := median(a), median(b)
	loss := (mb - ma) / math.Abs(ma)
	if higherBetter {
		loss = -loss
	}
	if loss > bound {
		return worse
	}
	return agree
}

// ledgerTerm is one layer's isolated cost per submission.
type ledgerTerm struct {
	name string
	cost time.Duration
}

// ledger attributes a run's median latency to layers: attributed is the
// sum of the isolated layer costs, unattributed the remainder. Integer
// nanoseconds keep attributed + unattributed exactly the median.
type ledger struct {
	runP50       time.Duration
	terms        []ledgerTerm
	attributed   time.Duration
	unattributed time.Duration
}

func newLedger(runP50 time.Duration, terms []ledgerTerm) ledger {
	var sum time.Duration
	for _, t := range terms {
		sum += t.cost
	}
	return ledger{runP50: runP50, terms: terms, attributed: sum, unattributed: runP50 - sum}
}

// share is a cost as a share of the run's median latency.
func (l ledger) share(d time.Duration) float64 { return float64(d) / float64(l.runP50) }

// msDur converts milliseconds to a Duration, rounded to the nanosecond.
func msDur(v float64) time.Duration { return time.Duration(math.Round(v * float64(time.Millisecond))) }
