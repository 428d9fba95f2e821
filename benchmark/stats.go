package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of
// sorted, which must be ascending: the smallest value with at least
// p*len values at or below it. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// spread summarises one metric's per sub-window values. The reported
// value is the third best of them. What a shared host does to the
// process only ever makes a sub-window worse: it stalls everything for
// 100-400 ms a few times a minute, and for seconds at a time it runs the
// same code a third slower. The median of the sub-windows follows how
// much of the run the host disturbed, which differs from run to run;
// the third best needs only three quiet seconds in a run, and two
// sub-windows that a timing artefact flattered do not reach it.
type spread struct {
	thirdBest, median, min, max float64
}

func spreadOf(perWindow []float64, higherIsBetter bool) spread {
	if len(perWindow) == 0 {
		return spread{}
	}
	s := append([]float64(nil), perWindow...)
	sort.Float64s(s)
	n := len(s)
	sp := spread{median: s[n/2], min: s[0], max: s[n-1]}
	if n%2 == 0 {
		sp.median = (s[n/2-1] + s[n/2]) / 2
	}
	sp.thirdBest = s[min(2, n-1)]
	if higherIsBetter {
		sp.thirdBest = s[max(n-3, 0)]
	}
	return sp
}

func (sp spread) note() string {
	return fmt.Sprintf("third best of %d sub-windows, median %.4g min %.4g max %.4g", subWindows, sp.median, sp.min, sp.max)
}

// windowOf maps a due time to its sub-window of the measured span
// [start, start+n*width), or -1 outside it.
func windowOf(due, start, width int64, n int) int {
	if due < start {
		return -1
	}
	if w := int((due - start) / width); w < n {
		return w
	}
	return -1
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
