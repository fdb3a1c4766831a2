package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 <= p <= 1) of an ascending-sorted
// slice, interpolating linearly between the two closest ranks. An empty
// slice has no quantile; NaN marks it so a missing class can never pass
// for a fast one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median sorts a copy of v and returns its middle value.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// sliceOf maps a completion time (ns since the window opened) to its
// slice index, or -1 when the op finished outside the window.
func sliceOf(doneNS, windowNS int64, slices int) int {
	if doneNS < 0 || doneNS >= windowNS {
		return -1
	}
	return int(doneNS * int64(slices) / windowNS)
}

// perSliceRatio divides num[i] by den[i] slice by slice, skipping slices
// with an empty denominator, and returns the median: one noisy-neighbour
// burst then costs one slice, not the run.
func perSliceRatio(num, den []float64) float64 {
	var r []float64
	for i := range num {
		if den[i] > 0 {
			r = append(r, num[i]/den[i])
		}
	}
	return median(r)
}
