package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail estimated from fewer is mostly noise.
const minBeyond = 10

// p99Samples is the fewest samples with minBeyond beyond their p99.
const p99Samples = 100 * minBeyond

// percentile returns the nearest-rank q-quantile of samples (q in
// (0,1]) and how many samples lie beyond it. samples must be sorted.
func percentile(sorted []float64, q float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return math.NaN(), 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx], len(sorted) - 1 - idx
}

// tailPercentile picks the percentile a tail metric reports for n
// samples: p99 when at least minBeyond samples lie beyond it, else the
// highest whole percentile that still has minBeyond beyond it. ok is
// false when even the median would not.
func tailPercentile(n int) (q float64, ok bool) {
	for pct := 99; pct >= 50; pct-- {
		q = float64(pct) / 100
		idx := int(math.Ceil(q*float64(n))) - 1
		if idx >= 0 && n-1-idx >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// summary is a latency-style distribution reduced to what the
// benchmark reports.
type summary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	Tail   float64 `json:"tail"`
	TailQ  float64 `json:"tail_q"`
	Beyond int     `json:"beyond"`
}

// summarize sorts samples in place and reduces them. With too few
// samples for any tail, Tail is NaN and TailQ 0.
func summarize(samples []float64) summary {
	sort.Float64s(samples)
	s := summary{N: len(samples), P50: math.NaN(), Tail: math.NaN()}
	if len(samples) == 0 {
		return s
	}
	s.P50, _ = percentile(samples, 0.5)
	if q, ok := tailPercentile(len(samples)); ok {
		s.TailQ = q
		s.Tail, s.Beyond = percentile(samples, q)
	}
	return s
}

// median of a copy of xs (NaN when empty).
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c) == 0 {
		return math.NaN()
	}
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// iqm is the interquartile mean: the mean of the middle half of xs
// once sorted. Like a median it ignores the quarter of values at
// either end, so a burst of outside load does not move it; unlike a
// median it does not jump between the discrete levels a short
// sub-window's rate can take.
func iqm(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c) == 0 {
		return math.NaN()
	}
	mid := c[len(c)/4 : len(c)-len(c)/4]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// ratio is a/b, or 0 when b is 0 (a rate over no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
