package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 0.99, true}, // 10 samples beyond p99
		{999, 0.98, true},  // p99 would leave 9 beyond
		{100000, 0.99, true},
		{52, 0.80, true},
		{20, 0.50, true},
		{19, 0, false},
		{0, 0, false},
	} {
		q, ok := tailPercentile(c.n)
		if ok != c.ok || (ok && math.Abs(q-c.want) > 1e-9) {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
		if ok {
			xs := make([]float64, c.n)
			for i := range xs {
				xs[i] = float64(i)
			}
			if _, beyond := percentile(xs, q); beyond < minBeyond {
				t.Errorf("n=%d: p%.0f has %d samples beyond it, want ≥ %d", c.n, q*100, beyond, minBeyond)
			}
		}
	}
}

func TestSummarizeOmitsTailWithTooFewSamples(t *testing.T) {
	s := summarize([]float64{3, 1, 2})
	if s.P50 != 2 || !math.IsNaN(s.Tail) || s.TailQ != 0 {
		t.Fatalf("summarize(3 samples) = %+v, want p50 2 and no tail", s)
	}
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // 2000 .. 1, unsorted
	}
	s = summarize(xs)
	if s.TailQ != 0.99 || s.Tail != 1980 || s.Beyond != 20 || s.P50 != 1000 {
		t.Fatalf("summarize(1..2000) = %+v, want p50 1000, p99 1980 with 20 beyond", s)
	}
}

func TestIQMIgnoresTheOuterQuarters(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{1, 3}, 2},
		{[]float64{100, 1, 2, 3, 4, 5, 6, -100}, 3.5}, // middle half: 2,3,4,5
		{[]float64{17.3, 17.3, 18.1, 18.1, 1000}, (17.3 + 18.1 + 18.1) / 3},
	} {
		if got := iqm(c.xs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("iqm(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(iqm(nil)) {
		t.Error("iqm(nil) is not NaN")
	}
}
