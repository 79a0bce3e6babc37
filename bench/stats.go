package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// sample, interpolating linearly between the two closest ranks. It is
// exact in the sense that nothing is bucketed: every sample the run
// took is in sorted.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// percentileLadder is the set of percentiles the benchmark is willing
// to report, lowest first.
var percentileLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: fewer and the value is set by a handful of outliers.
const minBeyond = 10

// highestPercentile returns the highest ladder percentile that still
// has at least minBeyond of the n samples beyond it, and false when
// even the median does not.
func highestPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range percentileLadder {
		if float64(n)*(1-p) >= minBeyond-1e-9 { // 100*(1-0.9) is 9.999999999999998
			best, ok = p, true
		}
	}
	return best, ok
}

// summary describes the repeats of one metric.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize reduces the repeats of one metric. Quartiles follow
// Python's statistics.quantiles(values, n=4) (the exclusive method),
// because that is what the acceptance run computes its spreads with;
// with fewer than two values they collapse onto the value itself.
func summarize(values []float64) summary {
	s := summary{N: len(values)}
	if s.N == 0 {
		nan := math.NaN()
		s.Median, s.Min, s.Max, s.Q1, s.Q3 = nan, nan, nan, nan, nan
		return s
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	s.Min, s.Max = v[0], v[s.N-1]
	s.Median = quantile(v, 0.5)
	s.Q1, s.Q3 = quartile(v, 1), quartile(v, 3)
	return s
}

// quartile is cut point i (1..3) of statistics.quantiles(sorted, n=4):
// rank i*(n+1)/4 between neighbouring samples, extrapolating from the
// outermost pair when the rank falls outside the sample, as Python does.
func quartile(sorted []float64, i int) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	j := i * (n + 1) / 4
	j = max(1, min(j, n-1))
	delta := float64(i*(n+1) - j*4)
	return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise a bound has to be read against.
func (s summary) spread() float64 {
	if s.N < 2 || s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// unstable reports whether the metric's own repeats spread wider than
// the bound it is judged by, in which case no verdict can rest on it.
func (s summary) unstable(bound float64) bool {
	return bound > 0 && s.spread() > bound
}

// spreadExempt names the one metric whose spread is not judged: set-up
// takes tens of milliseconds, so its repeats scatter by a large share of
// very little. Only its median is held to the bound, as the acceptance
// run does.
const spreadExempt = "setup_s"

// median is summarize(values).Median for callers that need nothing else.
func median(values []float64) float64 { return summarize(values).Median }
