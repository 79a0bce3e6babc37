package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileIsExactOnSortedSamples(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4}, {0.9, 4.6},
	} {
		if got := quantile(s, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty sample must be NaN, not a number that looks measured")
	}
}

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 0, false},    // 2.5 beyond the median
		{19, 0, false},   // 9.5 beyond the median
		{20, 0.5, true},  // exactly 10 beyond the median
		{99, 0.5, true},  // 9.9 beyond p90
		{100, 0.9, true}, // exactly 10 beyond p90
		{999, 0.9, true},
		{1000, 0.99, true},
		{1400, 0.99, true}, // one udp-mesh slice
		{10000, 0.999, true},
		{800000, 0.9999, true},
	} {
		got, ok := highestPercentile(c.n)
		if ok != c.ok || got != c.want {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

// The quartiles must be the ones Python's statistics.quantiles(v, n=4)
// gives, because the acceptance run computes its spreads with it. The
// expected values below were produced by that function.
func TestSummarizeMatchesPythonQuartiles(t *testing.T) {
	for _, c := range []struct {
		v              []float64
		q1, median, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25}, // order must not matter
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // Python extrapolates outside a two-value sample
		{[]float64{46.7, 47.1, 46.9, 48.0, 46.8, 47.3, 47.0}, 46.8, 47.0, 47.3},
	} {
		s := summarize(c.v)
		if !near(s.Q1, c.q1) || !near(s.Median, c.median) || !near(s.Q3, c.q3) {
			t.Errorf("summarize(%v): q1 %v median %v q3 %v, want %v %v %v", c.v, s.Q1, s.Median, s.Q3, c.q1, c.median, c.q3)
		}
	}
	s := summarize([]float64{4, 2, 9})
	if s.N != 3 || s.Min != 2 || s.Max != 9 {
		t.Errorf("n/min/max: %+v", s)
	}
	one := summarize([]float64{5})
	if one.Q1 != 5 || one.Q3 != 5 || one.spread() != 0 {
		t.Errorf("one value has no spread: %+v", one)
	}
}

func TestUnstableWhenRepeatsSpreadWiderThanTheBound(t *testing.T) {
	tight := summarize([]float64{100, 101, 99, 100.5, 99.5, 100, 100.2, 99.8, 100.1, 99.9})
	if tight.unstable(0.07) {
		t.Errorf("spread %.3f flagged unstable at a 7%% bound", tight.spread())
	}
	wide := summarize([]float64{100, 130, 80, 120, 90, 100, 125, 85, 110, 95})
	if !wide.unstable(0.07) {
		t.Errorf("spread %.3f not flagged at a 7%% bound", wide.spread())
	}
	if wide.unstable(0.5) {
		t.Error("a bound wider than the spread is not unstable")
	}
}
