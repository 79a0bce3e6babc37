package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestLogHistZeroValue(t *testing.T) {
	var h LogHist
	if h.N() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("zero LogHist not neutral: %+v", h)
	}
	h.Add(-1) // ignored
	h.Add(math.NaN())
	if h.N() != 0 {
		t.Fatal("negative/NaN sample was folded")
	}
}

func TestLogHistExactMoments(t *testing.T) {
	var h LogHist
	xs := []float64{0.001, 0.5, 2.5, 0.02, 7}
	sum := 0.0
	for _, x := range xs {
		h.Add(x)
		sum += x
	}
	if h.N() != len(xs) {
		t.Fatalf("N = %d", h.N())
	}
	if math.Abs(h.Sum()-sum) > 1e-12 || math.Abs(h.Mean()-sum/5) > 1e-12 {
		t.Fatalf("sum/mean = %v/%v, want %v/%v", h.Sum(), h.Mean(), sum, sum/5)
	}
	if h.Min() != 0.001 || h.Max() != 7 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

// TestLogHistQuantileError checks the documented relative error bound
// against the exact sort-based Quantile over a lognormal-ish sample.
func TestLogHistQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var h LogHist
	xs := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := math.Exp(rng.NormFloat64()*1.2 - 1) // median ~0.37 s
		h.Add(v)
		xs = append(xs, v)
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
		exact := quantile(xs, q)
		got := h.Quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 0.06 {
			t.Fatalf("q=%v: est %v vs exact %v (rel err %.3f)", q, got, exact, rel)
		}
	}
	if h.Quantile(0) != h.Min() || h.Quantile(1) != h.Max() {
		t.Fatal("extreme quantiles should pin to min/max")
	}
}

// TestLogHistMerge checks that merging partial histograms equals
// folding the union, the mergeable-accumulator contract.
func TestLogHistMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var whole, a, b LogHist
	for i := 0; i < 5000; i++ {
		v := math.Exp(rng.NormFloat64())
		whole.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(b)
	// Buckets, count and extremes merge exactly; sum only up to float
	// addition order.
	if a.buckets != whole.buckets || a.count != whole.count ||
		a.min != whole.min || a.max != whole.max {
		t.Fatal("merged histogram differs from whole-sample histogram")
	}
	if math.Abs(a.Sum()-whole.Sum()) > 1e-9*whole.Sum() {
		t.Fatalf("merged sum %v vs whole %v", a.Sum(), whole.Sum())
	}
	var empty LogHist
	empty.Merge(whole)
	if empty != whole {
		t.Fatal("merge into zero value differs")
	}
	before := a
	a.Merge(LogHist{})
	if a != before {
		t.Fatal("merging the zero value changed the histogram")
	}
}

func TestLogHistOutOfRangeClamps(t *testing.T) {
	var h LogHist
	h.Add(1e-9) // below base: bucket 0
	h.Add(1e9)  // above top edge: last bucket
	if h.N() != 2 {
		t.Fatalf("N = %d", h.N())
	}
	if h.Quantile(0.0) != 1e-9 || h.Quantile(1.0) != 1e9 {
		t.Fatalf("clamped extremes lost: %v %v", h.Quantile(0), h.Quantile(1))
	}
}
