package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (the common "type 7" estimator).
// It returns NaN for empty input. It is the exact reference LogHist's
// bucketed quantiles are held to.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func TestQuantileKnownValues(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1},
		{0.25, 2},
		{0.5, 3},
		{0.75, 4},
		{1, 5},
		{0.125, 1.5}, // interpolated
	}
	for _, tt := range tests {
		if got := quantile(xs, tt.q); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestQuantileEdges(t *testing.T) {
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Fatal("empty input should be NaN")
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Fatalf("single sample = %v", got)
	}
	// Out-of-range q clamps.
	if got := quantile([]float64{1, 2}, -1); got != 1 {
		t.Fatalf("q<0 = %v", got)
	}
	if got := quantile([]float64{1, 2}, 2); got != 2 {
		t.Fatalf("q>1 = %v", got)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("input mutated")
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64()*100 - 50
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := quantile(xs, q)
			if v < prev-1e-9 || v < sorted[0]-1e-9 || v > sorted[n-1]+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
