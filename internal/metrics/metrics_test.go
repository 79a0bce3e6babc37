package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestAggBasics(t *testing.T) {
	var a Agg
	if a.N() != 0 || a.Mean() != 0 {
		t.Fatal("zero value not neutral")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d", a.N())
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", a.Mean())
	}
}

func TestAggSingleSample(t *testing.T) {
	var a Agg
	a.Add(42)
	if a.N() != 1 || a.Mean() != 42 {
		t.Fatalf("single sample: n=%d mean=%v", a.N(), a.Mean())
	}
}

// Property: the streaming mean matches the naive sum over n.
func TestAggMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(50)
		xs := make([]float64, n)
		var a Agg
		for i := range xs {
			xs[i] = r.Float64()*200 - 100
			a.Add(xs[i])
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		return math.Abs(a.Mean()-mean) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", "speed", "reliability")
	tb.AddRow("10", "95.0%")
	tb.AddRow("30", "99.9%")
	out := tb.String()
	if !strings.Contains(out, "Fig X") {
		t.Fatal("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + separator + 2 rows
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[3], "10") || !strings.Contains(lines[3], "95.0%") {
		t.Fatalf("row wrong: %q", lines[3])
	}
	if len(tb.rows) != 2 || tb.rows[1][0] != "30" {
		t.Fatal("rows wrong")
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only")
	if got := len(tb.rows[0]); got != 3 {
		t.Fatalf("row len = %d, want 3", got)
	}
	_ = tb.String() // must not panic
}

func TestFormatters(t *testing.T) {
	if Pct(0.769) != "76.9%" {
		t.Fatalf("Pct = %q", Pct(0.769))
	}
	if F1(3.14159) != "3.1" || F2(3.14159) != "3.14" {
		t.Fatal("float formatters wrong")
	}
	if KB(123456) != "123.5kB" {
		t.Fatalf("KB = %q", KB(123456))
	}
}
