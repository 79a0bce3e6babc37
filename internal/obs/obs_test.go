package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRegistryIdempotent pins the sharing contract: the same
// (name, labels) returns the same histogram and keeps one series per
// counter, read through the first function registered; different
// labels split.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("repro_test_seconds", "help", "node", "1")
	if b := r.Histogram("repro_test_seconds", "", "node", "1"); a != b {
		t.Fatal("same (name, labels) returned distinct histograms")
	}
	if c := r.Histogram("repro_test_seconds", "", "node", "2"); a == c {
		t.Fatal("distinct labels shared a histogram")
	}
	r.CounterFunc("repro_test_total", "help", func() uint64 { return 1 }, "node", "1")
	r.CounterFunc("repro_test_total", "", func() uint64 { return 3 }, "node", "1")
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("got %d series, want 3", len(snap))
	}
	if c := snap[2]; c.Name != "repro_test_total" || c.Value != 1 {
		t.Fatalf("counter series = %+v, want repro_test_total reading 1", c)
	}
}

// TestKindConflictPanics pins re-registration under another kind as a
// wiring-time programming error.
func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("repro_conflict", "", func() uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.GaugeFunc("repro_conflict", "", func() float64 { return 0 })
}

// TestInvalidNamePanics pins the Prometheus name grammar.
func TestInvalidNamePanics(t *testing.T) {
	for _, bad := range []string{"", "9starts_with_digit", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			NewRegistry().Histogram(bad, "")
		}()
	}
}

// TestPrometheusExposition pins the text format: one HELP/TYPE header
// per name, labeled series beneath it, summaries with quantiles.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 2; i++ {
		sent := uint64(10 * (i + 1))
		r.CounterFunc("repro_sent_total", "datagrams sent", func() uint64 { return sent }, "node", fmt.Sprint(i))
	}
	r.GaugeFunc("repro_depth", "queue depth", func() float64 { return 7 })
	h := r.Histogram("repro_lat_seconds", "handler latency")
	for i := 0; i < 100; i++ {
		h.Observe(0.001 * float64(i+1))
	}
	r.GaugeFunc("repro_fn", "", func() float64 { return 2.5 })
	r.CounterFunc("repro_cfn_total", "", func() uint64 { return 42 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP repro_sent_total datagrams sent",
		"# TYPE repro_sent_total counter",
		`repro_sent_total{node="0"} 10`,
		`repro_sent_total{node="1"} 20`,
		"# TYPE repro_depth gauge",
		"repro_depth 7",
		"# TYPE repro_lat_seconds summary",
		`repro_lat_seconds{quantile="0.5"}`,
		`repro_lat_seconds{quantile="0.99"}`,
		"repro_lat_seconds_sum",
		"repro_lat_seconds_count 100",
		"repro_fn 2.5",
		"repro_cfn_total 42",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
	// Exactly one TYPE header for the grouped counter family.
	if n := strings.Count(out, "# TYPE repro_sent_total"); n != 1 {
		t.Errorf("repro_sent_total TYPE header appears %d times, want 1", n)
	}
}

// TestJSONSnapshot pins the JSON encoder's schema.
func TestJSONSnapshot(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("repro_a_total", "", func() uint64 { return 5 }, "node", "3")
	h := r.Histogram("repro_b_seconds", "")
	h.Observe(1.0)
	h.Observe(3.0)

	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Series []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
			Kind   string            `json:"kind"`
			Value  *float64          `json:"value"`
			Count  *int              `json:"count"`
			Sum    *float64          `json:"sum"`
			P50    *float64          `json:"p50"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, b.String())
	}
	if len(doc.Series) != 2 {
		t.Fatalf("got %d series, want 2", len(doc.Series))
	}
	a, hh := doc.Series[0], doc.Series[1]
	if a.Name != "repro_a_total" || a.Value == nil || *a.Value != 5 || a.Labels["node"] != "3" {
		t.Errorf("counter series wrong: %+v", a)
	}
	if hh.Name != "repro_b_seconds" || hh.Count == nil || *hh.Count != 2 || *hh.Sum != 4 {
		t.Errorf("summary series wrong: %+v", hh)
	}
}

// TestConcurrentUse exercises registration and scraping under the race
// detector.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c atomic.Uint64
			r.CounterFunc("repro_conc_total", "", c.Load, "g", fmt.Sprint(g))
			h := r.Histogram("repro_conc_seconds", "")
			for i := 0; i < 1000; i++ {
				c.Add(1)
				h.Observe(float64(i))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var b strings.Builder
			_ = r.WritePrometheus(&b)
			_ = r.WriteJSON(&b)
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	var total uint64
	for _, s := range r.Snapshot() {
		if s.Name == "repro_conc_total" {
			total += uint64(s.Value)
		}
	}
	if total != 4000 {
		t.Fatalf("counter total = %d, want 4000", total)
	}
}

// TestSnapshotStableOrder pins the sorted-by-name snapshot order the
// encoders rely on for grouping.
func TestSnapshotStableOrder(t *testing.T) {
	r := NewRegistry()
	zero := func() uint64 { return 0 }
	r.GaugeFunc("repro_z", "", func() float64 { return 0 })
	r.CounterFunc("repro_a_total", "", zero, "node", "1")
	r.CounterFunc("repro_a_total", "", zero, "node", "0")
	names := []string{}
	for _, s := range r.Snapshot() {
		names = append(names, s.Name+labelString(s.Labels))
	}
	want := []string{`repro_a_total{node="1"}`, `repro_a_total{node="0"}`, "repro_z"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("snapshot order %v, want %v", names, want)
	}
}
