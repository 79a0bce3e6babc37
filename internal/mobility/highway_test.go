package mobility

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/sim"
)

func highwayCfg(t *testing.T) HighwayConfig {
	t.Helper()
	return HighwayConfig{Graph: NewHighwayGraph()}
}

func TestHighwayConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*HighwayConfig)
		ok   bool
	}{
		{"valid", func(*HighwayConfig) {}, true},
		{"nil graph", func(c *HighwayConfig) { c.Graph = nil }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := highwayCfg(t)
			tt.mut(&cfg)
			if err := cfg.Validate(); (err == nil) != tt.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestHighwayGraphContract(t *testing.T) {
	g := NewHighwayGraph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.MaxSpeedLimit(); got != 33 {
		t.Fatalf("MaxSpeedLimit = %v, want 33 (mainline)", got)
	}
}

func TestHighwayStartsAtIntersection(t *testing.T) {
	cfg := highwayCfg(t)
	h := NewHighway(cfg, rand.New(rand.NewSource(1)))
	start := h.Position(0)
	found := false
	for i := 0; i < cfg.Graph.Intersections(); i++ {
		if cfg.Graph.Point(i) == start {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("start %v is not an intersection", start)
	}
}

func TestHighwaySpeedWithinLimits(t *testing.T) {
	h := NewHighway(highwayCfg(t), rand.New(rand.NewSource(2)))
	moving := 0
	for s := 0.0; s < 1200; s += 0.5 {
		v := h.Speed(sim.Seconds(s))
		if v != 0 {
			moving++
			if v < 14 || v > 33 {
				t.Fatalf("speed %v outside [14,33] (ramp..mainline)", v)
			}
			if v > h.cruise+1e-9 {
				t.Fatalf("speed %v exceeds cruise %v", v, h.cruise)
			}
		}
	}
	if moving == 0 {
		t.Fatal("vehicle never moved")
	}
}

func TestHighwayStaysOnCorridor(t *testing.T) {
	area := geo.Rect{Min: geo.Pt(-1, -1), Max: geo.Pt(3501, 61)}
	h := NewHighway(highwayCfg(t), rand.New(rand.NewSource(3)))
	for s := 0.0; s < 2000; s += 3.1 {
		p := h.Position(sim.Seconds(s))
		if !inside(area, p) {
			t.Fatalf("vehicle off corridor at t=%v: %v", s, p)
		}
	}
}

func TestHighwayContinuity(t *testing.T) {
	h := NewHighway(highwayCfg(t), rand.New(rand.NewSource(4)))
	prev := h.Position(0)
	for s := 0.1; s < 600; s += 0.1 {
		cur := h.Position(sim.Seconds(s))
		if d := cur.Dist(prev); d > 33*0.1+1e-6 {
			t.Fatalf("teleport at t=%v: moved %vm in 100ms", s, d)
		}
		prev = cur
	}
}

func TestHighwayDeterminism(t *testing.T) {
	mk := func() []geo.Point {
		h := NewHighway(highwayCfg(t), rand.New(rand.NewSource(11)))
		var ps []geo.Point
		for s := 0.0; s < 500; s += 25 {
			ps = append(ps, h.Position(sim.Seconds(s)))
		}
		return ps
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at sample %d", i)
		}
	}
}

func TestHighwayAverageSpeedPlausible(t *testing.T) {
	// Trips are dominated by mainline driving, so the average moving
	// speed should land well above the ramp limit and below mainline.
	h := NewHighway(highwayCfg(t), rand.New(rand.NewSource(6)))
	var sum float64
	var n int
	for s := 0.0; s < 3000; s += 0.5 {
		if v := h.Speed(sim.Seconds(s)); v > 0 {
			sum += v
			n++
		}
	}
	avg := sum / float64(n)
	if math.IsNaN(avg) || avg < 16 || avg > 33 {
		t.Fatalf("average moving speed = %v, want within [16,33]", avg)
	}
}

func TestHighwayPlatoonTiers(t *testing.T) {
	cfg := highwayCfg(t)
	want := []float64{24, 24 + 8.0/3, 24 + 16.0/3, 32}
	seen := map[int]bool{}
	for seed := int64(0); seed < 32; seed++ {
		h := NewHighway(cfg, rand.New(rand.NewSource(seed)))
		k := h.platoon
		if k < 0 || k >= platoons {
			t.Fatalf("platoon %d out of range", k)
		}
		if math.Abs(h.cruise-want[k]) > 1e-9 {
			t.Fatalf("platoon %d cruise = %v, want %v", k, h.cruise, want[k])
		}
		seen[k] = true
	}
	if len(seen) < 3 {
		t.Fatalf("only %d distinct platoons across 32 vehicles", len(seen))
	}
}

func TestHighwayPlatoonSharedEntry(t *testing.T) {
	// Same-platoon vehicles enter at the same intersection — the seed
	// of convoy clustering.
	cfg := highwayCfg(t)
	entries := map[int]geo.Point{}
	for seed := int64(0); seed < 48; seed++ {
		h := NewHighway(cfg, rand.New(rand.NewSource(seed)))
		p := h.Position(0)
		if prev, ok := entries[h.platoon]; ok && prev != p {
			t.Fatalf("platoon %d entered at both %v and %v", h.platoon, prev, p)
		}
		entries[h.platoon] = p
	}
}
