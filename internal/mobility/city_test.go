package mobility

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

func cityCfg(t *testing.T) CityConfig {
	t.Helper()
	return CityConfig{Graph: NewCampusGraph()}
}

func TestCityConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*CityConfig)
		ok   bool
	}{
		{"valid", func(*CityConfig) {}, true},
		{"nil graph", func(c *CityConfig) { c.Graph = nil }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := cityCfg(t)
			tt.mut(&cfg)
			if err := cfg.Validate(); (err == nil) != tt.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestCityStartsAtIntersection(t *testing.T) {
	cfg := cityCfg(t)
	c := NewCity(cfg, rand.New(rand.NewSource(1)))
	start := c.Position(0)
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

func TestCitySpeedWithinLimits(t *testing.T) {
	c := NewCity(cityCfg(t), rand.New(rand.NewSource(2)))
	moving := 0
	for s := 0.0; s < 1200; s += 0.5 {
		v := c.Speed(sim.Seconds(s))
		if v != 0 {
			moving++
			if v < 8 || v > 13 {
				t.Fatalf("speed %v outside the campus 8-13 m/s band", v)
			}
		}
	}
	if moving == 0 {
		t.Fatal("node never moved")
	}
}

func TestCityStaysOnCampus(t *testing.T) {
	area := geo.Rect{Min: geo.Pt(-1, -1), Max: geo.Pt(1201, 901)}
	c := NewCity(cityCfg(t), rand.New(rand.NewSource(3)))
	for s := 0.0; s < 2000; s += 3.1 {
		p := c.Position(sim.Seconds(s))
		if !inside(area, p) {
			t.Fatalf("node off campus at t=%v: %v", s, p)
		}
	}
}

func TestCityContinuity(t *testing.T) {
	c := NewCity(cityCfg(t), rand.New(rand.NewSource(4)))
	prev := c.Position(0)
	for s := 0.1; s < 600; s += 0.1 {
		cur := c.Position(sim.Seconds(s))
		if d := cur.Dist(prev); d > 13*0.1+1e-6 {
			t.Fatalf("teleport at t=%v: moved %vm in 100ms", s, d)
		}
		prev = cur
	}
}

func TestCityVisitsArterial(t *testing.T) {
	// With weighted destinations, nodes should pass near the arterial
	// crossing (600, 450) reasonably often.
	g := NewCampusGraph()
	cfg := cityCfg(t)
	cfg.Graph = g
	crossing := geo.Pt(600, 450)
	hits := 0
	for seed := int64(0); seed < 10; seed++ {
		c := NewCity(cfg, rand.New(rand.NewSource(seed)))
		for s := 0.0; s < 1800; s += 5 {
			if c.Position(sim.Seconds(s)).Dist(crossing) < 160 {
				hits++
				break
			}
		}
	}
	if hits < 5 {
		t.Fatalf("only %d/10 nodes ever approached the arterial crossing", hits)
	}
}

func TestCityDeterminism(t *testing.T) {
	mk := func() []geo.Point {
		c := NewCity(cityCfg(t), rand.New(rand.NewSource(11)))
		var ps []geo.Point
		for s := 0.0; s < 500; s += 25 {
			ps = append(ps, c.Position(sim.Seconds(s)))
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

func TestCityPausesAtDestinations(t *testing.T) {
	c := NewCity(cityCfg(t), rand.New(rand.NewSource(5)))
	// A leg ends at an intersection with no stop, a red light in
	// [cityStopMin, cityStopMax) or, at a trip's destination, exactly
	// cityDestPause; a red light lands on cityDestPause to the
	// nanosecond with negligible probability.
	c.Position(sim.Seconds(2000))
	dest, red := 0, 0
	for i, l := range c.traj.legs[1:] {
		switch p := time.Duration(l.end - l.moveEnd); {
		case p == cityDestPause:
			dest++
		case p >= cityStopMin && p < cityStopMax:
			red++
		case p != 0:
			t.Fatalf("leg %d pauses %v", i, p)
		}
	}
	if dest < 5 || red < 5 {
		t.Fatalf("%d destination pauses and %d red lights in 2000 s", dest, red)
	}
}

func TestCityAverageSpeedPlausible(t *testing.T) {
	// Average moving speed should be within the road-limit band; a bug in
	// leg timing would distort it.
	c := NewCity(cityCfg(t), rand.New(rand.NewSource(6)))
	var sum float64
	var n int
	for s := 0.0; s < 3000; s += 0.5 {
		if v := c.Speed(sim.Seconds(s)); v > 0 {
			sum += v
			n++
		}
	}
	avg := sum / float64(n)
	if math.IsNaN(avg) || avg < 8 || avg > 13 {
		t.Fatalf("average moving speed = %v, want within [8,13]", avg)
	}
}
