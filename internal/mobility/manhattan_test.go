package mobility

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

func manhattanCfg(t *testing.T) ManhattanConfig {
	t.Helper()
	return ManhattanConfig{
		Graph:       NewManhattanGraph(),
		LightCycle:  30 * time.Second,
		RedFraction: 0.4,
		DestPause:   10 * time.Second,
	}
}

func TestManhattanConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*ManhattanConfig)
		ok   bool
	}{
		{"valid", func(*ManhattanConfig) {}, true},
		{"no lights", func(c *ManhattanConfig) { c.LightCycle = 0; c.RedFraction = 0 }, true},
		{"nil graph", func(c *ManhattanConfig) { c.Graph = nil }, false},
		{"negative cycle", func(c *ManhattanConfig) { c.LightCycle = -time.Second }, false},
		{"bad red fraction", func(c *ManhattanConfig) { c.RedFraction = 1.5 }, false},
		{"negative dest pause", func(c *ManhattanConfig) { c.DestPause = -time.Second }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := manhattanCfg(t)
			tt.mut(&cfg)
			if err := cfg.Validate(); (err == nil) != tt.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestManhattanGraphContract(t *testing.T) {
	g := NewManhattanGraph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.MaxSpeedLimit(); got != 14 {
		t.Fatalf("MaxSpeedLimit = %v, want 14 (avenues)", got)
	}
}

func TestManhattanStartsAtIntersection(t *testing.T) {
	cfg := manhattanCfg(t)
	m := NewManhattan(cfg, rand.New(rand.NewSource(1)))
	start := m.Position(0)
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

func TestManhattanSpeedWithinLimits(t *testing.T) {
	m := NewManhattan(manhattanCfg(t), rand.New(rand.NewSource(2)))
	moving := 0
	for s := 0.0; s < 1200; s += 0.5 {
		v := m.Speed(sim.Seconds(s))
		if v != 0 {
			moving++
			if v < 8 || v > 14 {
				t.Fatalf("speed %v outside the grid's 8-14 m/s tiers", v)
			}
		}
	}
	if moving == 0 {
		t.Fatal("vehicle never moved")
	}
}

func TestManhattanStaysOnGrid(t *testing.T) {
	area := geo.Rect{Min: geo.Pt(-1, -1), Max: geo.Pt(991, 771)}
	m := NewManhattan(manhattanCfg(t), rand.New(rand.NewSource(3)))
	for s := 0.0; s < 2000; s += 3.1 {
		p := m.Position(sim.Seconds(s))
		if !inside(area, p) {
			t.Fatalf("vehicle off grid at t=%v: %v", s, p)
		}
	}
}

func TestManhattanContinuity(t *testing.T) {
	m := NewManhattan(manhattanCfg(t), rand.New(rand.NewSource(4)))
	prev := m.Position(0)
	for s := 0.1; s < 600; s += 0.1 {
		cur := m.Position(sim.Seconds(s))
		if d := cur.Dist(prev); d > 14*0.1+1e-6 {
			t.Fatalf("teleport at t=%v: moved %vm in 100ms", s, d)
		}
		prev = cur
	}
}

func TestManhattanDeterminism(t *testing.T) {
	mk := func() []geo.Point {
		m := NewManhattan(manhattanCfg(t), rand.New(rand.NewSource(11)))
		var ps []geo.Point
		for s := 0.0; s < 500; s += 25 {
			ps = append(ps, m.Position(sim.Seconds(s)))
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

func TestManhattanAverageSpeedPlausible(t *testing.T) {
	m := NewManhattan(manhattanCfg(t), rand.New(rand.NewSource(6)))
	var sum float64
	var n int
	for s := 0.0; s < 3000; s += 0.5 {
		if v := m.Speed(sim.Seconds(s)); v > 0 {
			sum += v
			n++
		}
	}
	avg := sum / float64(n)
	if math.IsNaN(avg) || avg < 8 || avg > 14 {
		t.Fatalf("average moving speed = %v, want within [8,14]", avg)
	}
}

func TestManhattanWaitsAtRedLights(t *testing.T) {
	// With no parking dwell, every zero-speed second is a red light:
	// heavy red fractions must produce waits, disabled lights none.
	pausedSeconds := func(cycle time.Duration, red float64) int {
		cfg := manhattanCfg(t)
		cfg.LightCycle, cfg.RedFraction = cycle, red
		cfg.DestPause = 0
		m := NewManhattan(cfg, rand.New(rand.NewSource(7)))
		paused := 0
		for s := 0.0; s < 2000; s += 1 {
			if m.Speed(sim.Seconds(s)) == 0 {
				paused++
			}
		}
		return paused
	}
	if got := pausedSeconds(40*time.Second, 0.9); got < 100 {
		t.Fatalf("90%%-red lights produced only %d paused seconds", got)
	}
	if got := pausedSeconds(0, 0); got > 20 {
		t.Fatalf("disabled lights still paused %d seconds", got)
	}
}

func TestManhattanLightScheduleShared(t *testing.T) {
	// The light schedule is city-wide: two vehicles querying the same
	// intersection at the same instant must agree on the wait.
	a := NewManhattan(manhattanCfg(t), rand.New(rand.NewSource(8)))
	b := NewManhattan(manhattanCfg(t), rand.New(rand.NewSource(9)))
	sawRed := false
	for i := 0; i < a.cfg.Graph.Intersections(); i++ {
		for s := 0.0; s < 90; s += 7.3 {
			wa := a.redWait(i, sim.Seconds(s))
			wb := b.redWait(i, sim.Seconds(s))
			if wa != wb {
				t.Fatalf("intersection %d at t=%v: waits differ (%v vs %v)", i, s, wa, wb)
			}
			if wa > 0 {
				sawRed = true
				if wa > 12*time.Second { // red phase is 0.4*30 s
					t.Fatalf("wait %v exceeds the red phase", wa)
				}
			}
		}
	}
	if !sawRed {
		t.Fatal("no red phase ever observed")
	}
}
