package mobility

import (
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/sim"
)

func TestStatic(t *testing.T) {
	s := Static{P: geo.Pt(3, 4)}
	for _, at := range []sim.Time{0, sim.Seconds(100), sim.Seconds(1e6)} {
		if s.Position(at) != geo.Pt(3, 4) {
			t.Fatal("static node moved")
		}
		if s.Speed(at) != 0 {
			t.Fatal("static node has speed")
		}
	}
}

// inside reports whether p lies within r, borders included.
func inside(r geo.Rect, p geo.Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

func waypointCfg() WaypointConfig {
	return WaypointConfig{
		Area:     geo.NewRect(5000, 5000),
		MinSpeed: 10,
		MaxSpeed: 10,
	}
}

func TestWaypointConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*WaypointConfig)
		ok   bool
	}{
		{"valid", func(*WaypointConfig) {}, true},
		{"empty area", func(c *WaypointConfig) { c.Area = geo.Rect{} }, false},
		{"negative speed", func(c *WaypointConfig) { c.MinSpeed = -1 }, false},
		{"inverted speeds", func(c *WaypointConfig) { c.MinSpeed = 20; c.MaxSpeed = 10 }, false},
		{"zero speeds ok", func(c *WaypointConfig) { c.MinSpeed = 0; c.MaxSpeed = 0 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := waypointCfg()
			tt.mut(&cfg)
			if err := cfg.Validate(); (err == nil) != tt.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestWaypointStaysInArea(t *testing.T) {
	cfg := waypointCfg()
	cfg.MinSpeed, cfg.MaxSpeed = 1, 40
	w := NewWaypoint(cfg, rand.New(rand.NewSource(1)))
	for s := 0.0; s < 2000; s += 7.3 {
		p := w.Position(sim.Seconds(s))
		if !inside(cfg.Area, p) {
			t.Fatalf("node left area at t=%vs: %v", s, p)
		}
	}
}

func TestWaypointContinuity(t *testing.T) {
	// Positions sampled 100 ms apart can differ by at most
	// maxSpeed * 0.1 m (plus epsilon).
	cfg := waypointCfg()
	cfg.MinSpeed, cfg.MaxSpeed = 5, 40
	w := NewWaypoint(cfg, rand.New(rand.NewSource(2)))
	prev := w.Position(0)
	for s := 0.1; s < 500; s += 0.1 {
		cur := w.Position(sim.Seconds(s))
		if d := cur.Dist(prev); d > 40*0.1+1e-6 {
			t.Fatalf("teleport at t=%vs: %v", s, d)
		}
		prev = cur
	}
}

func TestWaypointSpeedWithinRange(t *testing.T) {
	cfg := waypointCfg()
	cfg.MinSpeed, cfg.MaxSpeed = 3, 12
	w := NewWaypoint(cfg, rand.New(rand.NewSource(3)))
	sawMoving := false
	for s := 0.0; s < 1000; s += 0.5 {
		v := w.Speed(sim.Seconds(s))
		if v != 0 {
			sawMoving = true
			if v < 3 || v > 12 {
				t.Fatalf("speed %v outside [3,12]", v)
			}
		}
	}
	if !sawMoving {
		t.Fatal("node never moved")
	}
}

func TestWaypointZeroSpeedIsStatic(t *testing.T) {
	cfg := waypointCfg()
	cfg.MinSpeed, cfg.MaxSpeed = 0, 0
	w := NewWaypoint(cfg, rand.New(rand.NewSource(4)))
	p0 := w.Position(0)
	if w.Position(sim.Seconds(3600)) != p0 {
		t.Fatal("zero-speed node moved")
	}
	if w.Speed(sim.Seconds(100)) != 0 {
		t.Fatal("zero-speed node has nonzero speed")
	}
}

func TestWaypointDeterminism(t *testing.T) {
	mk := func(seed int64) []geo.Point {
		w := NewWaypoint(waypointCfg(), rand.New(rand.NewSource(seed)))
		var ps []geo.Point
		for s := 0.0; s < 300; s += 10 {
			ps = append(ps, w.Position(sim.Seconds(s)))
		}
		return ps
	}
	a, b := mk(7), mk(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at sample %d", i)
		}
	}
}

func TestWaypointBackwardQueries(t *testing.T) {
	w := NewWaypoint(waypointCfg(), rand.New(rand.NewSource(5)))
	p100 := w.Position(sim.Seconds(100))
	p50 := w.Position(sim.Seconds(50)) // backwards in time
	if w.Position(sim.Seconds(100)) != p100 {
		t.Fatal("repeated query changed answer")
	}
	if w.Position(sim.Seconds(50)) != p50 {
		t.Fatal("backward query unstable")
	}
}

func TestWaypointPausesAtWaypoints(t *testing.T) {
	w := NewWaypoint(waypointCfg(), rand.New(rand.NewSource(6)))
	// Every leg after the seed leg moves, then dwells the paper's 1 s at
	// its waypoint with zero speed.
	w.Position(sim.Seconds(2000))
	legs := w.traj.legs[1:]
	if len(legs) < 5 {
		t.Fatalf("only %d legs in 2000 s", len(legs))
	}
	for i, l := range legs {
		if l.end-l.moveEnd != sim.Second {
			t.Fatalf("leg %d dwells %v, want 1s", i, l.end-l.moveEnd)
		}
		if v := w.Speed(l.moveEnd + sim.Second/2); v != 0 {
			t.Fatalf("leg %d: speed %v during the pause", i, v)
		}
	}
}
