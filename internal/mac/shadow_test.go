package mac

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/sim"
)

func TestProbabilisticReception(t *testing.T) {
	// 50% channel: roughly half of 200 frames arrive; the rest are
	// counted as faded, never as collisions.
	eng := sim.New(42)
	loc := fixedLocator{1: geo.Pt(0, 0), 2: geo.Pt(100, 0)}
	cfg := DefaultConfig(300)
	cfg.Receives = func(d, u float64) bool { return u < 0.5 }
	m := New(eng, cfg, loc)
	p1 := m.Attach(1, nil)
	var got int
	m.Attach(2, func(Frame) { got++ })

	const frames = 200
	for i := 0; i < frames; i++ {
		p1.Broadcast(hb(1), 50)
	}
	eng.Run()

	c := m.ports[m.rank[2]].Counters()
	if got < frames/4 || got > frames*3/4 {
		t.Fatalf("received %d of %d at p=0.5", got, frames)
	}
	if c.FramesFaded == 0 {
		t.Fatal("no frames faded")
	}
	if c.FramesLost != 0 {
		t.Fatalf("fading miscounted as collisions: %d", c.FramesLost)
	}
	if int(c.FramesReceived+c.FramesFaded) != frames {
		t.Fatalf("received %d + faded %d != %d", c.FramesReceived, c.FramesFaded, frames)
	}
}

func TestProbabilisticReceptionDistanceDependent(t *testing.T) {
	// A steep distance-dependent channel: the near receiver hears
	// (almost) everything, the far one (almost) nothing.
	eng := sim.New(7)
	loc := fixedLocator{1: geo.Pt(0, 0), 2: geo.Pt(50, 0), 3: geo.Pt(250, 0)}
	cfg := DefaultConfig(300)
	cfg.Receives = func(d, u float64) bool {
		if d < 100 {
			return u < 0.95
		}
		return u < 0.05
	}
	m := New(eng, cfg, loc)
	p1 := m.Attach(1, nil)
	var near, far int
	m.Attach(2, func(Frame) { near++ })
	m.Attach(3, func(Frame) { far++ })

	for i := 0; i < 100; i++ {
		p1.Broadcast(hb(1), 50)
	}
	eng.Run()

	if near < 80 {
		t.Fatalf("near receiver got %d/100, want most", near)
	}
	if far > 20 {
		t.Fatalf("far receiver got %d/100, want few", far)
	}
}

func TestProbabilisticReceptionDeterministic(t *testing.T) {
	run := func() (uint64, uint64) {
		eng := sim.New(11)
		loc := fixedLocator{1: geo.Pt(0, 0), 2: geo.Pt(100, 0)}
		cfg := DefaultConfig(300)
		cfg.Receives = func(d, u float64) bool { return u < 0.3 }
		m := New(eng, cfg, loc)
		p1 := m.Attach(1, nil)
		m.Attach(2, nil)
		for i := 0; i < 50; i++ {
			p1.Broadcast(hb(1), 50)
		}
		eng.Run()
		c := m.ports[m.rank[2]].Counters()
		return c.FramesReceived, c.FramesFaded
	}
	r1, f1 := run()
	r2, f2 := run()
	if r1 != r2 || f1 != f2 {
		t.Fatalf("probabilistic channel nondeterministic: (%d,%d) vs (%d,%d)", r1, f1, r2, f2)
	}
}
