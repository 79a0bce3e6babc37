package mobility

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

func sameBits(a, b geo.Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

// TestLegModelReproducesPosition is the contract netsim's leg slab
// rests on, for all five built-in models: answering from the last leg
// while it Covers the instant — and asking LegAt only otherwise — gives
// Position(at) bit for bit, at random, repeated, backward-jumping and
// exact-leg-boundary instants. The reference is a second instance from
// the same seed that is only ever asked Position.
func TestLegModelReproducesPosition(t *testing.T) {
	models := map[string]func() Model{
		"static": func() Model { return Static{P: geo.Pt(12.5, -3)} },
		"waypoint": func() Model {
			return NewWaypoint(waypointCfg(), rand.New(rand.NewSource(21)))
		},
		"city":      func() Model { return NewCity(cityCfg(t), rand.New(rand.NewSource(23))) },
		"manhattan": func() Model { return NewManhattan(manhattanCfg(t), rand.New(rand.NewSource(24))) },
		"highway":   func() Model { return NewHighway(highwayCfg(t), rand.New(rand.NewSource(25))) },
	}
	const horizon = 20 * time.Minute
	for name, build := range models {
		t.Run(name, func(t *testing.T) {
			ref := build()
			lm, ok := build().(LegModel)
			if !ok {
				t.Fatalf("%T does not implement LegModel", ref)
			}
			var slab Leg // as netsim's locator keeps it: zero covers nothing
			hits := 0
			check := func(at sim.Time) {
				t.Helper()
				if slab.Covers(at) {
					hits++
				} else {
					slab = lm.LegAt(at)
					if !slab.Covers(at) {
						t.Fatalf("LegAt(%v) returned a leg [%v,%v) that does not cover it", at, slab.start, slab.end)
					}
				}
				if got, want := slab.Position(at), ref.Position(at); !sameBits(got, want) {
					t.Fatalf("at %v: leg says %v, Position says %v", at, got, want)
				}
			}
			rng := rand.New(rand.NewSource(7))
			at := sim.Time(0)
			for i := 0; i < 4000; i++ {
				switch rng.Intn(8) {
				case 0: // jump anywhere, backwards included
					at = sim.Time(rng.Int63n(int64(horizon)))
				case 1: // repeat the instant
				case 2: // the leg's own boundaries and their neighbours
					for _, b := range []sim.Time{slab.start, slab.moveEnd, slab.end - 1, slab.end, slab.end + 1, slab.start - 1} {
						if b >= 0 && b < sim.Time(horizon) {
							check(b)
						}
					}
				default: // the simulator's pattern: small steps forward
					at += sim.Time(rng.Int63n(int64(300 * time.Millisecond)))
				}
				if at >= sim.Time(horizon) {
					at = 0
				}
				check(at)
			}
			if hits == 0 {
				t.Fatal("the kept leg never answered: the test exercised nothing")
			}
		})
	}
}
