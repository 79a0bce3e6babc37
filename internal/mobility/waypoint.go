package mobility

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

// waypointPause is the dwell time at each waypoint: the paper's 1 s.
const waypointPause = time.Second

// WaypointConfig parameterizes the random waypoint model.
type WaypointConfig struct {
	// Area is the rectangular mobility area.
	Area geo.Rect
	// MinSpeed and MaxSpeed bound the per-leg speed draw, in m/s. Equal
	// values pin the speed; both zero yields a static node.
	MinSpeed, MaxSpeed float64
}

// Validate reports configuration errors.
func (c WaypointConfig) Validate() error {
	if c.Area.Width() <= 0 || c.Area.Height() <= 0 {
		return fmt.Errorf("mobility: empty area %v", c.Area)
	}
	if c.MinSpeed < 0 || c.MaxSpeed < c.MinSpeed {
		return fmt.Errorf("mobility: bad speed range [%v,%v]", c.MinSpeed, c.MaxSpeed)
	}
	return nil
}

// Waypoint implements the random waypoint model: pick a uniform point in
// the area and a uniform speed from [MinSpeed, MaxSpeed], travel there in
// a straight line, pause, repeat.
type Waypoint struct {
	cfg  WaypointConfig
	rng  *rand.Rand
	traj trajectory
}

var _ Model = (*Waypoint)(nil)

// NewWaypoint creates a random-waypoint node with a uniform random start
// position drawn from rng. It panics on invalid configuration (validated
// scenarios should call Validate first).
func NewWaypoint(cfg WaypointConfig, rng *rand.Rand) *Waypoint {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	w := &Waypoint{cfg: cfg, rng: rng}
	start := w.randPoint()
	// Seed the trajectory with a zero-length pause leg so position
	// queries at t=0 are defined.
	w.traj.append(Leg{start: 0, moveEnd: 0, end: 0, from: start, to: start})
	return w
}

func (w *Waypoint) randPoint() geo.Point {
	return geo.Pt(
		w.cfg.Area.Min.X+w.rng.Float64()*w.cfg.Area.Width(),
		w.cfg.Area.Min.Y+w.rng.Float64()*w.cfg.Area.Height(),
	)
}

func (w *Waypoint) randSpeed() float64 {
	if w.cfg.MaxSpeed == w.cfg.MinSpeed {
		return w.cfg.MaxSpeed
	}
	return w.cfg.MinSpeed + w.rng.Float64()*(w.cfg.MaxSpeed-w.cfg.MinSpeed)
}

// extend grows the trajectory until it covers instant at.
func (w *Waypoint) extend(at sim.Time) {
	for w.traj.covered() <= at {
		last := w.traj.legs[len(w.traj.legs)-1]
		from := last.to
		start := last.end
		speed := w.randSpeed()
		if speed <= 0 {
			// Static node: one giant pause leg.
			w.traj.append(Leg{
				start: start, moveEnd: start,
				end:  sim.Time(1 << 62),
				from: from, to: from,
			})
			return
		}
		to := w.randPoint()
		dist := from.Dist(to)
		moveEnd := start + sim.Seconds(dist/speed)
		w.traj.append(Leg{
			start: start, moveEnd: moveEnd, end: moveEnd.Add(waypointPause),
			from: from, to: to, speed: speed,
		})
	}
}

// Position implements Model.
func (w *Waypoint) Position(at sim.Time) geo.Point {
	w.extend(at)
	return w.traj.find(at).Position(at)
}

// LegAt implements LegModel: extend appends contiguous legs and never
// revises one.
func (w *Waypoint) LegAt(at sim.Time) Leg {
	w.extend(at)
	return *w.traj.find(at)
}

// Speed implements Model.
func (w *Waypoint) Speed(at sim.Time) float64 {
	w.extend(at)
	return w.traj.find(at).speedAt(at)
}
