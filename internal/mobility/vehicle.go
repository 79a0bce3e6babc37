package mobility

import (
	"math/rand"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

// graphTraveler carries the state shared by the graph-constrained
// vehicular models (City, Manhattan, Highway): popularity-weighted
// destination choice, trajectory bookkeeping over a street network,
// and the Position/Speed query surface. Each model supplies its trip
// builder (nextTrip) and layers its own speed and dwell rules on top
// via the hooks passed to drive.
type graphTraveler struct {
	g      *Graph
	rng    *rand.Rand
	traj   trajectory
	at     int // intersection where the trajectory currently ends
	cumPop []float64
	// nextTrip appends the legs of one trip to the trajectory; set to
	// the owning model's trip builder at construction.
	nextTrip func()
}

func newGraphTraveler(g *Graph, rng *rand.Rand, nextTrip func()) graphTraveler {
	// The popularity prefix sums are a pure function of the shared
	// graph: take the memoized slice instead of rebuilding V entries
	// per vehicle.
	return graphTraveler{g: g, rng: rng, nextTrip: nextTrip, cumPop: g.cumPopularity()}
}

// extend grows the trajectory until it covers instant at.
func (t *graphTraveler) extend(at sim.Time) {
	for t.traj.covered() <= at {
		t.nextTrip()
	}
}

// Position implements Model (promoted into every embedding model).
func (t *graphTraveler) Position(at sim.Time) geo.Point {
	t.extend(at)
	return t.traj.find(at).Position(at)
}

// LegAt implements LegModel: drive appends contiguous legs and never
// revises one.
func (t *graphTraveler) LegAt(at sim.Time) Leg {
	t.extend(at)
	return *t.traj.find(at)
}

// Speed implements Model.
func (t *graphTraveler) Speed(at sim.Time) float64 {
	t.extend(at)
	return t.traj.find(at).speedAt(at)
}

// startAt pins the traveler's initial position to intersection i.
func (t *graphTraveler) startAt(i int) {
	t.at = i
	p := t.g.Point(i)
	t.traj.append(Leg{from: p, to: p})
}

// weightedIntersection draws an intersection biased by road popularity.
func (t *graphTraveler) weightedIntersection() int {
	total := t.cumPop[len(t.cumPop)-1]
	x := t.rng.Float64() * total
	for i, cum := range t.cumPop {
		if x < cum {
			return i
		}
	}
	return len(t.cumPop) - 1
}

// pickDest draws a popularity-weighted destination distinct from the
// current intersection.
func (t *graphTraveler) pickDest() int {
	dest := t.weightedIntersection()
	for dest == t.at {
		dest = t.weightedIntersection()
	}
	return dest
}

// drive appends the legs of one trip to dest: each road is driven at
// speed(r) m/s, and after reaching intersection i the vehicle dwells
// wait(i, arrive, final) (final marks the trip destination). Hooks are
// invoked in path order, so any randomness they draw is consumed in a
// deterministic sequence.
func (t *graphTraveler) drive(dest int, speed func(r Road) float64, wait func(i int, arrive sim.Time, final bool) time.Duration) {
	path, err := t.g.ShortestPath(t.at, dest)
	if err != nil {
		// Validate() guarantees reachability; this is unreachable but
		// kept defensive: dwell in place to guarantee progress.
		last := t.traj.legs[len(t.traj.legs)-1]
		t.traj.append(Leg{
			start: last.end, moveEnd: last.end, end: last.end + sim.Second,
			from: last.to, to: last.to,
		})
		return
	}
	start := t.traj.covered()
	pos := t.g.Point(t.at)
	for i := 1; i < len(path); i++ {
		r, ok := t.g.road(path[i-1], path[i])
		if !ok {
			continue
		}
		v := speed(r)
		to := t.g.Point(path[i])
		moveEnd := start + sim.Seconds(r.Length/v)
		end := moveEnd.Add(wait(path[i], moveEnd, i == len(path)-1))
		if end == start {
			end = start + 1
		}
		t.traj.append(Leg{
			start: start, moveEnd: moveEnd, end: end,
			from: pos, to: to, speed: v,
		})
		pos = to
		start = end
	}
	t.at = dest
}
