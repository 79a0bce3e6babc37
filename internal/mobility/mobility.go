// Package mobility implements the mobility models the simulator drives
// nodes with: the paper's random waypoint (Johnson & Maltz) and city
// section (Davies), a trivial static model, and two vehicular
// (VANET-style) extensions — a Manhattan street grid with a
// deterministic city-wide traffic-light schedule and a highway corridor
// with on/off-ramps and platoon speed tiers. The graph-constrained models (City, Manhattan, Highway)
// share the Graph street-network machinery and the graphTraveler trip
// driver; new vehicular models should build on the same pieces.
//
// Models are trajectory-based: each node lazily extends a piecewise-linear
// trajectory (legs of constant velocity, including zero-velocity pauses)
// and answers position/speed queries for any instant analytically. Nothing
// ticks; the simulator asks for positions only when transmissions happen.
//
// # The Model contract
//
// Every implementation of Model must satisfy three properties that the
// rest of the system leans on:
//
//   - Determinism. A model is a pure function of its construction
//     inputs (config + the *rand.Rand handed to the constructor):
//     querying the same instants in any order, or re-running with the
//     same seed, yields identical positions and speeds. This is what
//     makes a netsim.Result a pure function of (Scenario, Seed) and
//     lets experiment sweeps fan out over worker pools with
//     byte-identical output (see ROADMAP.md, "Determinism contract").
//     Models may memoize (all trajectory-based models do) but must not
//     read ambient state, and they are not safe for concurrent use —
//     every simulated node owns its own instance.
//
//   - Continuity. Position must be continuous in time: no teleports.
//     Contract tests assert |Position(t+dt) - Position(t)| <= vmax*dt.
//
//   - A knowable speed bound. The MAC medium (internal/mac) indexes
//     node positions in a spatial grid refreshed every 200 ms of
//     simulated time; range queries are padded by a staleness margin
//     of MaxSpeed*200 ms, so lookups stay exact only if no node ever
//     exceeds the declared MaxSpeed. netsim derives that
//     bound automatically: Graph.MaxSpeedLimit() for the
//     graph-constrained models (which never drive above a road's
//     limit), MobilitySpec.MaxSpeed for random waypoint, zero for
//     static nodes. A new model must either keep its speeds under a
//     bound netsim can derive the same way, or leave
//     mac.Config.SpeedBounded unset and accept per-instant index
//     rebuilds.
//
// One further interface is optional: LegModel. The five built-in models
// implement it so netsim can answer the MAC's per-receiver position
// lookups from a flat per-node slab of legs instead of chasing
// node -> model -> trajectory -> leg on every frame. A model may offer
// LegAt only if it can guarantee what the slab relies on: its
// trajectory is made of contiguous half-open legs, a leg once returned
// is never revised, and Position(t) is exactly that leg's Position(t)
// for every t the leg Covers. Models without it (netsim's CustomModels,
// which only tests set) are queried through Position as before, with
// identical results.
package mobility

import (
	"math"
	"sort"

	"repro/internal/geo"
	"repro/internal/sim"
)

// Model yields a node's position and instantaneous speed over simulation
// time. Implementations are deterministic functions of their seed but are
// not safe for concurrent use.
type Model interface {
	// Position returns the node position at instant at. Queries may go
	// backwards in time; models memoize their trajectory.
	Position(at sim.Time) geo.Point
	// Speed returns the node's speed in m/s at instant at (0 while
	// paused).
	Speed(at sim.Time) float64
}

// LegModel is the optional fast path of a trajectory-based Model: LegAt
// returns the leg covering instant at, and for every instant t that leg
// Covers, Position(t) must equal the leg's Position(t) bit for bit — for
// ever, whatever is queried in between. A caller (netsim's locator) may
// therefore keep the leg and answer later positions from it without
// calling the model at all. A model qualifies when its trajectory is a
// sequence of contiguous legs that are never revised once handed out;
// a model that cannot promise that simply does not implement LegAt.
type LegModel interface {
	Model
	LegAt(at sim.Time) Leg
}

// Leg is a constant-velocity trajectory segment: the node moves from
// `from` to `to` during [start, moveEnd] and then stays at `to` until
// `end` (pause). A static leg has from == to. The zero Leg covers no
// instant.
type Leg struct {
	start, moveEnd, end sim.Time
	from, to            geo.Point
	speed               float64
}

// Covers reports whether at falls in the leg's half-open span. Legs of
// one trajectory are contiguous, so exactly one covers any instant the
// trajectory reaches — the one trajectory.find returns.
func (l *Leg) Covers(at sim.Time) bool { return l.start <= at && at < l.end }

// Position returns the node position at instant at (clamped to the
// leg's end points outside its span).
func (l *Leg) Position(at sim.Time) geo.Point {
	if at >= l.moveEnd {
		return l.to
	}
	if at <= l.start || l.moveEnd == l.start {
		return l.from
	}
	f := float64(at-l.start) / float64(l.moveEnd-l.start)
	return l.from.Lerp(l.to, f)
}

func (l *Leg) speedAt(at sim.Time) float64 {
	if at >= l.start && at < l.moveEnd {
		return l.speed
	}
	return 0
}

// trajectory is a growable sequence of contiguous legs with memoized
// lookup. extend is called to append legs until the trajectory covers a
// requested instant.
type trajectory struct {
	legs []Leg
	end  sim.Time // covered() memo: end of the last leg
	idx  int      // find() memo: last returned leg
}

func (t *trajectory) covered() sim.Time { return t.end }

func (t *trajectory) append(l Leg) {
	t.legs = append(t.legs, l)
	t.end = l.end
}

// find returns the leg active at instant at (the pointer is valid until
// the next append); the trajectory must already cover at. The simulation
// queries positions at its current instant, so consecutive calls almost
// always hit the same leg or its successor — the memo turns the common
// case into O(1) and the binary search only backstops jumps (identical
// result either way).
func (t *trajectory) find(at sim.Time) *Leg {
	n := len(t.legs)
	i := t.idx
	if i >= n {
		i = n - 1
	}
	switch {
	case at < t.legs[i].end && (i == 0 || t.legs[i-1].end <= at):
		// memo hit
	case i+1 < n && at >= t.legs[i].end && at < t.legs[i+1].end:
		i++
	default:
		i = sort.Search(n, func(k int) bool { return t.legs[k].end > at })
		if i == n {
			i = n - 1
		}
	}
	t.idx = i
	return &t.legs[i]
}

// Static is a Model that never moves. It implements stationary processes
// (the paper's 0 m/s runs).
type Static struct {
	P geo.Point
}

// Position implements Model.
func (s Static) Position(sim.Time) geo.Point { return s.P }

// Speed implements Model.
func (s Static) Speed(sim.Time) float64 { return 0 }

// LegAt implements LegModel: one pause at P for all of simulated time.
func (s Static) LegAt(sim.Time) Leg {
	return Leg{end: sim.Time(math.MaxInt64), from: s.P, to: s.P}
}
