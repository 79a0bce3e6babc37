package mobility

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

// The highway convoy's platoons.
const (
	// platoons is the number of platoon speed tiers. Each vehicle joins
	// one tier at construction; same-tier vehicles share a cruise speed
	// and an entry point, so they travel as clusters.
	platoons = 4
	// cruiseMin and cruiseMax bound the tier cruise speeds in m/s; tier
	// k cruises at cruiseMin + k*(cruiseMax-cruiseMin)/(platoons-1),
	// capped by each road's speed limit (ramps slow everyone down
	// equally).
	cruiseMin = 24.0
	cruiseMax = 32.0
	// rampPause is the dwell time at each reached destination (rest
	// area, toll plaza) before picking the next trip.
	rampPause = 5 * time.Second
)

// HighwayConfig parameterizes the highway convoy model.
type HighwayConfig struct {
	// Graph is the highway network; it must be Validate()-clean
	// (NewHighwayGraph builds the default bidirectional corridor).
	Graph *Graph
}

// Validate reports configuration errors.
func (c HighwayConfig) Validate() error {
	if c.Graph == nil {
		return fmt.Errorf("mobility: nil graph")
	}
	return c.Graph.Validate()
}

// Highway implements a VANET-style highway convoy model: high-speed
// bidirectional lanes joined by on/off-ramps, with vehicles grouped
// into platoons. Each vehicle drives popularity-weighted trips at
// min(cruise speed, road limit); because a platoon shares one cruise
// speed and one entry interchange, its members stay clustered — the
// regime where vehicular dissemination protocols rely on convoy
// neighbors rather than oncoming traffic.
type Highway struct {
	graphTraveler
	platoon int
	cruise  float64
}

var _ Model = (*Highway)(nil)

// NewHighway creates a highway vehicle. The platoon tier is drawn from
// rng; the start intersection is the tier's entry point.
func NewHighway(cfg HighwayConfig, rng *rand.Rand) *Highway {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Highway{}
	h.graphTraveler = newGraphTraveler(cfg.Graph, rng, h.addTrip)
	h.platoon = rng.Intn(platoons)
	h.cruise = cruiseMin + float64(h.platoon)*(cruiseMax-cruiseMin)/(platoons-1)
	// Same-platoon vehicles enter at the same intersection, spreading
	// the tiers across the network deterministically.
	h.startAt(h.platoon * cfg.Graph.Intersections() / platoons)
	return h
}

func (h *Highway) addTrip() {
	h.drive(h.pickDest(),
		func(r Road) float64 { return min(h.cruise, r.SpeedLimit) },
		func(_ int, _ sim.Time, final bool) time.Duration {
			if final {
				return rampPause
			}
			return 0 // no stopping on the mainline
		})
}

// NewHighwayGraph builds the default highway corridor for the Highway
// model: 6 interchanges spaced 700 m apart (a 3.5 km stretch), with a
// one-way eastbound chain at y=0, a one-way westbound chain at y=60,
// and a service node between the lanes at every interchange joined to
// both directions by two-way ramps. Mainline segments carry a 33 m/s
// (~120 km/h) limit; ramps 14 m/s. The ramp pairs make the network
// strongly connected: leaving the corridor at any interchange allows
// re-entry in either direction.
func NewHighwayGraph() *Graph {
	const (
		interchanges = 6
		spacing      = 700.0
		laneGap      = 60.0

		mainLimit  = 33.0
		mainWeight = 3.0
		rampLimit  = 14.0
		rampWeight = 2.0
	)
	g := &Graph{}
	east := make([]int, interchanges)
	west := make([]int, interchanges)
	svc := make([]int, interchanges)
	for i := 0; i < interchanges; i++ {
		x := float64(i) * spacing
		east[i] = g.AddIntersection(geo.Pt(x, 0))
		west[i] = g.AddIntersection(geo.Pt(x, laneGap))
		svc[i] = g.AddIntersection(geo.Pt(x, laneGap/2))
	}
	for i := 0; i+1 < interchanges; i++ {
		mustRoad(g, east[i], east[i+1], mainLimit, mainWeight) // eastbound
		mustRoad(g, west[i+1], west[i], mainLimit, mainWeight) // westbound
	}
	for i := 0; i < interchanges; i++ {
		mustStreet(g, east[i], svc[i], rampLimit, rampWeight) // off/on-ramps
		mustStreet(g, west[i], svc[i], rampLimit, rampWeight)
	}
	return g
}
