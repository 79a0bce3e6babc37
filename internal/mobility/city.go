package mobility

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sim"
)

// The city-section model's traffic rules.
const (
	// cityStopProb is the probability of pausing at an intermediate
	// intersection (red light).
	cityStopProb = 0.3
	// cityStopMin and cityStopMax bound the pause at a red light.
	cityStopMin = 2 * time.Second
	cityStopMax = 10 * time.Second
	// cityDestPause is the dwell time at each reached destination
	// (parking) before picking the next trip.
	cityDestPause = 5 * time.Second
)

// CityConfig parameterizes the city-section model.
type CityConfig struct {
	// Graph is the street network; it must be Validate()-clean.
	Graph *Graph
}

// Validate reports configuration errors.
func (c CityConfig) Validate() error {
	if c.Graph == nil {
		return fmt.Errorf("mobility: nil graph")
	}
	return c.Graph.Validate()
}

// City implements the city-section model: nodes start at a predefined
// intersection, repeatedly pick a popularity-weighted destination, drive
// the fastest path at each road's speed limit, and occasionally stop at
// intersections, following the paper's description of traffic rules and
// hot-spot roads.
type City struct {
	graphTraveler
}

var _ Model = (*City)(nil)

// NewCity creates a city-section node starting at a popularity-weighted
// random intersection.
func NewCity(cfg CityConfig, rng *rand.Rand) *City {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &City{}
	c.graphTraveler = newGraphTraveler(cfg.Graph, rng, c.addTrip)
	c.startAt(c.weightedIntersection())
	return c
}

// addTrip appends the legs of one trip (possibly with red-light pauses)
// to the trajectory.
func (c *City) addTrip() {
	c.drive(c.pickDest(),
		func(r Road) float64 { return r.SpeedLimit },
		func(_ int, _ sim.Time, final bool) time.Duration {
			if final {
				return cityDestPause
			}
			if c.rng.Float64() < cityStopProb {
				return cityStopMin + time.Duration(c.rng.Int63n(int64(cityStopMax-cityStopMin)))
			}
			return 0
		})
}
