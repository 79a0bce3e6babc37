package mobility

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sim"
)

// CityConfig parameterizes the city-section model.
type CityConfig struct {
	// Graph is the street network; it must be Validate()-clean.
	Graph *Graph
	// StopProb is the probability of pausing at an intermediate
	// intersection (red light), in [0,1].
	StopProb float64
	// StopMin/StopMax bound the pause duration at a red light.
	StopMin, StopMax time.Duration
	// DestPause is the dwell time at each reached destination
	// (parking) before picking the next trip.
	DestPause time.Duration
}

// Validate reports configuration errors.
func (c CityConfig) Validate() error {
	if c.Graph == nil {
		return fmt.Errorf("mobility: nil graph")
	}
	if err := c.Graph.Validate(); err != nil {
		return err
	}
	if c.StopProb < 0 || c.StopProb > 1 {
		return fmt.Errorf("mobility: StopProb %v out of [0,1]", c.StopProb)
	}
	if c.StopMin < 0 || c.StopMax < c.StopMin {
		return fmt.Errorf("mobility: bad stop range [%v,%v]", c.StopMin, c.StopMax)
	}
	if c.DestPause < 0 {
		return fmt.Errorf("mobility: negative DestPause")
	}
	return nil
}

// City implements the city-section model: nodes start at a predefined
// intersection, repeatedly pick a popularity-weighted destination, drive
// the fastest path at each road's speed limit, and occasionally stop at
// intersections, following the paper's description of traffic rules and
// hot-spot roads.
type City struct {
	graphTraveler
	cfg CityConfig
}

var _ Model = (*City)(nil)

// NewCity creates a city-section node starting at a popularity-weighted
// random intersection.
func NewCity(cfg CityConfig, rng *rand.Rand) *City {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &City{cfg: cfg}
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
				return c.cfg.DestPause
			}
			if c.rng.Float64() < c.cfg.StopProb {
				return c.stopTime()
			}
			return 0
		})
}

func (c *City) stopTime() time.Duration {
	if c.cfg.StopMax == c.cfg.StopMin {
		return c.cfg.StopMin
	}
	return c.cfg.StopMin + time.Duration(c.rng.Int63n(int64(c.cfg.StopMax-c.cfg.StopMin)))
}
