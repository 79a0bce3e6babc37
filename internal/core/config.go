package core

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/event"
	"repro/internal/sim"
)

// Defaults mirror the paper's evaluation settings (Section 5.1).
const (
	// DefaultX is the heartbeat tuning factor x in HBDelay = x/avgSpeed;
	// the paper sets it to 40 (roughly the propagation radius in
	// decameters).
	DefaultX = 40.0
	// DefaultHB2BO divides the heartbeat delay to obtain the back-off
	// delay.
	DefaultHB2BO = 2.0
	// DefaultHB2NGC multiplies the heartbeat delay to obtain the
	// neighborhood garbage-collection delay.
	DefaultHB2NGC = 2.5
	// DefaultHBDelay is the heartbeat period used when no speed
	// information is available (paper Figure 4: 15000 ms).
	DefaultHBDelay = 15 * time.Second
	// DefaultHBLowerBound stops the adaptive heartbeat from melting the
	// channel at very high speeds.
	DefaultHBLowerBound = 100 * time.Millisecond
)

// Config parameterizes a Protocol instance. The zero value of the tuning
// fields selects the paper's defaults.
type Config struct {
	// ID is this process's unique identifier. Required.
	ID event.NodeID

	// X is the heartbeat tuning factor (DefaultX when 0).
	X float64
	// HB2BO is the back-off divisor (DefaultHB2BO when 0).
	HB2BO float64
	// HB2NGC is the neighborhood-GC multiplier (DefaultHB2NGC when 0).
	HB2NGC float64
	// HBDelay is the initial/fallback heartbeat period (DefaultHBDelay
	// when 0).
	HBDelay time.Duration
	// HBLowerBound clamps the adaptive heartbeat period from below
	// (DefaultHBLowerBound when 0).
	HBLowerBound time.Duration
	// HBUpperBound clamps the adaptive heartbeat period from above;
	// 0 means unbounded (the paper's city-section "no upper bound").
	HBUpperBound time.Duration

	// MaxEvents bounds the event table; 0 means unbounded. When full,
	// the paper's gc(e) = val/(fwd+val) policy evicts an event.
	MaxEvents int
	// MaxNeighbors bounds the neighborhood table; 0 means unbounded.
	// When full, the stalest entry is evicted.
	MaxNeighbors int

	// Speed optionally reports the node's current speed in m/s; nil or
	// a negative return means unknown (the paper treats speed as an
	// optional optimization input).
	Speed func() float64

	// OnDeliver is invoked when an event is delivered: it is not in the
	// event table, still valid, and its topic is covered by the node's
	// subscriptions. With an unbounded table this means exactly once per
	// event; with MaxEvents set, an event evicted by garbage collection
	// and received again is re-delivered — the process has genuinely
	// forgotten it (the price of bounded memory, as in the paper).
	// Optional.
	OnDeliver func(event.Event)

	// Rand seeds event-identifier generation and the initial heartbeat
	// phase. Required for determinism; when nil a source seeded from ID
	// is used.
	Rand *rand.Rand

	// Ablation knobs. Zero values select the paper's design; the
	// experiment harness flips them one at a time to quantify each
	// design choice (see DESIGN.md "Ablations").

	// DisableSuppression keeps a pending back-off armed when a fresh
	// event of interest is overheard.
	DisableSuppression bool
	// DisableAdaptiveHB pins the heartbeat period at HBDelay instead of
	// adapting it to the average neighbor speed.
	DisableAdaptiveHB bool
	// FixedBackoff makes the back-off independent of the number of
	// events to send.
	FixedBackoff bool
	// BlindPush skips the event-id pre-exchange: on discovering a
	// neighbor the node immediately schedules a push of everything the
	// neighbor's subscriptions cover.
	BlindPush bool
	// GCPolicy overrides the event-table eviction policy.
	GCPolicy GCPolicy
}

// GCPolicy selects the event-table eviction policy.
type GCPolicy int

const (
	// GCPaper is Equation 1: evict min val/(fwd+val), expired first.
	GCPaper GCPolicy = iota
	// GCFIFO evicts the oldest stored event (expired still first).
	GCFIFO
	// GCRandom evicts a uniformly random event (expired still first).
	GCRandom
)

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.X < 0 || c.HB2BO < 0 || c.HB2NGC < 0 {
		return fmt.Errorf("core: negative tuning factor")
	}
	if c.HBDelay < 0 || c.HBLowerBound < 0 || c.HBUpperBound < 0 {
		return fmt.Errorf("core: negative delay")
	}
	if c.HBUpperBound > 0 && c.HBLowerBound > c.HBUpperBound {
		return fmt.Errorf("core: HBLowerBound %v > HBUpperBound %v", c.HBLowerBound, c.HBUpperBound)
	}
	if c.MaxEvents < 0 || c.MaxNeighbors < 0 {
		return fmt.Errorf("core: negative capacity")
	}
	return nil
}

// withDefaults fills zero fields with the paper's defaults.
func (c Config) withDefaults() Config {
	if c.X == 0 {
		c.X = DefaultX
	}
	if c.HB2BO == 0 {
		c.HB2BO = DefaultHB2BO
	}
	if c.HB2NGC == 0 {
		c.HB2NGC = DefaultHB2NGC
	}
	if c.HBDelay == 0 {
		c.HBDelay = DefaultHBDelay
	}
	if c.HBLowerBound == 0 {
		c.HBLowerBound = DefaultHBLowerBound
	}
	if c.Rand == nil {
		c.Rand = sim.NewStream(int64(c.ID) + 1)
	}
	return c
}

// clampHB applies the configured heartbeat bounds.
func (c Config) clampHB(d time.Duration) time.Duration {
	if c.HBUpperBound > 0 && d > c.HBUpperBound {
		d = c.HBUpperBound
	}
	if d < c.HBLowerBound {
		d = c.HBLowerBound
	}
	return d
}
