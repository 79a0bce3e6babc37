// Package netsim assembles full simulation scenarios: N mobile nodes
// running a dissemination protocol over the CSMA broadcast medium, with
// subscription assignment, scheduled publications, optional crashes,
// warm-up handling and measurement-window accounting. Protocols are
// resolved by name through the internal/proto registry (ProtocolSpec);
// the built-ins — frugal, the flooding and broadcast-storm baselines,
// push-pull gossip — are wired in via internal/proto/all.
//
// A Result is a pure function of (Scenario, Seed); experiments in
// internal/exp average Results across seeds.
package netsim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/proto"
	"repro/internal/topic"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ProtocolSpec selects and tunes the dissemination protocol under test
// by registry name (see internal/proto): Name is the registered key and
// Params, when non-nil, must have the protocol's registered params type
// (nil selects the protocol's defaults). The zero spec selects the
// paper's frugal protocol with default tuning.
type ProtocolSpec struct {
	Name   string
	Params proto.Params
}

// String implements fmt.Stringer: the registry name.
func (s ProtocolSpec) String() string {
	if s.Name == "" {
		return core.ProtocolName
	}
	return s.Name
}

// withDefaults resolves the zero spec to the frugal protocol.
func (s ProtocolSpec) withDefaults() ProtocolSpec {
	if s.Name == "" {
		s.Name = core.ProtocolName
	}
	return s
}

// CoreTuning carries the frugal protocol's tuning knobs (zero = paper
// defaults); it is the registry params type of the "frugal" protocol,
// re-exported for terse scenario definitions (see FrugalSpec).
type CoreTuning = core.Tuning

// FrugalSpec is the enum-compatible constructor for the paper's
// protocol: a spec running frugal with the given tuning.
func FrugalSpec(t CoreTuning) ProtocolSpec {
	return ProtocolSpec{Name: core.ProtocolName, Params: t}
}

// ParseProtocol resolves a registry name into a default-params spec.
// It reports false for unregistered names; ProtocolNames lists the
// valid ones.
func ParseProtocol(s string) (ProtocolSpec, bool) {
	if _, ok := proto.LookupProtocol(s); !ok {
		return ProtocolSpec{}, false
	}
	return ProtocolSpec{Name: s}, true
}

// ProtocolNames returns the sorted registered protocol names (the
// proto registry's catalog, re-exported for the CLIs).
func ProtocolNames() []string { return proto.ProtocolNames() }

// WorkloadSpec selects and tunes a workload generator by registry name
// (see internal/workload): Name is the registered key and Params, when
// non-nil, must have the generator's registered params type (nil
// selects its defaults). The zero spec generates nothing — the
// scenario's Schedule alone drives the run (replayed through
// workload.NewExplicit). A non-zero spec's stream is merged with the
// Schedule, so hand-placed events and generated dynamics compose.
type WorkloadSpec = workload.Spec

// MobilityKind selects the mobility model.
type MobilityKind int

const (
	// StaticNodes pins nodes at uniform random positions.
	StaticNodes MobilityKind = iota
	// RandomWaypoint is the Johnson-Maltz model on a rectangle.
	RandomWaypoint
	// CitySection drives nodes on a street graph.
	CitySection
	// ManhattanGrid drives vehicles on a dense urban street grid with
	// a deterministic city-wide traffic-light schedule (VANET-style).
	ManhattanGrid
	// HighwayConvoy drives vehicles on a highway corridor with
	// on/off-ramps and platoon speed tiers (VANET-style).
	HighwayConvoy
)

// String implements fmt.Stringer.
func (k MobilityKind) String() string {
	switch k {
	case StaticNodes:
		return "static"
	case RandomWaypoint:
		return "random-waypoint"
	case CitySection:
		return "city-section"
	case ManhattanGrid:
		return "manhattan-grid"
	case HighwayConvoy:
		return "highway-convoy"
	default:
		return fmt.Sprintf("mobility(%d)", int(k))
	}
}

// MobilitySpec declares per-node mobility.
type MobilitySpec struct {
	Kind MobilityKind

	// Area is the mobility rectangle for StaticNodes/RandomWaypoint.
	Area geo.Rect
	// MinSpeed/MaxSpeed bound random-waypoint speeds, m/s. The dwell
	// at each waypoint is the paper's 1 s.
	MinSpeed, MaxSpeed float64

	// Graph is the street network for the graph-constrained kinds;
	// nil selects the kind's default builder (the synthetic campus for
	// CitySection, mobility.NewManhattanGraph for ManhattanGrid,
	// mobility.NewHighwayGraph for HighwayConvoy).
	Graph *mobility.Graph

	// LightCycle and RedFraction configure ManhattanGrid's city-wide
	// traffic-light schedule (zero cycle disables lights).
	LightCycle  time.Duration
	RedFraction float64
}

// validateGraphKind checks the graph-constrained kinds' model fields up
// front, so a bad scenario (notably a registered template) fails at
// Validate time rather than inside the first Run. The mobility configs
// re-validate at build; this mirrors their cheap field checks.
func (m MobilitySpec) validateGraphKind() error {
	if m.Graph != nil {
		if err := m.Graph.Validate(); err != nil {
			return err
		}
	}
	if m.Kind == ManhattanGrid {
		if m.LightCycle < 0 {
			return fmt.Errorf("netsim: negative LightCycle %v", m.LightCycle)
		}
		if m.RedFraction < 0 || m.RedFraction > 1 {
			return fmt.Errorf("netsim: RedFraction %v out of [0,1]", m.RedFraction)
		}
	}
	return nil
}

// Scenario fully describes one simulation run.
type Scenario struct {
	Name  string
	Nodes int
	Seed  int64

	// Protocol selects and tunes the protocol by registry name; the
	// zero spec runs the frugal protocol with default tuning.
	Protocol ProtocolSpec
	Mobility MobilitySpec
	// MAC configures the medium; mac.DefaultConfig(range) is typical.
	MAC mac.Config

	// EventTopic is the topic events are published on (default
	// ".app.news"). SubscriberFraction in [0,1] of nodes subscribe to
	// it; the rest subscribe to DecoyTopic (default ".app.decoy") so
	// they still run the protocol, as in the paper's interest sweeps.
	EventTopic         topic.Topic
	DecoyTopic         topic.Topic
	SubscriberFraction float64

	// Schedule holds hand-placed ops (publications, crashes,
	// recoveries, subscription changes) at absolute instants from
	// simulation start, sorted by At; same-instant ops apply in the
	// order written. A Publish op's zero Topic means EventTopic and
	// Node -1 picks a random subscriber. Templates share the slice
	// across runs, so the runner never sorts or copies it.
	Schedule []workload.Op

	// Workload, when non-zero, selects a registered generator that
	// lazily synthesizes additional traffic and dynamics from the run's
	// seeded RNG; its op stream is merged with Schedule (ties go to
	// Schedule). Validated against the registered params schema.
	Workload WorkloadSpec

	// CustomModels, when non-nil, overrides the mobility model of node
	// i with CustomModels[i] (nil entries fall back to Mobility). This
	// enables hand-crafted topologies such as a courier node shuttling
	// between partitioned clusters.
	CustomModels []mobility.Model

	// Trace, when non-nil, keeps the latest records of the run's
	// message-level timeline (sends, receptions, deliveries,
	// publications).
	Trace *trace.Ring

	// DeliveryLog keeps the full per-delivery record list
	// (Result.Deliveries) and the per-event delivery bitsets alive for
	// the whole run, enabling Result.CoverageAt. Off by default: the runner then folds
	// each delivery into fixed-size per-event counters and a streaming
	// latency histogram at delivery time, so result memory stays flat
	// in roster size (the megacity contract — see ARCHITECTURE.md
	// "Memory contracts"). Setting Trace implies DeliveryLog.
	DeliveryLog bool

	// Warmup runs the system before measurement starts (the paper
	// discards the first 600 s of random-waypoint runs).
	Warmup time.Duration
	// Measure is the measurement window; publications are scheduled
	// relative to its start and counters cover exactly this window.
	Measure time.Duration

	// Tiles is read by nothing: not Validate, not withDefaults, not Run.
	// It selected tile-parallel execution until that path was deleted
	// (ARCHITECTURE.md, "Multi-core"). The field survives only because
	// bench/, frozen under BENCHMARK.json, still assigns it; it was
	// result-neutral by contract, so ignoring it keeps every result. It
	// goes with the [benchmark] follow-up that drops bench's two-tile run
	// (ROADMAP.md).
	Tiles int

	// Sample, when positive, records a deterministic time-series over
	// the measurement window into Result.Series: one SeriesPoint per
	// Sample period (plus a final partial window) with the cumulative
	// delivery ratio, in-flight transmissions, timer-wheel pending and
	// per-window proto/MAC counter deltas. The sampler only reads
	// counters the run already maintains — it draws no randomness and
	// mutates no protocol or medium state — so every measurement,
	// golden table and Result.Fingerprint is byte-identical with
	// sampling on or off (pinned by the sample-invariance tests; see
	// ARCHITECTURE.md "Observability contracts"). 0 disables sampling.
	Sample time.Duration
}

func (s Scenario) withDefaults() Scenario {
	if s.EventTopic.IsZero() {
		s.EventTopic = topic.MustParse(".app.news")
	}
	if s.DecoyTopic.IsZero() {
		s.DecoyTopic = topic.MustParse(".app.decoy")
	}
	if s.Trace != nil {
		// A message-level trace without the matching delivery log would
		// be an inconsistent timeline.
		s.DeliveryLog = true
	}
	s.Protocol = s.Protocol.withDefaults()
	return s
}

// Validate reports scenario errors.
func (s Scenario) Validate() error {
	if s.Nodes <= 0 {
		return errors.New("netsim: no nodes")
	}
	if s.SubscriberFraction < 0 || s.SubscriberFraction > 1 {
		return fmt.Errorf("netsim: SubscriberFraction %v out of [0,1]", s.SubscriberFraction)
	}
	if s.Measure <= 0 {
		return errors.New("netsim: Measure must be positive")
	}
	if s.Warmup < 0 {
		return errors.New("netsim: negative Warmup")
	}
	if err := proto.CheckParams(s.Protocol.withDefaults().Name, s.Protocol.Params); err != nil {
		return fmt.Errorf("netsim: %w", err)
	}
	if err := s.Workload.Validate(); err != nil {
		return fmt.Errorf("netsim: %w", err)
	}
	if err := s.MAC.Validate(); err != nil {
		return err
	}
	switch s.Mobility.Kind {
	case StaticNodes, RandomWaypoint:
		if s.Mobility.Area.Width() <= 0 || s.Mobility.Area.Height() <= 0 {
			return errors.New("netsim: empty mobility area")
		}
	case CitySection, ManhattanGrid, HighwayConvoy:
		// Graph nil is fine (each kind has a default builder).
		if err := s.Mobility.validateGraphKind(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("netsim: unknown mobility kind %d", s.Mobility.Kind)
	}
	if err := s.validateSchedule(); err != nil {
		return err
	}
	if s.CustomModels != nil && len(s.CustomModels) != s.Nodes {
		return fmt.Errorf("netsim: CustomModels has %d entries for %d nodes",
			len(s.CustomModels), s.Nodes)
	}
	if s.Sample < 0 {
		return fmt.Errorf("netsim: negative Sample %v", s.Sample)
	}
	return nil
}

// validateSchedule checks Schedule with Driver.Apply's checkOp and the
// rules only a whole schedule can break, so a bad hand-placed op fails
// here rather than mid-run. The run executes ops up to and including
// its last instant, so an op after it would be silently dropped;
// publications belong to the measurement window.
func (s Scenario) validateSchedule() error {
	end := s.Warmup + s.Measure
	var prev time.Duration
	crashed := map[int]bool{}
	for i, op := range s.Schedule {
		if op.At < prev || op.At > end {
			return fmt.Errorf("netsim: schedule op %d at %v not in [%v, %v]", i, op.At, prev, end)
		}
		prev = op.At
		if err := checkOp(op, s.Nodes); err != nil {
			return fmt.Errorf("netsim: schedule op %d: %w", i, err)
		}
		switch op.Kind {
		case workload.Publish:
			if op.At < s.Warmup {
				return fmt.Errorf("netsim: schedule op %d publishes at %v, before warm-up ends at %v", i, op.At, s.Warmup)
			}
		case workload.Crash:
			crashed[op.Node] = true
		case workload.Recover:
			if !crashed[op.Node] {
				return fmt.Errorf("netsim: schedule op %d recovers node %d before it crashes", i, op.Node)
			}
		case workload.Subscribe, workload.Unsubscribe:
			if op.Topic.IsZero() {
				return fmt.Errorf("netsim: schedule op %d (%v) has no topic", i, op.Kind)
			}
		default:
			return fmt.Errorf("netsim: schedule op %d has unknown kind %v", i, op.Kind)
		}
	}
	return nil
}
