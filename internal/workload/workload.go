// Package workload is the workload layer: named, parameterized
// generators that lazily synthesize a scenario's dynamics — publication
// traffic, node lifecycle churn and subscription churn — from the run's
// seeded RNG instead of precomputed schedules.
//
// A Generator is a pull-based stream of timestamped Ops, consumed one
// op at a time by the simulation runner (internal/netsim), which arms
// exactly one engine callback ahead. Generation is therefore O(1)
// memory in the number of ops: a million-publication run never holds a
// million-element slice, and a run driven by a generator remains a pure
// function of (Scenario, Seed) because every draw comes from the
// Env.Rand stream the runner derives from the engine seed.
//
// The package mirrors internal/proto: a registry maps names to
// factories plus params schemas (RegisterWorkload / Workloads /
// LookupWorkload), netsim.Scenario selects a generator with a
// Spec{Name, Params} validated at Scenario.Validate time, and every
// registered generator is held to the conformance suite in this package
// (deterministic per seed, monotone in time, in-bounds for the run's
// horizon). See ARCHITECTURE.md "Adding a workload".
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/registry"
	"repro/internal/topic"
)

// Kind is the type of one generated operation.
type Kind uint8

const (
	// Publish publishes one event.
	Publish Kind = iota
	// Crash fails a node; its state is lost.
	Crash
	// Recover restarts a crashed node with empty tables.
	Recover
	// Subscribe adds a subscription on a live node.
	Subscribe
	// Unsubscribe removes a subscription from a live node.
	Unsubscribe
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Publish:
		return "publish"
	case Crash:
		return "crash"
	case Recover:
		return "recover"
	case Subscribe:
		return "subscribe"
	case Unsubscribe:
		return "unsubscribe"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Op is one timestamped operation of a workload stream.
type Op struct {
	// At is the absolute instant from simulation start.
	At time.Duration
	// Kind selects the operation.
	Kind Kind
	// Node is the acting node index. On Publish, -1 publishes from a
	// random subscriber of the scenario's event topic (resolved by the
	// runner); every other kind requires an index in [0, Env.Nodes).
	Node int
	// Topic is the publication or (un)subscription topic; the zero
	// topic means the scenario's event topic.
	Topic topic.Topic
	// Validity is the published event's validity period (Publish only).
	Validity time.Duration
}

// Generator produces one workload stream: successive Next calls return
// ops with non-decreasing At until the stream is exhausted. Generators
// are single-use and not safe for concurrent use; the runner pulls one
// op ahead of the simulation clock.
type Generator interface {
	Next() (Op, bool)
}

// Env is the environment the runner supplies to a generator factory.
// Everything a generator touches outside its own params comes through
// here, which is what keeps a generated run a pure function of
// (Scenario, Seed).
type Env struct {
	// Nodes is the scenario roster size; generated node indices must
	// lie in [0, Nodes) (or be -1 on Publish ops).
	Nodes int
	// Rand is the generator's private RNG stream; generators must draw
	// all randomness from it.
	Rand *rand.Rand
	// Warmup and Measure are the scenario's windows. Generated ops must
	// lie within [0, Warmup+Measure]; traffic belongs in the
	// measurement window [Warmup, Warmup+Measure).
	Warmup, Measure time.Duration
	// EventTopic is the scenario's event topic — the topic subscribers
	// follow, and the parent under which TopicModel spreads subtopics.
	EventTopic topic.Topic
}

// Start returns the start of the measurement window.
func (e Env) Start() time.Duration { return e.Warmup }

// End returns the run's horizon: no op may be scheduled later.
func (e Env) End() time.Duration { return e.Warmup + e.Measure }

// Params carries a generator's scenario-level tuning. Each generator
// defines one concrete params type (its registered schema); a nil
// Params selects the generator's defaults. It is the one params
// interface of internal/registry, shared with protocols.
type Params = registry.Params

// Spec selects and tunes a workload generator by registry name: Name is
// the registered key and Params, when non-nil, must have the
// generator's registered params type (nil selects its defaults). The
// zero Spec selects no generator at all — in netsim that means the
// scenario's hand-placed Schedule alone drives the run.
type Spec struct {
	Name   string
	Params Params
}

// IsZero reports whether the spec selects no generator.
func (s Spec) IsZero() bool { return s.Name == "" }

// String implements fmt.Stringer: the registry name, or "explicit" for
// the zero spec, whose run is driven by the scenario's hand-placed
// schedule alone (see NewExplicit).
func (s Spec) String() string {
	if s.Name == "" {
		return "explicit"
	}
	return s.Name
}

// Validate checks the spec against the registry; the zero spec is
// valid.
func (s Spec) Validate() error {
	if s.IsZero() {
		return nil
	}
	return CheckParams(s.Name, s.Params)
}

// Factory builds one generator from its params and the runner-supplied
// environment. The registry guarantees p has the definition's schema
// type (or is the schema's zero value when the spec carried nil).
type Factory func(p Params, env Env) (Generator, error)

// Class groups generators for the catalogs and the exp "workloads"
// family.
type Class string

const (
	// ClassTraffic generators emit publications.
	ClassTraffic Class = "traffic"
	// ClassChurn generators emit node-lifecycle or subscription
	// dynamics (no publications of their own).
	ClassChurn Class = "churn"
	// ClassUtil generators are composition helpers (mix).
	ClassUtil Class = "util"
)

// Definition is a named, registered workload generator: the registry
// key, a one-line catalog description, a class, the params schema (the
// zero value of the concrete params type) and the factory. It mirrors
// proto.Definition and netsim.ScenarioDef.
type Definition struct {
	// Name is the registry key (e.g. "poisson", "flash-crowd").
	Name string
	// Description is a one-line summary for the catalog listing.
	Description string
	// Class groups the generator: traffic, churn or util.
	Class Class
	// Params is the schema: the zero value of the params type this
	// generator accepts.
	Params Params
	// New builds one generator instance.
	New Factory
}

var workloads = registry.NewTyped("workload", "generator", func(d Definition) registry.Entry[Env, Generator] {
	return registry.Entry[Env, Generator]{Name: d.Name, Description: d.Description, Params: d.Params, New: d.New}
})

// RegisterWorkload adds a definition to the registry. It panics on a
// duplicate name, missing metadata, an unknown class or an invalid
// schema (registration happens at init time; a broken definition
// should fail loudly, not at first use).
func RegisterWorkload(d Definition) {
	switch d.Class {
	case ClassTraffic, ClassChurn, ClassUtil:
	default:
		panic(fmt.Sprintf("workload: generator %q registered with unknown class %q", d.Name, d.Class))
	}
	workloads.Register(d)
}

// Workloads returns every registered definition, sorted by name.
func Workloads() []Definition { return workloads.All() }

// WorkloadNames returns the sorted registered names.
func WorkloadNames() []string { return workloads.Names() }

// LookupWorkload finds a definition by name.
func LookupWorkload(name string) (Definition, bool) { return workloads.Lookup(name) }

// CheckParams validates a (name, params) spec against the registry:
// the name must be registered, and params — when non-nil — must have
// the registered schema type and validate. This is what
// netsim.Scenario.Validate calls for its WorkloadSpec.
func CheckParams(name string, p Params) error { return workloads.CheckParams(name, p) }

// Build resolves name and constructs one generator: the factory
// receives p, or the schema's zero value when p is nil.
func Build(name string, p Params, env Env) (Generator, error) { return workloads.Build(name, p, env) }
