package proto

import "repro/internal/registry"

// Params carries a protocol's scenario-level tuning. Each protocol
// defines one concrete params type (its registered schema); a nil
// Params selects the protocol's defaults. It is the one params
// interface of internal/registry, shared with workload generators.
type Params = registry.Params

// Factory builds one protocol instance for one node from its params and
// the runner-supplied environment. The registry guarantees p has the
// definition's schema type (or is the schema's zero value when the spec
// carried nil).
type Factory func(p Params, env Env) (Disseminator, error)

// Definition is a named, registered protocol: the registry key, a
// one-line catalog description, the params schema (the zero value of
// the concrete params type this protocol accepts) and the per-node
// factory. It mirrors netsim.ScenarioDef: registering a definition
// makes the protocol reachable from scenario specs, the exp "scenarios"
// family, cmd/experiments -list/-proto and cmd/frugalsim -protocol.
type Definition struct {
	// Name is the registry key (e.g. "frugal", "gossip-pushpull").
	Name string
	// Description is a one-line summary for the catalog listing.
	Description string
	// Params is the schema: the zero value of the params type this
	// protocol accepts. Specs carrying a different dynamic type are
	// rejected at validation time.
	Params Params
	// New builds one node instance.
	New Factory
}

var protocols = registry.NewTyped("proto", "protocol", func(d Definition) registry.Entry[Env, Disseminator] {
	return registry.Entry[Env, Disseminator]{Name: d.Name, Description: d.Description, Params: d.Params, New: d.New}
})

// RegisterProtocol adds a definition to the registry. It panics on a
// duplicate name, missing metadata, or an invalid schema (registration
// happens at init time; a broken definition should fail loudly, not at
// first use).
func RegisterProtocol(d Definition) { protocols.Register(d) }

// Protocols returns every registered definition, sorted by name.
func Protocols() []Definition { return protocols.All() }

// ProtocolNames returns the sorted registered names.
func ProtocolNames() []string { return protocols.Names() }

// LookupProtocol finds a definition by name.
func LookupProtocol(name string) (Definition, bool) { return protocols.Lookup(name) }

// CheckParams validates a (name, params) spec against the registry:
// the name must be registered, and params — when non-nil — must have
// the registered schema type and validate. This is what
// netsim.Scenario.Validate calls for its ProtocolSpec.
func CheckParams(name string, p Params) error { return protocols.CheckParams(name, p) }

// Build resolves name and constructs one instance: the factory receives
// p, or the schema's zero value when p is nil. Callers that validated
// the spec earlier (netsim does, at Scenario.Validate time) only see
// errors from the factory itself.
func Build(name string, p Params, env Env) (Disseminator, error) {
	return protocols.Build(name, p, env)
}
