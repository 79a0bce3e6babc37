package flood

import (
	"fmt"

	"repro/internal/proto"
)

// Registry keys for the five flooding/storm baselines. The flooding
// names match the paper's approaches (1)-(3); the storm names are
// Ni et al.'s classic schemes.
const (
	SimpleName            = "simple-flooding"
	InterestAwareName     = "interests-aware-flooding"
	NeighborsInterestName = "neighbors-interests-flooding"
	StormProbName         = "probabilistic-broadcast"
	StormCounterName      = "counter-based-broadcast"
)

// Tuning is the registry params (proto.Params) of all five baselines.
// They have no settings: each runs at the one setup the paper and the
// storm literature give it. The type remains the registry's schema, so
// a spec carrying another protocol's params is still refused.
type Tuning struct{}

// Validate implements proto.Params.
func (Tuning) Validate() error { return nil }

func registerFlood(name, description string, variant Variant) {
	proto.RegisterProtocol(proto.Definition{
		Name:        name,
		Description: description,
		Params:      Tuning{},
		New: func(p proto.Params, env proto.Env) (proto.Disseminator, error) {
			if _, ok := p.(Tuning); !ok {
				return nil, fmt.Errorf("flood: params are %T, want flood.Tuning", p)
			}
			return New(variant, env)
		},
	})
}

func registerStorm(name, description string, scheme StormScheme) {
	proto.RegisterProtocol(proto.Definition{
		Name:        name,
		Description: description,
		Params:      Tuning{},
		New: func(p proto.Params, env proto.Env) (proto.Disseminator, error) {
			if _, ok := p.(Tuning); !ok {
				return nil, fmt.Errorf("flood: params are %T, want flood.Tuning", p)
			}
			return NewStorm(scheme, env)
		},
	})
}

func init() {
	registerFlood(SimpleName,
		"flooding approach (1): rebroadcast every valid event each period, irrespective of interests", Simple)
	registerFlood(InterestAwareName,
		"flooding approach (2): store and rebroadcast only subscribed events", InterestAware)
	registerFlood(NeighborsInterestName,
		"flooding approach (3): one addressed copy per interested neighbor, learned from heartbeats", NeighborsInterest)
	registerStorm(StormProbName,
		"Ni et al.'s probabilistic scheme: single-shot relay with probability P", Probabilistic)
	registerStorm(StormCounterName,
		"Ni et al.'s counter-based scheme: single-shot relay unless C copies were overheard", CounterBased)
}
