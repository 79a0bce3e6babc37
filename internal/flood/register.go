package flood

import (
	"errors"
	"fmt"
	"time"

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

// Tuning is the flooding baselines' registry params: the rebroadcast
// period (zero = the paper's one second).
type Tuning struct {
	Period time.Duration
}

// Validate implements proto.Params.
func (t Tuning) Validate() error {
	if t.Period < 0 {
		return errors.New("flood: negative period")
	}
	return nil
}

// StormTuning is the broadcast-storm schemes' registry params (zero =
// the package defaults: P 0.6, threshold 3, assessment 500 ms).
type StormTuning struct {
	P                float64
	CounterThreshold int
	AssessmentDelay  time.Duration
}

// Validate implements proto.Params.
func (t StormTuning) Validate() error {
	if t.P < 0 || t.P > 1 {
		return fmt.Errorf("flood: storm probability %v out of [0,1]", t.P)
	}
	if t.CounterThreshold < 0 || t.AssessmentDelay < 0 {
		return errors.New("flood: negative storm parameter")
	}
	return nil
}

func registerFlood(name, description string, variant Variant) {
	proto.RegisterProtocol(proto.Definition{
		Name:        name,
		Description: description,
		Params:      Tuning{},
		New: func(p proto.Params, env proto.Env) (proto.Disseminator, error) {
			t, ok := p.(Tuning)
			if !ok {
				return nil, fmt.Errorf("flood: params are %T, want flood.Tuning", p)
			}
			return New(variant, t, env)
		},
	})
}

func registerStorm(name, description string, scheme StormScheme) {
	proto.RegisterProtocol(proto.Definition{
		Name:        name,
		Description: description,
		Params:      StormTuning{},
		New: func(p proto.Params, env proto.Env) (proto.Disseminator, error) {
			t, ok := p.(StormTuning)
			if !ok {
				return nil, fmt.Errorf("flood: params are %T, want flood.StormTuning", p)
			}
			return NewStorm(scheme, t, env)
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
