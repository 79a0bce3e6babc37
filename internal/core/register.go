package core

import (
	"fmt"
	"time"

	"repro/internal/proto"
)

// ProtocolName is the frugal protocol's registry key.
const ProtocolName = "frugal"

// Tuning is the frugal protocol's registry params (proto.Params): the
// scenario-level knobs of Config, without the per-node environment
// (identity, RNG, deliver hook) the runner supplies through proto.Env.
// The zero value selects the paper's defaults.
type Tuning struct {
	HB2NGC       float64
	HBDelay      time.Duration
	HBLowerBound time.Duration
	HBUpperBound time.Duration
	MaxEvents    int
	MaxNeighbors int
	// UseSpeed feeds the node's true speed into heartbeats (the paper's
	// tachometer optimization), via the environment's speed source.
	UseSpeed bool

	// Ablation knobs, passed through to Config (zero = paper design).
	DisableSuppression bool
	DisableAdaptiveHB  bool
	FixedBackoff       bool
	BlindPush          bool
	GCPolicy           GCPolicy
}

// Validate implements proto.Params; it mirrors Config.Validate's field
// checks so a bad spec fails at scenario-validation time.
func (t Tuning) Validate() error {
	return t.config(proto.Env{}).Validate()
}

// config merges the tuning with a node environment into a full Config.
func (t Tuning) config(env proto.Env) Config {
	cfg := Config{
		ID:                 env.ID,
		HB2NGC:             t.HB2NGC,
		HBDelay:            t.HBDelay,
		HBLowerBound:       t.HBLowerBound,
		HBUpperBound:       t.HBUpperBound,
		MaxEvents:          t.MaxEvents,
		MaxNeighbors:       t.MaxNeighbors,
		OnDeliver:          env.OnDeliver,
		Rand:               env.Rand,
		DisableSuppression: t.DisableSuppression,
		DisableAdaptiveHB:  t.DisableAdaptiveHB,
		FixedBackoff:       t.FixedBackoff,
		BlindPush:          t.BlindPush,
		GCPolicy:           t.GCPolicy,
	}
	if t.UseSpeed {
		cfg.Speed = env.Speed
	}
	return cfg
}

func init() {
	proto.RegisterProtocol(proto.Definition{
		Name:        ProtocolName,
		Description: "the paper's frugal protocol: adaptive heartbeats, id pre-exchange, proportional back-off",
		Params:      Tuning{},
		New: func(p proto.Params, env proto.Env) (proto.Disseminator, error) {
			t, ok := p.(Tuning)
			if !ok {
				return nil, fmt.Errorf("core: params are %T, want core.Tuning", p)
			}
			return New(t.config(env), env.Sched, env.Transport)
		},
	})
}
