package workload

import (
	"fmt"
	"time"
)

// NodeChurnParams tunes the "churn-nodes" generator: waves of
// simultaneous node failures with staggered instants and optional
// recovery, modeling vehicles leaving and re-entering coverage (or
// devices power-cycling) en masse.
type NodeChurnParams struct {
	// Waves is the number of crash waves, evenly spaced over the
	// measurement window (default 2).
	Waves int
	// Fraction of the roster crashed per wave, in [0,1] (default 0.1;
	// at least one node per wave).
	Fraction float64
	// Stagger spreads each wave's crash instants uniformly over
	// [0, Stagger] (default 2 s).
	Stagger time.Duration
	// Downtime is how long a crashed node stays down before recovering
	// with empty state (default 20 s); negative means it never
	// recovers. Recoveries past the run's horizon are dropped — the
	// node stays down.
	Downtime time.Duration
}

// Validate implements Params.
func (p NodeChurnParams) Validate() error {
	if p.Waves < 0 {
		return fmt.Errorf("workload: negative churn Waves %d", p.Waves)
	}
	if p.Fraction < 0 || p.Fraction > 1 {
		return fmt.Errorf("workload: churn Fraction %v out of [0,1]", p.Fraction)
	}
	if p.Stagger < 0 {
		return fmt.Errorf("workload: negative churn Stagger %v", p.Stagger)
	}
	return nil
}

// SubChurnParams is the "churn-subs" generator's params: a Poisson
// stream of subscription flips — a random node drops the event topic,
// then resubscribes after a fixed delay — exercising the paper's "the
// list of subscriptions can change at any point in time". It has no
// settings; the generator runs at the constants below.
type SubChurnParams struct{}

// Validate implements Params.
func (SubChurnParams) Validate() error { return nil }

// The churn-subs generator's mean flip rate across the roster in
// flips/second, and the delay before a flipped node resubscribes;
// resubscriptions past the run's horizon are dropped.
const (
	subChurnRate  = 0.1
	subChurnResub = 15 * time.Second
)

// nodeChurnGen precomputes its wave schedule at build: churn volume is
// bounded by Waves x Fraction x Nodes (dozens of ops, not the
// million-op traffic regime), so a sorted slice is simpler than lazy
// emission and trivially monotone even when recoveries of one wave
// outlast the next wave's crashes.
func newNodeChurn(p NodeChurnParams, env Env) Generator {
	waves := p.Waves
	if waves == 0 {
		waves = 2
	}
	frac := defFloat(p.Fraction, 0.1)
	stagger := defDuration(p.Stagger, 2*time.Second)
	downtime := p.Downtime
	if downtime == 0 {
		downtime = 20 * time.Second
	}
	if env.Nodes <= 0 {
		return NewExplicit(nil)
	}
	perWave := int(float64(env.Nodes)*frac + 0.5)
	if perWave < 1 && frac > 0 {
		perWave = 1
	}
	if perWave > env.Nodes {
		perWave = env.Nodes
	}
	var ops []Op
	for w := 0; w < waves; w++ {
		waveAt := env.Start() + time.Duration(w+1)*env.Measure/time.Duration(waves+1)
		victims := env.Rand.Perm(env.Nodes)[:perWave]
		for _, node := range victims {
			crashAt := waveAt
			if stagger > 0 {
				crashAt += time.Duration(env.Rand.Int63n(int64(stagger) + 1))
			}
			if crashAt >= env.End() {
				continue
			}
			ops = append(ops, Op{At: crashAt, Kind: Crash, Node: node})
			if downtime >= 0 {
				if recoverAt := crashAt + downtime; recoverAt <= env.End() {
					ops = append(ops, Op{At: recoverAt, Kind: Recover, Node: node})
				}
			}
		}
	}
	SortOps(ops)
	return NewExplicit(ops)
}

// subChurnGen lazily interleaves the Poisson unsubscribe stream with
// the resubscriptions it spawns. Pending resubscriptions form a FIFO
// (the fixed delay keeps it time-ordered), so memory stays bounded by
// subChurnRate x subChurnResub, independent of run length.
type subChurnGen struct {
	env       Env
	nextUnsub time.Duration
	unsubDone bool
	pending   []Op
}

func (g *subChurnGen) advance() {
	gap := time.Duration(g.env.Rand.ExpFloat64() / subChurnRate * float64(time.Second))
	g.nextUnsub += gap
	if g.nextUnsub >= g.env.End() {
		g.unsubDone = true
	}
}

func (g *subChurnGen) Next() (Op, bool) {
	for {
		if len(g.pending) > 0 && (g.unsubDone || g.pending[0].At <= g.nextUnsub) {
			op := g.pending[0]
			g.pending = g.pending[1:]
			return op, true
		}
		if g.unsubDone {
			return Op{}, false
		}
		at := g.nextUnsub
		node := g.env.Rand.Intn(g.env.Nodes)
		g.advance()
		if resubAt := at + subChurnResub; resubAt <= g.env.End() {
			g.pending = append(g.pending, Op{At: resubAt, Kind: Subscribe, Node: node})
		}
		// The zero topic resolves to the scenario's event topic.
		return Op{At: at, Kind: Unsubscribe, Node: node}, true
	}
}

func init() {
	RegisterWorkload(Definition{
		Name:        "churn-nodes",
		Description: "waves of staggered node crashes with optional recovery (coverage loss, power cycling)",
		Class:       ClassChurn,
		Params:      NodeChurnParams{},
		New: func(p Params, env Env) (Generator, error) {
			return newNodeChurn(p.(NodeChurnParams), env), nil
		},
	})
	RegisterWorkload(Definition{
		Name:        "churn-subs",
		Description: "Poisson subscription flips: drop the event topic, resubscribe after a delay",
		Class:       ClassChurn,
		Params:      SubChurnParams{},
		New: func(_ Params, env Env) (Generator, error) {
			if env.Nodes <= 0 {
				return NewExplicit(nil), nil
			}
			g := &subChurnGen{env: env, nextUnsub: env.Start()}
			g.advance() // the first flip arrives one exponential gap in
			return g, nil
		},
	})
}
