// Package flood implements the three flooding baselines the paper
// compares against in Section 5.2 ("Frugality"):
//
//   - Simple flooding: every second, a process rebroadcasts every
//     still-valid event it holds, irrespective of anyone's interests.
//   - Interests-aware flooding: a process stores and rebroadcasts only the
//     events it has itself subscribed to.
//   - Neighbors'-interests flooding: a process rebroadcasts an event only
//     if it is interested AND it knows (from heartbeats) a neighbor that
//     is; one addressed copy per interested neighbor is transmitted,
//     emulating the MAC-level unicasts such schemes use. This is why the
//     paper reports it consuming over 1 MB per process.
//
// and, in storm.go, the two broadcast-storm schemes of its related work.
// All five embed proto.Baseline — subscriptions, lifecycle, Publish,
// dispatch, the event store and (approach 3) the neighbour table live
// there — so each file holds its protocol's rule only: what a received
// event is kept for, and what is sent when. register.go wires them into
// the proto registry, the only way they are constructed outside tests.
package flood

import (
	"time"

	"repro/internal/event"
	"repro/internal/proto"
)

// Variant selects the flooding baseline.
type Variant int

const (
	// Simple is approach (1): flood everything, every second.
	Simple Variant = iota
	// InterestAware is approach (2): flood only subscribed events.
	InterestAware
	// NeighborsInterest is approach (3): flood subscribed events only
	// toward interested neighbors (one copy per neighbor).
	NeighborsInterest
)

// Protocol is one flooding process. Flooding attaches no state to a
// stored event and none to a neighbor.
type Protocol struct {
	proto.Baseline[struct{}]
	variant Variant
	nbrs    *proto.Neighbors[struct{}] // NeighborsInterest only
}

// period is the flood (and approach-3 heartbeat) period: the paper's
// one second.
const period = time.Second

// New creates a flooding node; the periodic flood task starts on the
// first Subscribe or Publish.
func New(v Variant, env proto.Env) (*Protocol, error) {
	p := &Protocol{variant: v}
	if err := p.Init(env, p); err != nil {
		return nil, err
	}
	// The tick's phase is drawn before the heartbeat's.
	p.Every(period, p.tick)
	if v == NeighborsInterest {
		p.nbrs = proto.NewNeighbors[struct{}](period)
		p.Every(period, p.Heartbeat)
	}
	return p, nil
}

// OnHeartbeat implements proto.Rule: only approach (3) sends heartbeats
// and learns from received ones.
func (p *Protocol) OnHeartbeat(h event.Heartbeat) {
	if p.nbrs != nil {
		p.nbrs.Observe(h, p.Sched.Now())
	}
}

// OnIDList implements proto.Rule: flooding exchanges no id lists.
func (p *Protocol) OnIDList(event.IDList) {}

// OnPublish implements proto.Rule: the next tick floods the event.
func (p *Protocol) OnPublish(*proto.Stored[struct{}]) {}

// OnEvents implements proto.Rule.
func (p *Protocol) OnEvents(msg event.Events) {
	now := p.Sched.Now()
	for _, ev := range msg.Events {
		// Simple flooding stores and repropagates parasites; the
		// interest-filtered variants drop them.
		p.Receive(ev, now, p.variant == Simple)
	}
}

// tick is the 1-second flood task. Retention rule: an event leaves the
// store at the first tick past its validity.
func (p *Protocol) tick() {
	now := p.Sched.Now()
	p.Prune(func(e *proto.Stored[struct{}]) bool { return now >= e.ExpiresAt })
	entries := p.Valid(now)
	if p.variant != NeighborsInterest {
		// InterestAware stores only subscribed events, so flooding the
		// whole store implements its rule.
		p.Send(entries, now)
		return
	}
	// Approach (3): for each interested neighbor, transmit one addressed
	// copy of each event of interest to it.
	p.nbrs.Prune(now)
	for _, id := range p.nbrs.IDs() {
		nb := p.nbrs.Get(id)
		var batch []*proto.Stored[struct{}]
		for _, e := range entries {
			if p.Subs.Covers(e.Ev.Topic) && nb.Subs.Covers(e.Ev.Topic) {
				batch = append(batch, e)
			}
		}
		p.Send(batch, now, id)
	}
}
