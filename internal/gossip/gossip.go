// Package gossip implements a probabilistic push-pull rumor-mongering
// baseline in the style of the crowd-gossip literature (Ghaffari &
// Newport's discreet rumor spreading; the adaptive-vs-oblivious
// dissemination taxonomy of Farach-Colton et al.): nodes learn their
// neighborhood from periodic heartbeats and, every round, (push) send
// fresh rumors to a bounded random sample of interested neighbors and
// (pull) broadcast a digest of the event ids they hold, to which any
// neighbor holding more replies with the missing events.
//
// Compared with the frugal protocol it is oblivious to speed and makes
// no attempt at suppression: redundancy is bounded only by the fanout,
// the per-rumor round budget and the presumed-received bookkeeping.
// Compared with the flooding baselines it is far cheaper, but its
// per-round sampling trades latency for that economy.
//
// The package is wired into the simulation exclusively through the
// internal/proto registry (see init): no runner or harness code names
// it. It is, deliberately, the worked example for "adding a protocol"
// in ARCHITECTURE.md: subscriptions, lifecycle, Publish, dispatch, the
// event store and the neighbour table come from proto.Baseline and
// proto.Neighbors, so this file is the params, the constructor and the
// gossip rule.
package gossip

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/event"
	"repro/internal/proto"
)

// ProtocolName is the registry key.
const ProtocolName = "gossip-pushpull"

// The protocol's one setup.
const (
	// defaultFanout is the number of neighbors sampled per push round.
	defaultFanout = 2
	// defaultRounds is the per-rumor push budget: after this many
	// rounds a rumor is only served through pulls.
	defaultRounds = 3
	// period is the gossip round interval; the heartbeat period equals
	// it.
	period = time.Second
)

// Tuning is the protocol's registry params (proto.Params). It has no
// settings; the type remains the registry's schema.
type Tuning struct{}

// Validate implements proto.Params.
func (Tuning) Validate() error { return nil }

// rumor is the push state of one stored event.
type rumor struct {
	pushLeft int // remaining push rounds; pulls serve it afterwards
}

// known is the per-neighbor state: the event ids the peer is presumed
// to have (from digests, addressed sends and overheard traffic) — the
// push/pull filter.
type known map[event.ID]bool

// Protocol is one push-pull gossip process: the skeleton plus the
// gossip rule — the round, the pull answer, the sample, and how long an
// expired rumor is remembered.
type Protocol struct {
	proto.Baseline[rumor]
	// fanout and rounds are defaultFanout and defaultRounds; in-package
	// tests lower them.
	fanout, rounds int
	nbrs           *proto.Neighbors[known]
}

// New creates a gossip node; the periodic round and heartbeat tasks
// start on the first Subscribe or Publish.
func New(env proto.Env) (*Protocol, error) {
	p := &Protocol{fanout: defaultFanout, rounds: defaultRounds, nbrs: proto.NewNeighbors[known](period)}
	if err := p.Init(env, p); err != nil {
		return nil, err
	}
	// The round's phase is drawn before the heartbeat's.
	p.Every(period, p.roundTick)
	p.Every(period, p.Heartbeat)
	return p, nil
}

// OnPublish implements proto.Rule: a published rumor starts with a full
// push budget; the next round starts spreading it.
func (p *Protocol) OnPublish(ru *proto.Stored[rumor]) { ru.State.pushLeft = p.rounds }

// OnHeartbeat implements proto.Rule.
func (p *Protocol) OnHeartbeat(h event.Heartbeat) {
	if nb := p.nbrs.Observe(h, p.Sched.Now()); nb.State == nil {
		nb.State = make(known)
	}
}

// OnIDList implements proto.Rule with the pull half: a digest lists the
// ids the sender holds; we answer with the valid events of interest to
// the sender that the digest lacks.
func (p *Protocol) OnIDList(l event.IDList) {
	nb := p.nbrs.Get(l.From)
	if nb == nil {
		return // undiscovered sender: its next heartbeat fixes this
	}
	for _, id := range l.IDs {
		nb.State[id] = true
	}
	now := p.Sched.Now()
	p.send(p.Valid(now), now, l.From, nb, false)
}

// OnEvents implements proto.Rule.
func (p *Protocol) OnEvents(msg event.Events) {
	now := p.Sched.Now()
	// Presumed-received: the sender and every addressed receiver hold
	// the carried events — the filter that keeps push/pull finite.
	holders := make([]*proto.Neighbor[known], 0, len(msg.Receivers)+1)
	if nb := p.nbrs.Get(msg.From); nb != nil {
		holders = append(holders, nb)
	}
	for _, r := range msg.Receivers {
		if nb := p.nbrs.Get(r); nb != nil {
			holders = append(holders, nb)
		}
	}
	for _, ev := range msg.Events {
		for _, nb := range holders {
			nb.State[ev.ID] = true
		}
		// Events outside our interests are dropped.
		if ru, fresh := p.Receive(ev, now, false); fresh {
			ru.State.pushLeft = p.rounds
		}
	}
}

// roundTick is the gossip round: push hot rumors to a random sample of
// interested neighbors, then broadcast the digest that lets any
// neighbor pull what we miss.
func (p *Protocol) roundTick() {
	now := p.Sched.Now()
	p.prune(now)
	valid := p.Valid(now)
	sample := p.sampleNeighbors()
	for _, id := range sample {
		p.send(valid, now, id, p.nbrs.Get(id), true)
	}
	if len(sample) > 0 {
		// The budget burns per round with peers in range, pushed or
		// not: a rumor the whole sample already knows is cold.
		for _, ru := range valid {
			if ru.State.pushLeft > 0 {
				ru.State.pushLeft--
			}
		}
	}
	if !p.Subs.Empty() {
		// The pull request: advertise holdings (even empty — that is
		// precisely "send me everything").
		ids := make([]event.ID, len(valid))
		for i, ru := range valid {
			ids[i] = ru.Ev.ID
		}
		p.Transport.Broadcast(event.IDList{From: p.ID, IDs: ids})
		p.Count.IDListsSent++
	}
}

// send addresses to peer the valid rumors it subscribes to and is not
// presumed to hold — a push only those with budget left, a pull answer
// all of them — and presumes them received.
func (p *Protocol) send(valid []*proto.Stored[rumor], now time.Duration, peer event.NodeID, nb *proto.Neighbor[known], push bool) {
	var batch []*proto.Stored[rumor]
	for _, ru := range valid {
		if (!push || ru.State.pushLeft > 0) && !nb.State[ru.Ev.ID] && nb.Subs.Covers(ru.Ev.Topic) {
			batch = append(batch, ru)
			nb.State[ru.Ev.ID] = true
		}
	}
	p.Send(batch, now, peer)
}

// sampleNeighbors draws up to fanout live neighbor ids, uniformly
// without replacement, in a deterministic order given the node RNG.
func (p *Protocol) sampleNeighbors() []event.NodeID {
	ids := p.nbrs.IDs()
	if len(ids) <= p.fanout {
		return ids
	}
	picked := make([]event.NodeID, 0, p.fanout)
	for _, i := range p.Rand.Perm(len(ids))[:p.fanout] {
		picked = append(picked, ids[i])
	}
	slices.Sort(picked)
	return picked
}

// prune drops expired rumors and stale neighbors. Retention rule:
// expired rumors are kept one neighbor TTL past expiry as delivery
// memory: a peer that received the event later holds a slightly later
// expiry (transit time accumulates), so a copy can still arrive with
// Remaining > 0 shortly after our own copy expired — dropping the entry
// immediately would re-deliver it. Valid filters them out of digests
// and pushes.
func (p *Protocol) prune(now time.Duration) {
	p.Prune(func(ru *proto.Stored[rumor]) bool { return now >= ru.ExpiresAt+p.nbrs.TTL })
	p.nbrs.Prune(now)
	for _, id := range p.nbrs.IDs() {
		// The known filter only ever guards pushes/pulls of events we
		// hold, so entries for ids outside the store are dead weight —
		// dropping them bounds per-neighbor memory by the store size
		// instead of growing with every event id ever overheard.
		nb := p.nbrs.Get(id)
		for evID := range nb.State {
			if !p.HasEvent(evID) {
				delete(nb.State, evID)
			}
		}
	}
}

func init() {
	proto.RegisterProtocol(proto.Definition{
		Name:        ProtocolName,
		Description: "push-pull rumor mongering: per-round fanout-bounded pushes plus digest-driven pulls over heartbeat-learned neighborhoods",
		Params:      Tuning{},
		New: func(p proto.Params, env proto.Env) (proto.Disseminator, error) {
			if _, ok := p.(Tuning); !ok {
				return nil, fmt.Errorf("gossip: params are %T, want gossip.Tuning", p)
			}
			return New(env)
		},
	})
}
