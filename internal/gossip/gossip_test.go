package gossip

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topic"
)

// harness wires gossip nodes to a lossless broadcast bus with a small
// constant delay.
type harness struct {
	t     *testing.T
	eng   *sim.Engine
	ids   []event.NodeID
	nodes map[event.NodeID]*Protocol
	deliv map[event.NodeID][]event.Event
}

type bus struct {
	h    *harness
	from event.NodeID
}

func (b bus) Broadcast(m event.Message) {
	for _, id := range b.h.ids {
		if id == b.from {
			continue
		}
		node := b.h.nodes[id]
		b.h.eng.After(time.Millisecond, func() {
			if err := node.HandleMessage(m); err != nil {
				b.h.t.Errorf("node %v rejected %T: %v", id, m, err)
			}
		})
	}
}

func newHarness(t *testing.T, seed int64) *harness {
	return &harness{
		t:     t,
		eng:   sim.New(seed),
		nodes: make(map[event.NodeID]*Protocol),
		deliv: make(map[event.NodeID][]event.Event),
	}
}

// knobs overrides a node's push parameters; zero fields keep the
// package's.
type knobs struct{ Fanout, Rounds int }

func (h *harness) addNode(id event.NodeID, k knobs, subs ...string) *Protocol {
	h.t.Helper()
	p, err := New(proto.Env{
		ID:        id,
		Sched:     proto.EngineScheduler{Eng: h.eng},
		Transport: bus{h: h, from: id},
		Rand:      rand.New(rand.NewSource(int64(id) + 400)),
		OnDeliver: func(ev event.Event) { h.deliv[id] = append(h.deliv[id], ev) },
	})
	if err != nil {
		h.t.Fatal(err)
	}
	if k.Fanout != 0 {
		p.fanout = k.Fanout
	}
	if k.Rounds != 0 {
		p.rounds = k.Rounds
	}
	for _, s := range subs {
		if err := p.Subscribe(topic.MustParse(s)); err != nil {
			h.t.Fatal(err)
		}
	}
	h.nodes[id] = p
	h.ids = append(h.ids, id)
	return p
}

func (h *harness) runUntil(secs float64) { h.eng.RunUntil(sim.Seconds(secs)) }

func TestValidateAndDefaults(t *testing.T) {
	if err := (Tuning{}).Validate(); err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, 1)
	p := h.addNode(1, knobs{})
	if p.fanout != defaultFanout || p.rounds != defaultRounds || p.nbrs.TTL != 2500*time.Millisecond {
		t.Fatalf("defaults: fanout %d rounds %d neighbour TTL %v", p.fanout, p.rounds, p.nbrs.TTL)
	}
	if _, err := New(proto.Env{}); err == nil {
		t.Fatal("New without environment succeeded")
	}
}

func TestRumorReachesEveryoneAndStopsPushing(t *testing.T) {
	h := newHarness(t, 1)
	const n = 5
	for id := event.NodeID(1); id <= n; id++ {
		h.addNode(id, knobs{}, ".t")
	}
	h.runUntil(3) // heartbeats discover the clique
	id, err := h.nodes[1].Publish(topic.MustParse(".t"), nil, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	h.runUntil(20)
	for node := event.NodeID(2); node <= n; node++ {
		if !h.nodes[node].HasEvent(id) {
			t.Fatalf("node %v missing the rumor after 20 s", node)
		}
		if len(h.deliv[node]) != 1 {
			t.Fatalf("node %v delivered %d times", node, len(h.deliv[node]))
		}
	}
	// Once everyone holds it, the presumed-received bookkeeping and the
	// exhausted push budget must quench the rumor: event traffic stops.
	var before uint64
	for _, p := range h.nodes {
		before += p.Stats().EventsSent
	}
	h.runUntil(60)
	var after uint64
	for _, p := range h.nodes {
		after += p.Stats().EventsSent
	}
	if after != before {
		t.Fatalf("rumor not quenched: %d event copies sent between 20 s and 60 s", after-before)
	}
}

func TestPullHealsLateJoiner(t *testing.T) {
	h := newHarness(t, 2)
	for id := event.NodeID(1); id <= 3; id++ {
		h.addNode(id, knobs{}, ".t")
	}
	h.runUntil(3)
	id, err := h.nodes[1].Publish(topic.MustParse(".t"), nil, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Let the push budget burn out completely.
	h.runUntil(30)
	// A late joiner appears; only the digest/pull path can serve it
	// (pushLeft is long exhausted everywhere).
	late := h.addNode(9, knobs{}, ".t")
	h.runUntil(45)
	if !late.HasEvent(id) {
		t.Fatal("late joiner never pulled the cold rumor")
	}
	if len(h.deliv[9]) != 1 {
		t.Fatalf("late joiner delivered %d times", len(h.deliv[9]))
	}
}

func TestUninterestedNodesGetNothing(t *testing.T) {
	h := newHarness(t, 3)
	h.addNode(1, knobs{}, ".t")
	h.addNode(2, knobs{}, ".t")
	h.addNode(3, knobs{}, ".other")
	h.runUntil(3)
	id, err := h.nodes[1].Publish(topic.MustParse(".t"), nil, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	h.runUntil(30)
	if len(h.deliv[3]) != 0 {
		t.Fatal("uninterested node delivered")
	}
	if h.nodes[3].HasEvent(id) {
		t.Fatal("uninterested node stored a parasite event")
	}
	if len(h.deliv[2]) != 1 {
		t.Fatalf("interested node delivered %d times", len(h.deliv[2]))
	}
}

func TestFanoutBoundsPerRoundPushes(t *testing.T) {
	// A publisher with many neighbors and fanout 1 may address at most
	// one push per round; with Rounds=2 the publisher itself sends at
	// most 2 pushed copies of the rumor (pull responses are addressed
	// too, but come from other holders).
	h := newHarness(t, 4)
	const n = 8
	for id := event.NodeID(1); id <= n; id++ {
		h.addNode(id, knobs{Fanout: 1, Rounds: 2}, ".t")
	}
	h.runUntil(3)
	if _, err := h.nodes[1].Publish(topic.MustParse(".t"), nil, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	h.runUntil(30)
	if sent := h.nodes[1].Stats().EventsSent; sent > 2 {
		t.Fatalf("publisher pushed %d copies with fanout 1, rounds 2", sent)
	}
	// The rumor still spreads: pulls and secondary pushes carry it.
	covered := 0
	for id := event.NodeID(2); id <= n; id++ {
		if len(h.deliv[id]) > 0 {
			covered++
		}
	}
	if covered < n-2 {
		t.Fatalf("only %d of %d nodes covered", covered, n-1)
	}
}

func TestExpiredRumorsDropAndValidityRespected(t *testing.T) {
	h := newHarness(t, 5)
	h.addNode(1, knobs{}, ".t")
	h.addNode(2, knobs{}, ".t")
	h.runUntil(3)
	id, err := h.nodes[1].Publish(topic.MustParse(".t"), nil, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	h.runUntil(30)
	if h.nodes[1].HasEvent(id) || h.nodes[2].HasEvent(id) {
		t.Fatal("expired rumor not pruned")
	}
	if _, err := h.nodes[1].Publish(topic.MustParse(".t"), nil, 0); err == nil {
		t.Fatal("zero validity accepted")
	}
}

// TestNoRedeliveryAtExpiryBoundary pins the retention window: a copy
// arriving with Remaining > 0 just after our own copy expired (the
// sender received it later, so its expiry is slightly later) must count
// as a duplicate, not deliver again.
func TestNoRedeliveryAtExpiryBoundary(t *testing.T) {
	h := newHarness(t, 8)
	a := h.addNode(1, knobs{}, ".t")
	rng := rand.New(rand.NewSource(99))
	ev := event.Event{
		ID:        event.NewID(rng),
		Topic:     topic.MustParse(".t"),
		Publisher: 7,
		Validity:  10 * time.Second,
		Remaining: 2 * time.Second,
	}
	h.runUntil(3)
	if err := a.HandleMessage(event.Events{From: 7, Events: []event.Event{ev}}); err != nil {
		t.Fatal(err)
	}
	h.runUntil(5.2) // our copy expired at t=5
	late := ev
	late.Remaining = 300 * time.Millisecond // straggler from a later-expiring holder
	if err := a.HandleMessage(event.Events{From: 8, Events: []event.Event{late}}); err != nil {
		t.Fatal(err)
	}
	if got := len(h.deliv[1]); got != 1 {
		t.Fatalf("delivered %d times across the expiry boundary, want 1", got)
	}
	if a.Stats().Duplicates != 1 {
		t.Fatalf("straggler not counted as duplicate: %+v", a.Stats())
	}
	// Past the retention horizon the delivery memory is released.
	h.runUntil(30)
	if a.HasEvent(ev.ID) {
		t.Fatal("expired rumor retained past the horizon")
	}
}

func TestStoppedProtocolIsInert(t *testing.T) {
	h := newHarness(t, 6)
	p := h.addNode(1, knobs{}, ".t")
	h.addNode(2, knobs{}, ".t")
	h.runUntil(3)
	p.Stop()
	before := p.Stats()
	h.runUntil(20)
	if p.Stats() != before {
		t.Fatal("stopped protocol kept counting")
	}
}

func TestNeighborTTLExpires(t *testing.T) {
	h := newHarness(t, 7)
	a := h.addNode(1, knobs{}, ".t")
	b := h.addNode(2, knobs{}, ".t")
	h.runUntil(3)
	if got := len(a.nbrs.IDs()); got != 1 {
		t.Fatalf("node 1 knows %d neighbors, want 1", got)
	}
	// Silence node 2: its rows must age out of node 1's table.
	b.Stop()
	h.runUntil(10)
	if len(a.nbrs.IDs()) != 0 {
		t.Fatal("stale neighbor survived the TTL")
	}
}
