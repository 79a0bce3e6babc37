package flood

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topic"
)

// ---- harness: zero-loss bus shared by flooding and storm nodes ----

type harness struct {
	t      *testing.T
	eng    *sim.Engine
	ids    []event.NodeID
	protos map[event.NodeID]proto.Disseminator
	deliv  map[event.NodeID][]event.Event
}

func newHarness(t *testing.T, seed int64) *harness {
	return &harness{
		t:      t,
		eng:    sim.New(seed),
		protos: make(map[event.NodeID]proto.Disseminator),
		deliv:  make(map[event.NodeID][]event.Event),
	}
}

type busTransport struct {
	h    *harness
	from event.NodeID
}

func (b busTransport) Broadcast(m event.Message) {
	for _, id := range b.h.ids {
		if id == b.from {
			continue
		}
		p := b.h.protos[id]
		b.h.eng.After(time.Millisecond, func() { _ = p.HandleMessage(m) })
	}
}

// env is node id's environment on the bus; seedOffset keeps the flood
// and storm suites on the RNG streams they were written against.
func (h *harness) env(id event.NodeID, seedOffset int64) proto.Env {
	return proto.Env{
		ID:        id,
		Sched:     proto.EngineScheduler{Eng: h.eng},
		Transport: busTransport{h: h, from: id},
		Rand:      rand.New(rand.NewSource(int64(id) + seedOffset)),
		OnDeliver: func(ev event.Event) { h.deliv[id] = append(h.deliv[id], ev) },
	}
}

// join puts a built node on the bus and subscribes it.
func (h *harness) join(id event.NodeID, d proto.Disseminator, err error, subs []string) {
	h.t.Helper()
	if err != nil {
		h.t.Fatal(err)
	}
	h.protos[id] = d
	h.ids = append(h.ids, id)
	for _, s := range subs {
		if err := d.Subscribe(topic.MustParse(s)); err != nil {
			h.t.Fatal(err)
		}
	}
}

func (h *harness) addNode(id event.NodeID, v Variant, subs ...string) *Protocol {
	h.t.Helper()
	p, err := New(v, h.env(id, 50))
	h.join(id, p, err, subs)
	return p
}

func (h *harness) runUntil(sec float64) { h.eng.RunUntil(sim.Seconds(sec)) }

// ---- tests ----

func TestSimpleFloodingDelivers(t *testing.T) {
	h := newHarness(t, 1)
	p1 := h.addNode(1, Simple, ".t")
	h.addNode(2, Simple, ".t")
	p3 := h.addNode(3, Simple, ".other")
	id, err := p1.Publish(topic.MustParse(".t"), []byte("x"), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	h.runUntil(5)
	if len(h.deliv[2]) != 1 || h.deliv[2][0].ID != id {
		t.Fatalf("p2 deliveries = %v", h.deliv[2])
	}
	// Simple flooding stores parasites and repropagates them...
	if !p3.HasEvent(id) {
		t.Fatal("simple flooding should store parasite events")
	}
	// ...but never delivers them.
	if len(h.deliv[3]) != 0 {
		t.Fatal("parasite delivered")
	}
	if h.protos[3].Stats().Parasites == 0 {
		t.Fatal("parasites not counted")
	}
}

func TestSimpleFloodingRebroadcastsEverySecond(t *testing.T) {
	h := newHarness(t, 2)
	p1 := h.addNode(1, Simple, ".t")
	h.addNode(2, Simple, ".t")
	if _, err := p1.Publish(topic.MustParse(".t"), nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	h.runUntil(10.5)
	// ~10 ticks on each node holding the event; the publisher floods from
	// t~0, the receiver from when it stores the copy.
	sent := p1.Stats().EventMsgsSent
	if sent < 8 || sent > 12 {
		t.Fatalf("publisher flooded %d times in 10s, want ~10", sent)
	}
	// Duplicates pile up at both: each rebroadcast re-delivers a stored
	// event.
	if h.protos[2].Stats().Duplicates < 5 {
		t.Fatalf("p2 duplicates = %d, want many", h.protos[2].Stats().Duplicates)
	}
}

func TestInterestAwareDropsParasites(t *testing.T) {
	h := newHarness(t, 3)
	p1 := h.addNode(1, InterestAware, ".t")
	p3 := h.addNode(3, InterestAware, ".other")
	id, err := p1.Publish(topic.MustParse(".t"), nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	h.runUntil(5)
	if p3.HasEvent(id) {
		t.Fatal("interests-aware flooding must not store parasites")
	}
	if p3.Stats().Parasites == 0 {
		t.Fatal("parasites not counted")
	}
	// p3 does not repropagate the parasite either.
	if p3.Stats().EventsSent != 0 {
		t.Fatal("parasite repropagated")
	}
}

func TestInterestAwareStillDeliversToSubscribers(t *testing.T) {
	h := newHarness(t, 4)
	p1 := h.addNode(1, InterestAware, ".t")
	h.addNode(2, InterestAware, ".t.sub") // covered by subtree semantics
	if _, err := p1.Publish(topic.MustParse(".t.sub.x"), nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	h.runUntil(5)
	if len(h.deliv[2]) != 1 {
		t.Fatalf("subtopic subscriber deliveries = %d", len(h.deliv[2]))
	}
}

func TestNeighborsInterestRequiresKnownNeighbor(t *testing.T) {
	h := newHarness(t, 5)
	p1 := h.addNode(1, NeighborsInterest, ".t")
	h.addNode(2, NeighborsInterest, ".t")
	if _, err := p1.Publish(topic.MustParse(".t"), nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	// Heartbeats (1s period) must establish neighborship before events
	// flow; after a few seconds p2 must have the event.
	h.runUntil(6)
	if len(h.deliv[2]) != 1 {
		t.Fatalf("p2 deliveries = %d, want 1", len(h.deliv[2]))
	}
	if p1.Stats().HeartbeatsSent == 0 {
		t.Fatal("variant 3 must send heartbeats")
	}
	// Addressed copies: each Events message targets exactly one receiver.
	if p1.Stats().EventMsgsSent == 0 {
		t.Fatal("no event messages sent")
	}
}

func TestNeighborsInterestSkipsUninterestedNeighbors(t *testing.T) {
	h := newHarness(t, 6)
	p1 := h.addNode(1, NeighborsInterest, ".t")
	h.addNode(2, NeighborsInterest, ".other")
	if _, err := p1.Publish(topic.MustParse(".t"), nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	h.runUntil(6)
	// The only other node is uninterested: no event copies at all.
	if got := p1.Stats().EventsSent; got != 0 {
		t.Fatalf("sent %d copies to uninterested neighborhood", got)
	}
}

func TestNeighborsInterestPerNeighborCopies(t *testing.T) {
	// Two interested neighbors: each tick transmits two addressed copies,
	// roughly doubling the event traffic of interests-aware flooding —
	// the behavior behind the paper's >1 MB footnote.
	h := newHarness(t, 7)
	p1 := h.addNode(1, NeighborsInterest, ".t")
	h.addNode(2, NeighborsInterest, ".t")
	h.addNode(3, NeighborsInterest, ".t")
	if _, err := p1.Publish(topic.MustParse(".t"), nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	h.runUntil(10.2)
	msgs := p1.Stats().EventMsgsSent
	copies := p1.Stats().EventsSent
	if msgs != copies {
		t.Fatalf("each message should carry one event: msgs=%d copies=%d", msgs, copies)
	}
	// ~8-9 ticks with 2 neighbors each (neighbors appear after first
	// heartbeats).
	if copies < 12 {
		t.Fatalf("copies = %d, want roughly 2 per tick", copies)
	}
}

func TestFloodExpiredEventsPruned(t *testing.T) {
	h := newHarness(t, 8)
	p1 := h.addNode(1, Simple, ".t")
	h.addNode(2, Simple, ".t")
	id, err := p1.Publish(topic.MustParse(".t"), nil, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	h.runUntil(10)
	if p1.HasEvent(id) {
		t.Fatal("expired event still stored")
	}
	sent := p1.Stats().EventMsgsSent
	h.runUntil(20)
	if p1.Stats().EventMsgsSent != sent {
		t.Fatal("expired event still being flooded")
	}
}

func TestFloodStop(t *testing.T) {
	h := newHarness(t, 10)
	p1 := h.addNode(1, Simple, ".t")
	if _, err := p1.Publish(topic.MustParse(".t"), nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	h.runUntil(3)
	p1.Stop()
	sent := p1.Stats().EventMsgsSent
	h.runUntil(10)
	if p1.Stats().EventMsgsSent != sent {
		t.Fatal("stopped node kept flooding")
	}
	if err := p1.Subscribe(topic.MustParse(".x")); err == nil {
		t.Fatal("Subscribe after Stop accepted")
	}
}

func TestFloodDeterminism(t *testing.T) {
	run := func() []proto.Stats {
		h := newHarness(t, 42)
		for id := event.NodeID(1); id <= 4; id++ {
			h.addNode(id, Simple, ".t")
		}
		if _, err := h.protos[1].Publish(topic.MustParse(".t"), nil, 30*time.Second); err != nil {
			t.Fatal(err)
		}
		h.runUntil(40)
		var out []proto.Stats
		for id := event.NodeID(1); id <= 4; id++ {
			out = append(out, h.protos[id].Stats())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flooding nondeterministic at node %d", i+1)
		}
	}
}

func TestFloodUnsubscribe(t *testing.T) {
	h := newHarness(t, 11)
	p1 := h.addNode(1, InterestAware, ".t")
	p2 := h.addNode(2, InterestAware, ".t")
	p2.Unsubscribe(topic.MustParse(".t"))
	if _, err := p1.Publish(topic.MustParse(".t"), nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	h.runUntil(5)
	if len(h.deliv[2]) != 0 {
		t.Fatal("unsubscribed flooding node delivered")
	}
	if p2.Stats().Parasites == 0 {
		t.Fatal("overheard events should count as parasites after unsubscribe")
	}
}

func TestFloodNeighborTTLExpires(t *testing.T) {
	// Variant 3 must forget neighbors whose heartbeats stop: after p2
	// stops, p1's per-neighbor flooding dries up.
	h := newHarness(t, 12)
	p1 := h.addNode(1, NeighborsInterest, ".t")
	p2 := h.addNode(2, NeighborsInterest, ".t")
	if _, err := p1.Publish(topic.MustParse(".t"), nil, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	h.runUntil(5)
	if p1.Stats().EventsSent == 0 {
		t.Fatal("setup: no flooding while neighbor alive")
	}
	p2.Stop()
	h.runUntil(10) // > 2.5s TTL after last heartbeat
	sent := p1.Stats().EventsSent
	h.runUntil(20)
	if p1.Stats().EventsSent != sent {
		t.Fatal("p1 keeps flooding a long-gone neighbor")
	}
}

func TestFloodIDAccessorAndIDListIgnored(t *testing.T) {
	h := newHarness(t, 13)
	p := h.addNode(4, Simple, ".t")
	if p.ID != 4 {
		t.Fatalf("ID = %v", p.ID)
	}
	if err := p.HandleMessage(event.IDList{From: 9}); err != nil {
		t.Fatalf("IDList should be ignored quietly, got %v", err)
	}
}
