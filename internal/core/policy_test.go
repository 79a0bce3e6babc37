package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/topic"
)

func TestGCFIFOPolicy(t *testing.T) {
	tb := newEventTable(3)
	tb.policy = GCFIFO
	tb.put(t, mkEvent(1, ".a", time.Hour), 0)
	tb.put(t, mkEvent(2, ".a", time.Minute), time.Second)
	tb.put(t, mkEvent(3, ".a", time.Second*90), 2*time.Second)
	// Make event 2 the paper-policy victim (heavily forwarded); FIFO
	// must still pick the oldest (event 1).
	tb.setFwd(tb.get(event.ID{Lo: 2}), 50)
	evicted := tb.put(t, mkEvent(4, ".a", time.Minute), 3*time.Second)
	if evicted == nil || evicted.ev.ID.Lo != 1 {
		t.Fatalf("FIFO evicted %+v, want oldest (1)", evicted)
	}
}

func TestGCRandomPolicy(t *testing.T) {
	// Random policy with a fixed seed is deterministic and evicts a
	// valid entry; across many fills every entry is hit eventually.
	hits := make(map[uint64]bool)
	for seed := int64(0); seed < 20; seed++ {
		tb := newEventTable(3)
		tb.policy = GCRandom
		tb.rng = rand.New(rand.NewSource(seed))
		for i := uint64(1); i <= 3; i++ {
			tb.put(t, mkEvent(i, ".a", time.Hour), 0)
		}
		evicted := tb.put(t, mkEvent(99, ".a", time.Hour), time.Second)
		if evicted == nil {
			t.Fatal("no eviction at capacity")
		}
		hits[evicted.ev.ID.Lo] = true
	}
	if len(hits) < 2 {
		t.Fatalf("random policy always picked the same victim: %v", hits)
	}
}

func TestGCRandomStillPrefersExpired(t *testing.T) {
	tb := newEventTable(2)
	tb.policy = GCRandom
	tb.rng = rand.New(rand.NewSource(1))
	tb.put(t, mkEvent(1, ".a", time.Second), 0) // expires at 1s
	tb.put(t, mkEvent(2, ".a", time.Hour), 0)
	evicted := tb.put(t, mkEvent(3, ".a", time.Hour), 2*time.Second)
	if evicted == nil || evicted.ev.ID.Lo != 1 {
		t.Fatalf("random policy must still evict expired first, got %+v", evicted)
	}
}

func TestPendingIDListExpiry(t *testing.T) {
	// An id list stashed from an unknown sender expires after the NGC
	// horizon: a heartbeat arriving later must not apply it.
	h := newHarness(t, 31)
	p := h.addNode(1, Config{}, ".t")
	// Unknown node 5 claims to have event X.
	x := event.ID{Lo: 77}
	if err := p.HandleMessage(event.IDList{From: 5, IDs: []event.ID{x}}); err != nil {
		t.Fatal(err)
	}
	if len(p.pendingIDs) != 1 {
		t.Fatal("id list not stashed")
	}
	// Much later (beyond ngcDelay = 2.5s), node 5's heartbeat arrives.
	h.runUntil(10)
	if err := p.HandleMessage(event.Heartbeat{
		From:          5,
		Subscriptions: []topic.Topic{topic.MustParse(".t")},
		Speed:         -1,
	}); err != nil {
		t.Fatal(err)
	}
	if nb := p.nbrs.get(5); nb == nil {
		t.Fatal("neighbor not added")
	} else if p.knows(nb, x) {
		t.Fatal("stale stashed id list was applied")
	}
	if len(p.pendingIDs) != 0 {
		t.Fatal("stash entry not consumed")
	}
}

func TestPendingIDListCapBounded(t *testing.T) {
	h := newHarness(t, 32)
	p := h.addNode(1, Config{}, ".t")
	for i := 0; i < maxPendingIDLists*2; i++ {
		_ = p.HandleMessage(event.IDList{From: event.NodeID(100 + i)})
	}
	if len(p.pendingIDs) > maxPendingIDLists {
		t.Fatalf("stash grew to %d, cap %d", len(p.pendingIDs), maxPendingIDLists)
	}
}

func TestPendingStashReplacesWhenFull(t *testing.T) {
	// A full stash still takes a fresher list from a sender it already
	// holds: replacing needs no free slot, and keeping the stale list is
	// the deadlock the stash exists to prevent.
	h := newHarness(t, 36)
	p := h.addNode(1, Config{}, ".t")
	stale, fresh := event.ID{Lo: 1}, event.ID{Lo: 2}
	_ = p.HandleMessage(event.IDList{From: 100, IDs: []event.ID{stale}})
	for i := 1; i < maxPendingIDLists; i++ {
		_ = p.HandleMessage(event.IDList{From: event.NodeID(100 + i)})
	}
	_ = p.HandleMessage(event.IDList{From: 100, IDs: []event.ID{fresh}})
	_ = p.HandleMessage(event.IDList{From: 999, IDs: []event.ID{fresh}}) // no room: dropped
	if len(p.pendingIDs) != maxPendingIDLists || p.pendingFrom(999) >= 0 {
		t.Fatalf("stash holds %d lists (one from 999: %v), want the same %d senders",
			len(p.pendingIDs), p.pendingFrom(999) >= 0, maxPendingIDLists)
	}
	_ = p.HandleMessage(event.Heartbeat{From: 100, Subscriptions: []topic.Topic{topic.MustParse(".t")}, Speed: -1})
	nb := p.nbrs.get(100)
	if nb == nil || !p.knows(nb, fresh) || p.knows(nb, stale) {
		t.Fatal("the stale list survived in the full stash: the fresher one was dropped")
	}
}

func TestHeartbeatRemovesNoLongerOverlappingNeighbor(t *testing.T) {
	h := newHarness(t, 33)
	p1 := h.addNode(1, Config{}, ".t")
	p2 := h.addNode(2, Config{}, ".t")
	h.runUntil(3)
	if len(p1.NeighborIDs()) != 1 {
		t.Fatal("setup: discovery failed")
	}
	// p2 switches interests entirely; p1 must drop it on the next
	// heartbeat rather than keep a stale matching row.
	p2.Unsubscribe(topic.MustParse(".t"))
	if err := p2.Subscribe(topic.MustParse(".elsewhere")); err != nil {
		t.Fatal(err)
	}
	h.runUntil(6)
	if len(p1.NeighborIDs()) != 0 {
		t.Fatalf("p1 still lists p2 after interest change: %v", p1.NeighborIDs())
	}
}

func TestMaxNeighborsCapThroughProtocol(t *testing.T) {
	h := newHarness(t, 34)
	cfg := Config{MaxNeighbors: 2}
	p1 := h.addNode(1, cfg, ".t")
	for id := event.NodeID(2); id <= 5; id++ {
		h.addNode(id, Config{}, ".t")
	}
	h.runUntil(5)
	if got := len(p1.NeighborIDs()); got > 2 {
		t.Fatalf("neighbor table grew to %d, cap 2", got)
	}
}

func TestHBLowerBoundClamps(t *testing.T) {
	h := newHarness(t, 35)
	cfg := Config{
		HBDelay:      time.Second,
		HBLowerBound: 800 * time.Millisecond,
		HBUpperBound: 10 * time.Second,
		Speed:        func() float64 { return 1000 }, // x/speed = 40ms << lower bound
	}
	p1 := h.addNode(1, cfg, ".t")
	h.addNode(2, cfg, ".t")
	h.runUntil(5)
	if got := p1.hbDelay; got != 800*time.Millisecond {
		t.Fatalf("HBDelay = %v, want clamped 800ms", got)
	}
}
