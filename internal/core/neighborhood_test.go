package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/topic"
)

// subsOf is a heartbeat's subscription list as it arrives on the wire.
func subsOf(names ...string) []topic.Topic {
	s := topic.NewSet()
	for _, n := range names {
		s.Add(topic.MustParse(n))
	}
	return s.Topics()
}

// knows reports whether the row presumes its neighbor holds id: the slot
// bit when tb stores the event, its ghost's bit otherwise.
func (nh *neighborhood) knows(n *neighbor, id event.ID, tb *eventTable) bool {
	if e := tb.get(id); e != nil {
		return n.has.test(e.slot)
	}
	g, ok := nh.ghosts.index[id]
	return ok && n.ghost.test(int(g))
}

// knows is neighborhood.knows against the protocol's own table.
func (p *Protocol) knows(n *neighbor, id event.ID) bool { return p.nbrs.knows(n, id, &p.table) }

// checkGhosts verifies the digest: the index map and the ring agree,
// and every row bit names a ghost that is not a stored event.
func (nh *neighborhood) checkGhosts(tb testing.TB, t *eventTable) {
	tb.Helper()
	g := &nh.ghosts
	if len(g.ring) > maxGhosts || len(g.index) != len(g.ring) {
		tb.Fatalf("%d ghosts indexed, %d in the ring, cap %d", len(g.index), len(g.ring), maxGhosts)
	}
	for i, id := range g.ring {
		if g.index[id] != int32(i) {
			tb.Fatalf("ring index %d holds %v, indexed at %d", i, id, g.index[id])
		}
	}
	for _, n := range nh.rows {
		for i := 0; i < maxGhosts+64; i++ {
			if n.ghost.test(i) && (i >= len(g.ring) || t.get(g.ring[i]) != nil) {
				tb.Fatalf("row %d keeps a bit on index %d, which is no unstored ghost", n.id, i)
			}
		}
	}
}

func TestOverflowSetIsBounded(t *testing.T) {
	// A node that never dies must not remember every unstored id it was
	// ever told about: the newest maxGhosts stay, the oldest go first.
	nh := &neighborhood{}
	n, _, _ := nh.upsert(1, subsOf(".a"), -1, 0)
	tb := newEventTable(0)
	const total = 2*maxGhosts + 17
	for i := 1; i <= total; i++ {
		nh.markHas(event.ID{Lo: uint64(i)}, nil, n)
		if got := len(nh.ghosts.index); got > maxGhosts {
			t.Fatalf("after %d ids the node remembers %d, cap %d", i, got, maxGhosts)
		}
	}
	nh.checkGhosts(t, tb)
	oldest := event.ID{Lo: total - maxGhosts + 1}
	for i := oldest.Lo; i <= total; i++ {
		if !nh.knows(n, event.ID{Lo: i}, tb) {
			t.Fatalf("recent id %d forgotten", i)
		}
	}
	if nh.knows(n, event.ID{Lo: oldest.Lo - 1}, tb) {
		t.Fatal("an id older than the newest maxGhosts still remembered")
	}
	// The oldest remembered id still moves to its slot on store.
	e, _ := tb.insert(event.Event{ID: oldest, Topic: topic.MustParse(".a"), Remaining: time.Minute}, 0)
	nh.stored(e, nil)
	if !n.has.test(e.slot) || n.ghost.test(int(nh.ghosts.index[oldest])) {
		t.Fatal("store did not move the id's bit from its ghost to its slot")
	}
	nh.checkGhosts(t, tb)
	// The ring is full: each new ghost takes the oldest index, first the
	// stored id's, then a live ghost's, and only the rows that hold the
	// new id keep a bit there.
	m, _, _ := nh.upsert(2, subsOf(".a"), -1, 0)
	for _, id := range []event.ID{{Lo: total + 1}, {Lo: total + 2}} {
		nh.markHas(id, nil, m)
		if nh.knows(n, id, tb) || !nh.knows(m, id, tb) {
			t.Fatalf("id %v: a reused index kept the forgotten ghost's holders", id)
		}
	}
	if !nh.knows(n, oldest, tb) || nh.knows(n, event.ID{Lo: oldest.Lo + 1}, tb) {
		t.Fatal("the stored id lost its slot bit, or the second-oldest ghost was not forgotten")
	}
	nh.checkGhosts(t, tb)
}

func TestNeighborhoodUpsert(t *testing.T) {
	nh := &neighborhood{}
	_, isNew, changed := nh.upsert(1, subsOf(".a"), 5, 0)
	if !isNew || changed {
		t.Fatalf("first upsert: new=%v changed=%v", isNew, changed)
	}
	// Refresh with same subs: neither new nor changed.
	_, isNew, changed = nh.upsert(1, subsOf(".a"), 7, time.Second)
	if isNew || changed {
		t.Fatalf("refresh: new=%v changed=%v", isNew, changed)
	}
	if nh.get(1).speed != 7 || nh.get(1).storedAt != time.Second {
		t.Fatal("refresh did not update row")
	}
	// Changed subscriptions detected.
	_, _, changed = nh.upsert(1, subsOf(".a", ".b"), 7, 2*time.Second)
	if !changed {
		t.Fatal("subscription change not detected")
	}
}

func TestNeighborhoodHasSurvivesRefresh(t *testing.T) {
	nh := &neighborhood{}
	nh.upsert(1, subsOf(".a"), -1, 0)
	tb := newEventTable(0)
	stored := mkEvent(8, ".a", time.Minute)
	tb.put(t, stored, 0)
	id := event.ID{Lo: 9}
	nh.markHas(stored.ID, tb.get(stored.ID), nh.get(1))
	nh.markHas(id, nil, nh.get(1))
	nh.upsert(1, subsOf(".a"), -1, time.Second)
	if !nh.knows(nh.get(1), stored.ID, tb) || !nh.knows(nh.get(1), id, tb) {
		t.Fatal("presumed-received set lost on heartbeat refresh")
	}
}

func TestNeighborhoodGC(t *testing.T) {
	nh := &neighborhood{}
	nh.upsert(1, subsOf(".a"), -1, 0)
	nh.upsert(2, subsOf(".a"), -1, 4*time.Second)
	// NGC delay 2.5s at now=5s: entry stored at 0 is stale (5-2.5 > 0),
	// entry stored at 4s survives.
	removed := nh.gc(5*time.Second, 2500*time.Millisecond)
	if removed != 1 {
		t.Fatalf("removed = %d, want 1", removed)
	}
	if nh.get(1) != nil || nh.get(2) == nil {
		t.Fatal("wrong entry collected")
	}
}

func TestNeighborhoodGCBoundary(t *testing.T) {
	// Paper Figure 10: remove iff currentTime - NGCDelay > storeTime,
	// strictly. An entry stored exactly NGCDelay ago survives.
	nh := &neighborhood{}
	nh.upsert(1, subsOf(".a"), -1, 0)
	if removed := nh.gc(2*time.Second, 2*time.Second); removed != 0 {
		t.Fatal("boundary entry must survive")
	}
}

func TestNeighborhoodCapEvictsStalest(t *testing.T) {
	nh := &neighborhood{max: 2}
	nh.upsert(1, subsOf(".a"), -1, 0)
	nh.upsert(2, subsOf(".a"), -1, time.Second)
	nh.upsert(3, subsOf(".a"), -1, 2*time.Second)
	if len(nh.rows) != 2 {
		t.Fatalf("len = %d, want 2", len(nh.rows))
	}
	if nh.get(1) != nil {
		t.Fatal("stalest entry should have been evicted")
	}
	if nh.get(2) == nil || nh.get(3) == nil {
		t.Fatal("fresh entries missing")
	}
}

func TestAvgSpeed(t *testing.T) {
	nh := &neighborhood{}
	if _, ok := nh.avgSpeed(-1); ok {
		t.Fatal("no data should report !ok")
	}
	if avg, ok := nh.avgSpeed(10); !ok || avg != 10 {
		t.Fatalf("own-only avg = %v ok=%v", avg, ok)
	}
	nh.upsert(1, subsOf(".a"), 20, 0)
	nh.upsert(2, subsOf(".a"), -1, 0) // unknown speed ignored
	avg, ok := nh.avgSpeed(10)
	if !ok || math.Abs(avg-15) > 1e-9 {
		t.Fatalf("avg = %v, want 15", avg)
	}
	avg, ok = nh.avgSpeed(-1)
	if !ok || math.Abs(avg-20) > 1e-9 {
		t.Fatalf("avg without own = %v, want 20", avg)
	}
}

// TestAvgSpeedMemoBitExact holds the memoised AVERAGESPEED to a fresh
// walk in id order, bit for bit, across every way a row can appear,
// disappear or change speed, in a bounded table (eviction) and an
// unbounded one.
func TestAvgSpeedMemoBitExact(t *testing.T) {
	fresh := func(nh *neighborhood, own float64) (float64, bool) {
		sum, n := 0.0, 0
		if own >= 0 {
			sum, n = own, 1
		}
		for i, nb := range nh.rows {
			if nb.id != nh.ids[i] || i > 0 && nh.ids[i-1] >= nb.id {
				t.Fatalf("ids %v do not mirror the rows at %d (row %d)", nh.ids, i, nb.id)
			}
			if nb.speed >= 0 {
				sum += nb.speed
				n++
			}
		}
		if n == 0 {
			return 0, false
		}
		return sum / float64(n), true
	}
	rng := rand.New(rand.NewSource(1))
	speed := func() float64 {
		if rng.Intn(4) == 0 {
			return -1
		}
		return rng.Float64() * 40 // sums of these round differently in a different order
	}
	for _, max := range []int{0, 6} {
		nh := &neighborhood{max: max}
		own, now := speed(), time.Duration(0)
		for step := 0; step < 20000; step++ {
			now += time.Duration(rng.Intn(300)) * time.Millisecond
			id := event.NodeID(1 + rng.Intn(24))
			switch rng.Intn(10) {
			case 0, 1, 2, 3:
				nh.upsert(id, subsOf(".a"), speed(), now)
			case 4, 5:
				if nb := nh.get(id); nb != nil { // the usual heartbeat: nothing new
					nh.avgSpeed(own)
					nh.upsert(id, subsOf(".a"), nb.speed, now)
					if !nh.avgValid {
						t.Fatalf("step %d: a heartbeat repeating speed %v dropped the memo", step, nb.speed)
					}
				}
			case 6:
				nh.remove(id)
			case 7:
				nh.gc(now, 2*time.Second)
			case 8:
				own = speed()
			}
			if max > 0 && len(nh.rows) > max {
				t.Fatalf("step %d: %d rows, cap %d", step, len(nh.rows), max)
			}
			got, gotOK := nh.avgSpeed(own)
			want, wantOK := fresh(nh, own)
			if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d: memoised mean %v (%v), fresh walk %v (%v)", step, got, gotOK, want, wantOK)
			}
		}
	}
}

func TestNeighborhoodSortedOrder(t *testing.T) {
	nh := &neighborhood{}
	for _, id := range []event.NodeID{5, 1, 3} {
		nh.upsert(id, subsOf(".a"), -1, 0)
	}
	got := nh.rows
	if len(got) != 3 || got[0].id != 1 || got[1].id != 3 || got[2].id != 5 {
		t.Fatalf("sorted order wrong: %v %v %v", got[0].id, got[1].id, got[2].id)
	}
}
