package core

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/topic"
)

func mkEvent(id uint64, top string, validity time.Duration) event.Event {
	return event.Event{
		ID:        event.ID{Lo: id},
		Topic:     topic.MustParse(top),
		Validity:  validity,
		Remaining: validity,
	}
}

// put inserts ev, checks the table's invariants at instant now and
// returns the evicted entry, if any.
func (t *eventTable) put(tb testing.TB, ev event.Event, now time.Duration) *tableEntry {
	tb.Helper()
	_, evicted := t.insert(ev, now)
	t.check(tb, now)
	return evicted
}

// setFwd sets e's forward count, keeping the score heap in order.
func (t *eventTable) setFwd(e *tableEntry, fwd int) {
	e.fwd = fwd
	if i := e.at[byScore]; i >= 0 {
		heap.Fix(&t.byScore, int(i))
	}
}

// check verifies the slot, order and heap invariants: byID, the slab and
// the free list describe the same entries, order lists them ascending by
// olderID, after expire the valid set is exactly now < expiresAt (with no
// bit on a free slot), byExpiry holds exactly the valid entries, and so
// does byScore when the table is bounded, each heap in order and each
// entry knowing its position.
func (t *eventTable) check(tb testing.TB, now time.Duration) {
	tb.Helper()
	if len(t.order) != len(t.byID) || len(t.slab) != len(t.byID)+len(t.free) {
		tb.Fatalf("sizes disagree: byID %d, order %d, slab %d, free %d",
			len(t.byID), len(t.order), len(t.slab), len(t.free))
	}
	if t.cap > 0 && len(t.slab) > t.cap {
		tb.Fatalf("slab grew to %d slots past capacity %d", len(t.slab), t.cap)
	}
	t.expire(now)
	heaps := []*entryHeap{&t.byExpiry}
	if t.cap > 0 {
		heaps = append(heaps, &t.byScore)
	} else if len(t.byScore.es) != 0 {
		tb.Fatalf("unbounded table keeps %d entries by score", len(t.byScore.es))
	}
	valid := 0
	for _, e := range t.order {
		if t.valid.test(e.slot) {
			valid++
		}
	}
	for _, h := range heaps {
		if len(h.es) != valid {
			tb.Fatalf("heap %d holds %d entries, %d are valid", h.key, len(h.es), valid)
		}
		for i, e := range h.es {
			if int(e.at[h.key]) != i || !t.valid.test(e.slot) || t.slab[e.slot] != e {
				tb.Fatalf("heap %d: entry %v at %d thinks it is at %d (valid %v)", h.key, e.ev.ID, i, e.at[h.key], t.valid.test(e.slot))
			}
			if i > 0 && h.Less(i, (i-1)/2) {
				tb.Fatalf("heap %d: entry %d sorts before its parent", h.key, i)
			}
		}
	}
	for i, e := range t.order {
		if i > 0 && !olderID(t.order[i-1], e) {
			tb.Fatalf("order[%d] is not older than order[%d]", i-1, i)
		}
		if t.byID[e.ev.ID] != e || t.slab[e.slot] != e {
			tb.Fatalf("entry %v (slot %d) missing from byID or slab", e.ev.ID, e.slot)
		}
		if t.valid.test(e.slot) != e.valid(now) {
			tb.Fatalf("valid bit of slot %d is %v at %v, entry expires at %v",
				e.slot, t.valid.test(e.slot), now, e.expiresAt)
		}
	}
	seen := make(map[int]bool)
	for _, s := range t.free {
		if seen[s] || t.slab[s] != nil || t.valid.test(s) {
			tb.Fatalf("free slot %d: listed twice, still occupied, or still valid", s)
		}
		seen[s] = true
	}
}

// coversOf is the covers set a row subscribed to subs would hold.
func (t *eventTable) coversOf(subs *topic.Set) *slotSet {
	var c slotSet
	for _, e := range t.order {
		c.assign(e.slot, subs.Covers(e.ev.Topic))
	}
	return &c
}

func TestSlotSet(t *testing.T) {
	var s slotSet
	s.assign(200, false) // clearing past the end must not grow the set
	if s.hi != nil {
		t.Fatal("clearing an absent bit allocated")
	}
	for _, i := range []int{0, 63, 64, 130} {
		s.assign(i, true)
	}
	for i := 0; i < 260; i++ {
		want := i == 0 || i == 63 || i == 64 || i == 130
		if s.test(i) != want {
			t.Fatalf("bit %d = %v", i, !want)
		}
	}
	if s.word(0) != 1|1<<63 || s.word(1) != 1 || s.word(2) != 4 || s.word(9) != 0 {
		t.Fatalf("words = %x %x %x", s.word(0), s.word(1), s.word(2))
	}
	s.assign(64, false)
	if s.test(64) || !s.test(63) || !s.test(130) {
		t.Fatal("clear touched the wrong bit")
	}
}

func TestTableInsertHas(t *testing.T) {
	tb := newEventTable(0)
	ev := mkEvent(1, ".a", time.Minute)
	if tb.get(ev.ID) != nil {
		t.Fatal("empty table has event")
	}
	if evicted := tb.put(t, ev, 0); evicted != nil {
		t.Fatal("unbounded table evicted")
	}
	if tb.get(ev.ID) == nil || len(tb.byID) != 1 {
		t.Fatal("insert failed")
	}
	e := tb.get(ev.ID)
	if e.expiresAt != time.Minute {
		t.Fatalf("expiresAt = %v", e.expiresAt)
	}
	if !e.valid(30*time.Second) || e.valid(time.Minute) {
		t.Fatal("validity window wrong")
	}
	if got := e.remaining(45 * time.Second); got != 15*time.Second {
		t.Fatalf("remaining = %v", got)
	}
	if got := e.remaining(2 * time.Minute); got != 0 {
		t.Fatalf("remaining past expiry = %v", got)
	}
}

func TestGCScorePaperExample(t *testing.T) {
	// Paper Section 4.4: "an event with a validity period of 2 min that
	// has been forwarded less than 2 times will be collected AFTER an
	// event with a validity period of 5 min that has been forwarded 5
	// times."
	tb := newEventTable(0)
	short, _ := tb.insert(mkEvent(1, ".a", 2*time.Minute), 0)
	long, _ := tb.insert(mkEvent(2, ".a", 5*time.Minute), 0)
	tb.setFwd(short, 1)
	tb.setFwd(long, 5)
	if !(long.gcScore() < short.gcScore()) {
		t.Fatalf("gc ordering violates paper example: long=%v short=%v",
			long.gcScore(), short.gcScore())
	}
}

func TestGCPrefersExpired(t *testing.T) {
	tb := newEventTable(2)
	tb.put(t, mkEvent(1, ".a", time.Second), 0) // expires at 1s
	tb.put(t, mkEvent(2, ".a", time.Hour), 0)
	// At t=2s, inserting a third event must evict the expired one even
	// though the long-lived event has a (much) lower score potential.
	tb.setFwd(tb.get(event.ID{Lo: 2}), 100)
	evicted := tb.put(t, mkEvent(3, ".a", time.Minute), 2*time.Second)
	if evicted == nil || evicted.ev.ID.Lo != 1 {
		t.Fatalf("evicted = %+v, want expired event 1", evicted)
	}
	if len(tb.byID) != 2 {
		t.Fatalf("len = %d", len(tb.byID))
	}
}

func TestGCEvictsLowestScore(t *testing.T) {
	tb := newEventTable(3)
	tb.put(t, mkEvent(1, ".a", 2*time.Minute), 0)
	tb.put(t, mkEvent(2, ".a", 5*time.Minute), 0)
	tb.put(t, mkEvent(3, ".a", time.Minute), 0)
	tb.setFwd(tb.get(event.ID{Lo: 1}), 1)
	tb.setFwd(tb.get(event.ID{Lo: 2}), 5) // lowest score per paper example
	tb.setFwd(tb.get(event.ID{Lo: 3}), 0)
	evicted := tb.put(t, mkEvent(4, ".a", time.Minute), time.Second)
	if evicted == nil || evicted.ev.ID.Lo != 2 {
		t.Fatalf("evicted %+v, want event 2", evicted)
	}
}

func TestGCNeverForwardedShortLivedSurvives(t *testing.T) {
	// A short-validity, never-forwarded event must outlive long-validity,
	// heavily-forwarded ones — that is the point of Equation 1.
	tb := newEventTable(2)
	tb.put(t, mkEvent(1, ".a", 20*time.Second), 0)
	tb.put(t, mkEvent(2, ".a", 10*time.Minute), 0)
	tb.setFwd(tb.get(event.ID{Lo: 2}), 12)
	tb.put(t, mkEvent(3, ".a", time.Minute), time.Second)
	if tb.get(event.ID{Lo: 1}) == nil {
		t.Fatal("short-lived unforwarded event was evicted")
	}
	if tb.get(event.ID{Lo: 2}) != nil {
		t.Fatal("forwarded long-lived event should have been evicted")
	}
}

func TestTableCapacityInvariant(t *testing.T) {
	tb := newEventTable(5)
	rng := rand.New(rand.NewSource(1))
	now := time.Duration(0)
	for i := 0; i < 200; i++ {
		now += time.Duration(rng.Intn(3)) * time.Second
		ev := mkEvent(uint64(i+1), ".a", time.Duration(1+rng.Intn(300))*time.Second)
		tb.put(t, ev, now)
		if len(tb.byID) > 5 {
			t.Fatalf("table exceeded capacity: %d", len(tb.byID))
		}
		if e := tb.get(ev.ID); e != nil {
			tb.setFwd(e, rng.Intn(10))
		}
	}
	if len(tb.byID) != 5 {
		t.Fatalf("len = %d, want 5", len(tb.byID))
	}
}

func TestIDsMatching(t *testing.T) {
	tb := newEventTable(0)
	tb.put(t, mkEvent(1, ".t0.t1", time.Minute), 0)
	tb.put(t, mkEvent(2, ".t0.t1.t2", time.Minute), 0)
	tb.put(t, mkEvent(3, ".x", time.Minute), 0)
	tb.put(t, mkEvent(4, ".t0.t1", time.Second), 0) // expires at 1s

	subs := topic.NewSet(topic.MustParse(".t0.t1"))
	ids := tb.idsMatching(tb.coversOf(subs), 30*time.Second)
	if len(ids) != 2 {
		t.Fatalf("ids = %v, want events 1 and 2", ids)
	}
	if ids[0].Lo != 1 || ids[1].Lo != 2 {
		t.Fatalf("ids unsorted or wrong: %v", ids)
	}

	// Sub-topic subscriber sees only the subtree.
	deep := topic.NewSet(topic.MustParse(".t0.t1.t2"))
	ids = tb.idsMatching(tb.coversOf(deep), 0)
	if len(ids) != 1 || ids[0].Lo != 2 {
		t.Fatalf("deep ids = %v", ids)
	}

	// Overlapping subscriptions must not duplicate ids.
	both := topic.NewSet(topic.MustParse(".t0"), topic.MustParse(".t0.t1"))
	if got := tb.idsMatching(tb.coversOf(both), 0); len(got) != 3 {
		t.Fatalf("dedup failed: %v", got)
	}
}

func TestGarbageCollectEmptyTable(t *testing.T) {
	tb := newEventTable(1)
	if v := tb.garbageCollect(0); v != nil {
		t.Fatal("GC on empty table returned a victim")
	}
}

func TestRemoveAlsoPrunesTree(t *testing.T) {
	tb := newEventTable(0)
	ev := mkEvent(1, ".a.b", time.Minute)
	tb.put(t, ev, 0)
	tb.remove(tb.get(ev.ID))
	if tb.get(ev.ID) != nil || len(tb.byID) != 0 {
		t.Fatal("remove left byID entry")
	}
	tb.check(t, 0)
	all := slotSet{lo: ^uint64(0)}
	if ids := tb.idsMatching(&all, 0); len(ids) != 0 {
		t.Fatalf("removed event still listed: %v", ids)
	}
}

func TestGCDeterministicTieBreak(t *testing.T) {
	run := func() uint64 {
		tb := newEventTable(3)
		for i := uint64(1); i <= 3; i++ {
			tb.put(t, mkEvent(i, ".a", time.Minute), 0)
		}
		v := tb.garbageCollect(time.Second)
		return v.ev.ID.Lo
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("GC tie-break nondeterministic: %d vs %d", a, b)
	}
	if a != 1 {
		t.Fatalf("tie should break on lowest id, got %d", a)
	}
}
