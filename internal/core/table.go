package core

import (
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/event"
)

// slotSet is a bitset over event-table slots. Slots 0-63 live inline, so
// the neighbor rows of a table that never grows past 64 slots allocate
// nothing for their sets.
type slotSet struct {
	lo uint64
	hi []uint64 // words 1.., grown on demand
}

// word returns the w-th 64-slot word (zero past the end).
func (s *slotSet) word(w int) uint64 {
	if w == 0 {
		return s.lo
	}
	if w <= len(s.hi) {
		return s.hi[w-1]
	}
	return 0
}

func (s *slotSet) test(slot int) bool { return s.word(slot>>6)>>(uint(slot)&63)&1 != 0 }

func (s *slotSet) assign(slot int, v bool) {
	p := &s.lo
	if w := slot >> 6; w > 0 {
		if w > len(s.hi) {
			if !v {
				return
			}
			s.hi = append(s.hi, make([]uint64, w-len(s.hi))...)
		}
		p = &s.hi[w-1]
	}
	if v {
		*p |= 1 << (uint(slot) & 63)
	} else {
		*p &^= 1 << (uint(slot) & 63)
	}
}

// tableEntry is one stored event with its local bookkeeping (paper
// Figure 3: id, validity, counter, topic, data).
type tableEntry struct {
	ev        event.Event
	expiresAt time.Duration // local absolute expiry
	fwd       int           // times this node sent/forwarded the event
	storedAt  time.Duration
	slot      int // index in eventTable.slab, and this entry's bit in every slotSet
}

func (e *tableEntry) valid(now time.Duration) bool { return now < e.expiresAt }

// remaining returns the validity left at instant now.
func (e *tableEntry) remaining(now time.Duration) time.Duration {
	r := e.expiresAt - now
	if r < 0 {
		r = 0
	}
	return r
}

// gcScore implements the paper's Equation 1: gc(e) = val(e)/(fwd(e)+val(e))
// with val expressed in seconds. Lower scores are evicted first, so an
// event with a long validity that has been forwarded many times goes
// before a short-lived event that was never propagated.
func (e *tableEntry) gcScore() float64 {
	val := e.ev.Validity.Seconds()
	return val / (float64(e.fwd) + val)
}

// eventTable stores received/published events (paper Figure 3), with
// capacity-triggered garbage collection. Every entry owns a dense slot for
// as long as it is stored, so per-neighbor knowledge about stored events
// is a bit per slot (see neighbor) and the send set is word arithmetic.
type eventTable struct {
	cap    int // 0 = unbounded
	policy GCPolicy
	rng    *rand.Rand // for GCRandom; may be nil otherwise
	byID   map[event.ID]*tableEntry
	slab   []*tableEntry // slot -> entry, nil while the slot is free
	free   []int         // free slots, reused before the slab grows
	order  []*tableEntry // every entry, ascending by olderID
	valid  slotSet       // now < expiresAt, as of the last refresh
}

func newEventTable(capacity int) *eventTable {
	return &eventTable{cap: capacity, byID: make(map[event.ID]*tableEntry)}
}

func (t *eventTable) len() int { return len(t.byID) }

func (t *eventTable) has(id event.ID) bool {
	_, ok := t.byID[id]
	return ok
}

func (t *eventTable) get(id event.ID) *tableEntry { return t.byID[id] }

// insert stores ev, evicting via the GC policy when the table is full.
// It returns the new entry and the evicted one, if any; the evicted
// entry's slot may already be the new entry's. The caller guarantees ev is
// not already present — except that a publisher restarted on the same RNG
// seed reissues its earlier ids: the reissued event then replaces the
// stored one and, the free list being LIFO, takes over its slot and with
// it the has bits of every row (presumed knowledge goes by id).
func (t *eventTable) insert(ev event.Event, now time.Duration) (e, evicted *tableEntry) {
	if t.cap > 0 && len(t.byID) >= t.cap {
		evicted = t.garbageCollect(now)
	}
	if old := t.byID[ev.ID]; old != nil {
		t.remove(old)
	}
	e = &tableEntry{
		ev:        ev,
		expiresAt: now + ev.Remaining,
		storedAt:  now,
		slot:      len(t.slab),
	}
	if n := len(t.free); n > 0 {
		e.slot, t.free = t.free[n-1], t.free[:n-1]
		t.slab[e.slot] = e
	} else {
		t.slab = append(t.slab, e)
	}
	t.byID[ev.ID] = e
	t.order = slices.Insert(t.order, t.orderIndex(e), e)
	return e, evicted
}

// orderIndex returns e's position in order (or where it would insert).
func (t *eventTable) orderIndex(e *tableEntry) int {
	return sort.Search(len(t.order), func(i int) bool { return !olderID(t.order[i], e) })
}

// garbageCollect removes and returns one entry following the paper's
// Figure 10: an expired event if one exists, otherwise the entry with the
// lowest gc score. Ties break on older storedAt, then on id — the order
// the walk visits entries in — keeping runs deterministic. GCFIFO/GCRandom
// are ablation policies.
func (t *eventTable) garbageCollect(now time.Duration) *tableEntry {
	var victim *tableEntry
	for _, e := range t.order {
		if !e.valid(now) {
			victim = e // the oldest expired entry displaces any valid victim
			break
		}
		if victim == nil || (t.policy != GCFIFO && e.gcScore() < victim.gcScore()) {
			victim = e
		}
	}
	if victim != nil && t.policy == GCRandom && victim.valid(now) && t.rng != nil {
		victim = t.randomValid(now, victim)
	}
	if victim == nil {
		return nil
	}
	t.remove(victim)
	return victim
}

// randomValid picks a uniform random valid entry (GCRandom).
func (t *eventTable) randomValid(now time.Duration, fallback *tableEntry) *tableEntry {
	valid := t.validEntries(now)
	if len(valid) == 0 {
		return fallback
	}
	return valid[t.rng.Intn(len(valid))]
}

func olderID(a, b *tableEntry) bool {
	if a.storedAt != b.storedAt {
		return a.storedAt < b.storedAt
	}
	return a.ev.ID.Less(b.ev.ID)
}

// remove frees e's slot. Bits the neighbor rows keep for the slot are the
// caller's to clear (Protocol.store) before the slot is filled again.
func (t *eventTable) remove(e *tableEntry) {
	delete(t.byID, e.ev.ID)
	t.slab[e.slot] = nil
	t.free = append(t.free, e.slot)
	t.valid.assign(e.slot, false)
	i := t.orderIndex(e)
	t.order = slices.Delete(t.order, i, i+1)
}

// refresh recomputes the valid set for instant now.
func (t *eventTable) refresh(now time.Duration) {
	for _, e := range t.order {
		t.valid.assign(e.slot, e.valid(now))
	}
}

// validEntries returns the still-valid entries ascending by olderID
// (stable iteration keeps outgoing messages deterministic).
func (t *eventTable) validEntries(now time.Duration) []*tableEntry {
	out := make([]*tableEntry, 0, len(t.order))
	for _, e := range t.order {
		if e.valid(now) {
			out = append(out, e)
		}
	}
	return out
}

// idsMatching implements the paper's GETEVENTSIDS: identifiers, sorted, of
// the valid stored events in covers (the slots whose topics a neighbor's
// subscriptions cover).
func (t *eventTable) idsMatching(covers *slotSet, now time.Duration) []event.ID {
	var out []event.ID
	for _, e := range t.order {
		if e.valid(now) && covers.test(e.slot) {
			out = append(out, e.ev.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
