package core

import (
	"cmp"
	"container/heap"
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
	val       float64       // ev.Validity in seconds, for gcScore
	storedAt  time.Duration
	slot      int      // index in eventTable.slab, and this entry's bit in every slotSet
	at        [2]int32 // position in byExpiry and byScore, -1 when absent
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
	return e.val / (float64(e.fwd) + e.val)
}

// The eventTable heaps, by what they order on; each indexes tableEntry.at.
const (
	byExpiry = iota // expiresAt
	byScore         // gcScore, then olderID
)

// entryHeap is a container/heap of entries that know their position in
// it, so an entry leaves or moves in O(log n).
type entryHeap struct {
	key int
	es  []*tableEntry
}

func (h *entryHeap) Len() int { return len(h.es) }

// Less orders byScore entries as the paper's victim choice: lower score,
// then older. A zero validity never forwarded scores NaN, which
// cmp.Compare puts first.
func (h *entryHeap) Less(i, j int) bool {
	a, b := h.es[i], h.es[j]
	if h.key == byExpiry {
		return a.expiresAt < b.expiresAt
	}
	if c := cmp.Compare(a.gcScore(), b.gcScore()); c != 0 {
		return c < 0
	}
	return olderID(a, b)
}

func (h *entryHeap) Swap(i, j int) {
	h.es[i], h.es[j] = h.es[j], h.es[i]
	h.es[i].at[h.key], h.es[j].at[h.key] = int32(i), int32(j)
}

func (h *entryHeap) Push(x any) {
	e := x.(*tableEntry)
	e.at[h.key] = int32(len(h.es))
	h.es = append(h.es, e)
}

func (h *entryHeap) Pop() any {
	n := len(h.es) - 1
	e := h.es[n]
	h.es[n], h.es = nil, h.es[:n]
	e.at[h.key] = -1
	return e
}

// eventTable stores received/published events (paper Figure 3), with
// capacity-triggered garbage collection. Every entry owns a dense slot for
// as long as it is stored, so per-neighbor knowledge about stored events
// is a bit per slot (see neighbor) and the send set is word arithmetic.
// An entry is valid until expire sees its expiresAt pass (the node clock
// never goes back); the valid ones sit in byExpiry and, when the table is
// bounded, in byScore, whose root is Figure 10's victim.
type eventTable struct {
	cap      int // 0 = unbounded
	policy   GCPolicy
	rng      *rand.Rand // for GCRandom; may be nil otherwise
	byID     map[event.ID]*tableEntry
	slab     []*tableEntry // slot -> entry, nil while the slot is free
	free     []int         // free slots, reused before the slab grows
	order    []*tableEntry // every entry, ascending by olderID
	valid    slotSet       // the valid entries' slots
	byExpiry entryHeap     // the valid entries
	byScore  entryHeap     // the valid entries, bounded tables only
}

func newEventTable(capacity int) *eventTable {
	return &eventTable{cap: capacity, byID: make(map[event.ID]*tableEntry), byScore: entryHeap{key: byScore}}
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
		val:       ev.Validity.Seconds(),
		storedAt:  now,
		slot:      len(t.slab),
		at:        [2]int32{-1, -1},
	}
	if n := len(t.free); n > 0 {
		e.slot, t.free = t.free[n-1], t.free[:n-1]
		t.slab[e.slot] = e
	} else {
		t.slab = append(t.slab, e)
	}
	t.byID[ev.ID] = e
	t.order = slices.Insert(t.order, t.orderIndex(e), e)
	t.valid.assign(e.slot, true)
	heap.Push(&t.byExpiry, e)
	if t.cap > 0 {
		heap.Push(&t.byScore, e)
	}
	return e, evicted
}

// orderIndex returns e's position in order (or where it would insert).
func (t *eventTable) orderIndex(e *tableEntry) int {
	return sort.Search(len(t.order), func(i int) bool { return !olderID(t.order[i], e) })
}

// garbageCollect removes and returns one entry following the paper's
// Figure 10: the oldest expired event if one exists, otherwise the entry
// with the lowest gc score, ties broken on older storedAt, then on id,
// keeping runs deterministic. GCFIFO/GCRandom are ablation policies.
func (t *eventTable) garbageCollect(now time.Duration) *tableEntry {
	t.expire(now)
	var victim *tableEntry
	switch {
	case len(t.order) == 0:
		return nil
	case len(t.order) > len(t.byExpiry.es): // some entry expired
		for _, e := range t.order {
			if !t.valid.test(e.slot) {
				victim = e
				break
			}
		}
	case t.policy == GCFIFO:
		victim = t.order[0]
	case t.policy == GCRandom && t.rng != nil:
		victim = t.order[t.rng.Intn(len(t.order))] // every entry is valid
	default:
		victim = t.byScore.es[0]
	}
	t.remove(victim)
	return victim
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
	t.invalidate(e)
	i := t.orderIndex(e)
	t.order = slices.Delete(t.order, i, i+1)
}

// invalidate takes e out of the valid set and the heaps.
func (t *eventTable) invalidate(e *tableEntry) {
	t.valid.assign(e.slot, false)
	if i := e.at[byExpiry]; i >= 0 {
		heap.Remove(&t.byExpiry, int(i))
	}
	if i := e.at[byScore]; i >= 0 {
		heap.Remove(&t.byScore, int(i))
	}
}

// forwarded accounts one more send of e, which lowers its gc score.
func (t *eventTable) forwarded(e *tableEntry) {
	e.fwd++
	if i := e.at[byScore]; i >= 0 {
		heap.Fix(&t.byScore, int(i))
	}
}

// expire clears the valid bit of every entry whose validity has ended by
// instant now, soonest first off byExpiry.
func (t *eventTable) expire(now time.Duration) {
	for len(t.byExpiry.es) > 0 && !t.byExpiry.es[0].valid(now) {
		t.invalidate(t.byExpiry.es[0])
	}
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
