package core

import (
	"sort"
	"time"

	"repro/internal/event"
	"repro/internal/topic"
)

// neighbor is one row of the paper's neighborhood table (Figure 2):
// identity, subscriptions, presumed received events, speed and store time.
// The presumed-received set is a bit per event-table slot for the events
// this node stores, and a set of ids for those it does not.
type neighbor struct {
	id       event.NodeID
	subs     *topic.Set
	speed    float64 // m/s, negative = unknown
	has      slotSet // presumed received, by slot
	covers   slotSet // subs.Covers(entry topic), by slot
	storedAt time.Duration

	// Presumed received but not stored here: ids announced before their
	// event arrived, and holders of events this node evicted. Two
	// generations of at most overflowGen ids; the older is forgotten
	// when the newer fills, so a row that lives forever (a static mesh)
	// remembers the last overflowGen..2*overflowGen such ids rather than
	// every id it ever saw. Forgetting is safe: at worst an event that
	// comes back is sent to a neighbor that already holds it.
	other, older map[event.ID]struct{}
}

// overflowGen is far above what a row accumulates before the event
// arrives or the neighbor moves away in any simulated scenario (no golden
// reaches it); it is sized for real meshes that churn through events.
const overflowGen = 1024

// markHas records that the neighbor is presumed to hold id; e is the
// event table's entry for id, nil when the event is not stored.
func (n *neighbor) markHas(id event.ID, e *tableEntry) {
	if e != nil {
		n.has.assign(e.slot, true)
		return
	}
	if len(n.other) >= overflowGen {
		n.other, n.older = n.older, n.other
		clear(n.other)
	}
	if n.other == nil {
		n.other = make(map[event.ID]struct{})
	}
	n.other[id] = struct{}{}
}

// adopt fills the row's bits for a newly stored entry: an id heard before
// its event arrived moves from the overflow set to the slot.
func (n *neighbor) adopt(e *tableEntry) {
	_, newer := n.other[e.ev.ID]
	_, older := n.older[e.ev.ID]
	if newer || older {
		delete(n.other, e.ev.ID)
		delete(n.older, e.ev.ID)
		n.has.assign(e.slot, true)
	}
	n.covers.assign(e.slot, n.subs.Covers(e.ev.Topic))
}

// release clears the row's bits for an evicted entry, so the slot's next
// owner inherits nothing. Who held the event goes back to the overflow
// set: an evicted event can be received and stored again.
func (n *neighbor) release(e *tableEntry) {
	if n.has.test(e.slot) {
		n.has.assign(e.slot, false)
		n.markHas(e.ev.ID, nil)
	}
	n.covers.assign(e.slot, false)
}

// neighborhood is the dynamic one-hop neighbor table. Only neighbors with
// overlapping subscriptions are stored (paper Section 3, phase 1). Rows
// live in a slice kept sorted by id: the protocol iterates the table far
// more often than it inserts (every heartbeat, back-off expiry and send
// set walks it), and in a dense metro cell the per-call map-iterate+sort
// of a rebuild dominated the city-sweep profile. A lookup map indexes
// the same rows for the O(1) refresh path.
type neighborhood struct {
	max  int // 0 = unbounded
	m    map[event.NodeID]*neighbor
	rows []*neighbor // sorted by id; the canonical iteration order
}

func newNeighborhood(max int) *neighborhood {
	return &neighborhood{max: max, m: make(map[event.NodeID]*neighbor)}
}

func (nh *neighborhood) len() int { return len(nh.rows) }

func (nh *neighborhood) get(id event.NodeID) *neighbor { return nh.m[id] }

// rowIndex returns the position of id in rows (or where it would insert).
func (nh *neighborhood) rowIndex(id event.NodeID) int {
	return sort.Search(len(nh.rows), func(i int) bool { return nh.rows[i].id >= id })
}

func (nh *neighborhood) insertRow(n *neighbor) {
	i := nh.rowIndex(n.id)
	nh.rows = append(nh.rows, nil)
	copy(nh.rows[i+1:], nh.rows[i:])
	nh.rows[i] = n
}

func (nh *neighborhood) deleteRow(id event.NodeID) {
	i := nh.rowIndex(id)
	if i < len(nh.rows) && nh.rows[i].id == id {
		copy(nh.rows[i:], nh.rows[i+1:])
		nh.rows[len(nh.rows)-1] = nil
		nh.rows = nh.rows[:len(nh.rows)-1]
	}
}

// upsert implements UPDATENEIGHBORINFO: insert or refresh a neighbor row,
// reporting whether the neighbor is new and whether its subscriptions
// changed (either way its covers set is the caller's to refill). The
// presumed-received set survives refreshes. When the table is full, the
// stalest row is evicted to admit the new one.
func (nh *neighborhood) upsert(id event.NodeID, subs *topic.Set, speed float64, now time.Duration) (n *neighbor, isNew, subsChanged bool) {
	if n, ok := nh.m[id]; ok {
		subsChanged = !n.subs.Equal(subs)
		n.subs = subs
		n.speed = speed
		n.storedAt = now
		return n, false, subsChanged
	}
	if nh.max > 0 && len(nh.rows) >= nh.max {
		nh.evictStalest()
	}
	n = &neighbor{id: id, subs: subs, speed: speed, storedAt: now}
	nh.m[id] = n
	nh.insertRow(n)
	return n, true, false
}

func (nh *neighborhood) evictStalest() {
	var victim *neighbor
	for _, n := range nh.rows {
		if victim == nil || n.storedAt < victim.storedAt {
			victim = n // id ascending: first minimum wins ties
		}
	}
	if victim != nil {
		delete(nh.m, victim.id)
		nh.deleteRow(victim.id)
	}
}

func (nh *neighborhood) remove(id event.NodeID) {
	if _, ok := nh.m[id]; ok {
		delete(nh.m, id)
		nh.deleteRow(id)
	}
}

// gc implements the neighborhoodGC task (paper Figure 10): drop rows not
// refreshed within ngcDelay. It returns the number removed.
func (nh *neighborhood) gc(now, ngcDelay time.Duration) int {
	kept := nh.rows[:0]
	for _, n := range nh.rows {
		if now-ngcDelay > n.storedAt {
			delete(nh.m, n.id)
		} else {
			kept = append(kept, n)
		}
	}
	removed := len(nh.rows) - len(kept)
	for i := len(kept); i < len(nh.rows); i++ {
		nh.rows[i] = nil
	}
	nh.rows = kept
	return removed
}

// sorted returns the neighbor rows ordered by id for deterministic
// iteration. The returned slice is the table's live backing array:
// callers may read rows (and mutate row contents, e.g. markHas) but must
// not hold it across table mutations.
func (nh *neighborhood) sorted() []*neighbor {
	return nh.rows
}

// avgSpeed implements AVERAGESPEED over neighbors reporting a known
// speed; ok is false when no information is available.
func (nh *neighborhood) avgSpeed(ownSpeed float64) (avg float64, ok bool) {
	sum, n := 0.0, 0
	if ownSpeed >= 0 {
		sum, n = ownSpeed, 1
	}
	for _, nb := range nh.sorted() {
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
