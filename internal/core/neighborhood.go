package core

import (
	"slices"
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
	subs     topic.Set
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
// overlapping subscriptions are stored (paper Section 3, phase 1). It is
// one structure sorted by id: rows in the canonical iteration order (every
// heartbeat, back-off expiry and send set walks them) and, parallel to
// them, their ids packed densely, so resolving a message's sender is a
// binary search over a few cache lines of ids rather than a hash probe
// or a pointer chase per step.
//
// The AVERAGESPEED mean is memoised: nearly every heartbeat refreshes a
// row without changing any speed. The memo is keyed on the caller's own
// speed because the sum starts from it — ((own+s1)+s2)... — and a
// separately cached neighbor sum would round differently; it is dropped
// whenever a row appears, disappears or reports a different speed.
type neighborhood struct {
	max  int            // 0 = unbounded
	ids  []event.NodeID // ascending; ids[i] == rows[i].id
	rows []*neighbor

	avgValid    bool
	avgOwn, avg float64
	avgOK       bool
}

func (nh *neighborhood) len() int { return len(nh.rows) }

func (nh *neighborhood) get(id event.NodeID) *neighbor {
	if i, ok := slices.BinarySearch(nh.ids, id); ok {
		return nh.rows[i]
	}
	return nil
}

func (nh *neighborhood) deleteAt(i int) {
	nh.ids = slices.Delete(nh.ids, i, i+1)
	nh.rows = slices.Delete(nh.rows, i, i+1)
	nh.avgValid = false
}

// upsert implements UPDATENEIGHBORINFO: insert or refresh the row of the
// neighbor that announced the subscription list wire, reporting whether
// the neighbor is new and whether its subscriptions changed (either way
// its covers set is the caller's to refill). A refresh repeating the
// row's list keeps the row's set rather than building one per heartbeat.
// The presumed-received set survives refreshes. When the table is full,
// the stalest row is evicted to admit the new one.
func (nh *neighborhood) upsert(id event.NodeID, wire []topic.Topic, speed float64, now time.Duration) (n *neighbor, isNew, subsChanged bool) {
	i, ok := slices.BinarySearch(nh.ids, id)
	if ok {
		n = nh.rows[i]
		if !n.subs.EqualSlice(wire) {
			subs := topic.NewSet(wire...)
			subsChanged = !n.subs.Equal(subs)
			n.subs = *subs
		}
		if n.speed != speed {
			n.speed = speed
			nh.avgValid = false
		}
		n.storedAt = now
		return n, false, subsChanged
	}
	if nh.max > 0 && len(nh.rows) >= nh.max {
		v := nh.stalest()
		nh.deleteAt(v)
		if v < i {
			i--
		}
	}
	n = &neighbor{id: id, subs: *topic.NewSet(wire...), speed: speed, storedAt: now}
	nh.ids = slices.Insert(nh.ids, i, id)
	nh.rows = slices.Insert(nh.rows, i, n)
	nh.avgValid = false
	return n, true, false
}

// stalest returns the position of the least recently refreshed row of a
// non-empty table.
func (nh *neighborhood) stalest() int {
	v := 0
	for i, n := range nh.rows {
		if n.storedAt < nh.rows[v].storedAt {
			v = i // id ascending: first minimum wins ties
		}
	}
	return v
}

func (nh *neighborhood) remove(id event.NodeID) {
	if i, ok := slices.BinarySearch(nh.ids, id); ok {
		nh.deleteAt(i)
	}
}

// gc implements the neighborhoodGC task (paper Figure 10): drop rows not
// refreshed within ngcDelay. It returns the number removed.
func (nh *neighborhood) gc(now, ngcDelay time.Duration) int {
	kept := 0
	for _, n := range nh.rows {
		if now-ngcDelay > n.storedAt {
			continue
		}
		nh.ids[kept], nh.rows[kept] = n.id, n
		kept++
	}
	removed := len(nh.rows) - kept
	if removed > 0 {
		clear(nh.rows[kept:])
		nh.ids, nh.rows = nh.ids[:kept], nh.rows[:kept]
		nh.avgValid = false
	}
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
	if nh.avgValid && ownSpeed == nh.avgOwn {
		return nh.avg, nh.avgOK
	}
	sum, n := 0.0, 0
	if ownSpeed >= 0 {
		sum, n = ownSpeed, 1
	}
	for _, nb := range nh.rows {
		if nb.speed >= 0 {
			sum += nb.speed
			n++
		}
	}
	if n > 0 {
		avg, ok = sum/float64(n), true
	}
	nh.avgValid, nh.avgOwn, nh.avg, nh.avgOK = true, ownSpeed, avg, ok
	return avg, ok
}
