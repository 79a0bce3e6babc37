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
// this node stores, and a bit per ghost for those it does not.
type neighbor struct {
	id       event.NodeID
	subs     topic.Set
	speed    float64 // m/s, negative = unknown
	has      slotSet // presumed received, by slot
	covers   slotSet // subs.Covers(entry topic), by slot
	ghost    slotSet // presumed received, by ghost index
	storedAt time.Duration
}

// maxGhosts bounds a node's ghosts: far above what a node gathers in any
// simulated scenario (no golden reaches half), sized for real meshes.
const maxGhosts = 2048

// ghosts is a node's digest of the ids some neighbor is presumed to hold
// but this node does not store: ids announced before their event
// arrived, and the holders of events it evicted. Each id has an index in
// a ring and each row a bit per index (neighbor.ghost), so marking an
// unstored id is one map probe however many rows hold it. A stored id's
// bits move to its slot but it keeps its index. A new id takes the
// oldest's index once the ring is full: forgetting is safe, since at
// worst an event that comes back is sent to a neighbor that holds it.
type ghosts struct {
	index map[event.ID]int32
	ring  []event.ID // by index
	next  int        // the oldest index, once the ring is full
}

// add returns id's index, making it a ghost if it is not one. When
// fresh, the index was just assigned, and the caller must clear its bit
// in every row.
func (g *ghosts) add(id event.ID) (i int, fresh bool) {
	if i, ok := g.index[id]; ok {
		return int(i), false
	}
	if g.index == nil {
		g.index = make(map[event.ID]int32)
	}
	if i = len(g.ring); i < maxGhosts {
		g.ring = append(g.ring, id)
	} else {
		i, g.next = g.next, (g.next+1)%maxGhosts
		delete(g.index, g.ring[i])
		g.ring[i] = id
	}
	g.index[id] = int32(i)
	return i, true
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
	max    int            // 0 = unbounded
	ids    []event.NodeID // ascending; ids[i] == rows[i].id
	rows   []*neighbor
	ghosts ghosts

	avgValid    bool
	avgOwn, avg float64
	avgOK       bool
}

func (nh *neighborhood) get(id event.NodeID) *neighbor {
	if i, ok := slices.BinarySearch(nh.ids, id); ok {
		return nh.rows[i]
	}
	return nil
}

// markHas records that rows are presumed to hold id; e is the event
// table's entry for id, nil when the event is not stored.
func (nh *neighborhood) markHas(id event.ID, e *tableEntry, rows ...*neighbor) {
	if e != nil {
		for _, n := range rows {
			n.has.assign(e.slot, true)
		}
		return
	}
	if len(rows) == 0 {
		return
	}
	g, fresh := nh.ghosts.add(id)
	if fresh {
		for _, n := range nh.rows {
			n.ghost.assign(g, false)
		}
	}
	for _, n := range rows {
		n.ghost.assign(g, true)
	}
}

// stored brings every row's bits in line with the event table after e
// was stored, evicting evicted (nil if none; its slot may be e's): who
// held the evicted event becomes a ghost, since it can be received and
// stored again, and who held e's ghost moves to e's slot.
func (nh *neighborhood) stored(e, evicted *tableEntry) {
	if evicted != nil && evicted.ev.ID == e.ev.ID {
		evicted = nil // a reissued id: e took over the slot and its bits
	}
	adopt, release := -1, -1
	if i, ok := nh.ghosts.index[e.ev.ID]; ok {
		adopt = int(i)
	}
	if evicted != nil && slices.ContainsFunc(nh.rows, func(n *neighbor) bool { return n.has.test(evicted.slot) }) {
		release, _ = nh.ghosts.add(evicted.ev.ID) // every row's bit is set below
	}
	for _, n := range nh.rows {
		held := false
		if evicted != nil {
			held = n.has.test(evicted.slot)
			n.has.assign(evicted.slot, false)
			n.covers.assign(evicted.slot, false)
		}
		// Read before release is written: the two may share an index.
		if adopt >= 0 && n.ghost.test(adopt) {
			n.has.assign(e.slot, true)
			n.ghost.assign(adopt, false)
		}
		if release >= 0 {
			n.ghost.assign(release, held)
		}
		n.covers.assign(e.slot, n.subs.Covers(e.ev.Topic))
	}
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
