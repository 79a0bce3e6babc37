package core

// The map-based protocol as it stood before the slot-indexed event table:
// presumed-received sets are map[event.ID]struct{} per neighbor, the event
// table is a map, and computeSendSet probes one map per (event, neighbor)
// cell. It is the reference the differential and fuzz tests in
// sendset_test.go hold Protocol to, message for message and timer for
// timer. It is the old code verbatim apart from the ref* names, the
// accessors the tests do not call, the doc comments (see the production
// files), idsMatching, which scans instead of walking the deleted
// topic.Tree, and onIDList's stash rule, which lets a stashed sender's
// fresher list through a full stash (the old rule was a bug, fixed on
// both sides). Do not optimize it.

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/event"
	"repro/internal/topic"
)

type refNeighbor struct {
	id       event.NodeID
	subs     *topic.Set
	speed    float64 // m/s, negative = unknown
	has      map[event.ID]struct{}
	storedAt time.Duration
}

func (n *refNeighbor) knows(id event.ID) bool {
	_, ok := n.has[id]
	return ok
}

func (n *refNeighbor) markHas(id event.ID) {
	if n.has == nil {
		n.has = make(map[event.ID]struct{})
	}
	n.has[id] = struct{}{}
}

type refNeighborhood struct {
	max  int // 0 = unbounded
	m    map[event.NodeID]*refNeighbor
	rows []*refNeighbor // sorted by id; the canonical iteration order
}

func newRefNeighborhood(max int) *refNeighborhood {
	return &refNeighborhood{max: max, m: make(map[event.NodeID]*refNeighbor)}
}

func (nh *refNeighborhood) get(id event.NodeID) *refNeighbor { return nh.m[id] }

func (nh *refNeighborhood) rowIndex(id event.NodeID) int {
	return sort.Search(len(nh.rows), func(i int) bool { return nh.rows[i].id >= id })
}

func (nh *refNeighborhood) insertRow(n *refNeighbor) {
	i := nh.rowIndex(n.id)
	nh.rows = append(nh.rows, nil)
	copy(nh.rows[i+1:], nh.rows[i:])
	nh.rows[i] = n
}

func (nh *refNeighborhood) deleteRow(id event.NodeID) {
	i := nh.rowIndex(id)
	if i < len(nh.rows) && nh.rows[i].id == id {
		copy(nh.rows[i:], nh.rows[i+1:])
		nh.rows[len(nh.rows)-1] = nil
		nh.rows = nh.rows[:len(nh.rows)-1]
	}
}

func (nh *refNeighborhood) upsert(id event.NodeID, subs *topic.Set, speed float64, now time.Duration) (isNew, subsChanged bool) {
	if n, ok := nh.m[id]; ok {
		subsChanged = !n.subs.Equal(subs)
		n.subs = subs
		n.speed = speed
		n.storedAt = now
		return false, subsChanged
	}
	if nh.max > 0 && len(nh.rows) >= nh.max {
		nh.evictStalest()
	}
	n := &refNeighbor{id: id, subs: subs, speed: speed, storedAt: now}
	nh.m[id] = n
	nh.insertRow(n)
	return true, false
}

func (nh *refNeighborhood) evictStalest() {
	var victim *refNeighbor
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

func (nh *refNeighborhood) remove(id event.NodeID) {
	if _, ok := nh.m[id]; ok {
		delete(nh.m, id)
		nh.deleteRow(id)
	}
}

func (nh *refNeighborhood) gc(now, ngcDelay time.Duration) int {
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

func (nh *refNeighborhood) sorted() []*refNeighbor {
	return nh.rows
}

func (nh *refNeighborhood) avgSpeed(ownSpeed float64) (avg float64, ok bool) {
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

type refEntry struct {
	ev        event.Event
	expiresAt time.Duration // local absolute expiry
	fwd       int           // times this node sent/forwarded the event
	storedAt  time.Duration
}

func (e *refEntry) valid(now time.Duration) bool { return now < e.expiresAt }

func (e *refEntry) remaining(now time.Duration) time.Duration {
	r := e.expiresAt - now
	if r < 0 {
		r = 0
	}
	return r
}

func (e *refEntry) gcScore() float64 {
	val := e.ev.Validity.Seconds()
	return val / (float64(e.fwd) + val)
}

type refTable struct {
	cap    int // 0 = unbounded
	policy GCPolicy
	rng    *rand.Rand // for GCRandom; may be nil otherwise
	byID   map[event.ID]*refEntry
}

func newRefTable(capacity int) *refTable {
	return &refTable{cap: capacity, byID: make(map[event.ID]*refEntry)}
}

func (t *refTable) len() int { return len(t.byID) }

func (t *refTable) has(id event.ID) bool {
	_, ok := t.byID[id]
	return ok
}

func (t *refTable) get(id event.ID) *refEntry { return t.byID[id] }

func (t *refTable) insert(ev event.Event, now time.Duration) *refEntry {
	var evicted *refEntry
	if t.cap > 0 && len(t.byID) >= t.cap {
		evicted = t.garbageCollect(now)
	}
	e := &refEntry{
		ev:        ev,
		expiresAt: now + ev.Remaining,
		storedAt:  now,
	}
	t.byID[ev.ID] = e
	return evicted
}

func (t *refTable) garbageCollect(now time.Duration) *refEntry {
	var victim *refEntry
	for _, e := range t.byID {
		if !e.valid(now) {
			if victim == nil || victim.valid(now) || refOlderID(e, victim) {
				victim = e
			}
			continue
		}
		if victim != nil && !victim.valid(now) {
			continue // expired victims take precedence
		}
		if victim == nil || t.lessByPolicy(e, victim) {
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

func (t *refTable) lessByPolicy(a, b *refEntry) bool {
	if t.policy == GCFIFO {
		return refOlderID(a, b)
	}
	return refLess(a, b)
}

func (t *refTable) randomValid(now time.Duration, fallback *refEntry) *refEntry {
	valid := t.validEntries(now)
	if len(valid) == 0 {
		return fallback
	}
	return valid[t.rng.Intn(len(valid))]
}

func refLess(a, b *refEntry) bool {
	as, bs := a.gcScore(), b.gcScore()
	if as != bs {
		return as < bs
	}
	return refOlderID(a, b)
}

func refOlderID(a, b *refEntry) bool {
	if a.storedAt != b.storedAt {
		return a.storedAt < b.storedAt
	}
	return a.ev.ID.Less(b.ev.ID)
}

func (t *refTable) remove(e *refEntry) {
	delete(t.byID, e.ev.ID)
}

func (t *refTable) validEntries(now time.Duration) []*refEntry {
	out := make([]*refEntry, 0, len(t.byID))
	for _, e := range t.byID {
		if e.valid(now) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return refOlderID(out[i], out[j]) })
	return out
}

func (t *refTable) idsMatching(subs *topic.Set, now time.Duration) []event.ID {
	var out []event.ID
	for _, e := range t.byID {
		if e.valid(now) && subs.Covers(e.ev.Topic) {
			out = append(out, e.ev.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

type refProtocol struct {
	cfg   Config
	sched Scheduler
	tr    Transport

	subs  *topic.Set
	nbrs  *refNeighborhood
	table *refTable

	hbDelay  time.Duration
	ngcDelay time.Duration

	hbTimer    Timer
	ngcTimer   Timer
	boTimer    Timer
	boDeadline time.Duration

	pendingIDs map[event.NodeID]refPendingIDList

	stats   Stats
	stopped bool
}

type refPendingIDList struct {
	ids []event.ID
	at  time.Duration
}

func newRef(cfg Config, sched Scheduler, tr Transport) (*refProtocol, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sched == nil || tr == nil {
		return nil, errors.New("core: nil scheduler or transport")
	}
	cfg = cfg.withDefaults()
	table := newRefTable(cfg.MaxEvents)
	table.policy = cfg.GCPolicy
	table.rng = cfg.Rand
	p := &refProtocol{
		cfg:        cfg,
		sched:      sched,
		tr:         tr,
		subs:       topic.NewSet(),
		nbrs:       newRefNeighborhood(cfg.MaxNeighbors),
		table:      table,
		pendingIDs: make(map[event.NodeID]refPendingIDList),
	}
	p.hbDelay = cfg.clampHB(cfg.HBDelay)
	p.ngcDelay = p.scaleNGC(p.hbDelay)
	return p, nil
}

func (p *refProtocol) Stats() Stats { return p.stats }

func (p *refProtocol) NeighborIDs() []event.NodeID {
	ns := p.nbrs.sorted()
	out := make([]event.NodeID, len(ns))
	for i, n := range ns {
		out[i] = n.id
	}
	return out
}

func (p *refProtocol) Subscribe(t topic.Topic) error {
	if p.stopped {
		return errors.New("core: protocol stopped")
	}
	if t.IsZero() {
		return errors.New("core: zero topic")
	}
	p.subs.Add(t)
	if p.hbTimer == nil {
		phase := time.Duration(p.cfg.Rand.Int63n(int64(p.hbDelay) + 1))
		p.hbTimer = p.sched.After(phase, p.heartbeatTick)
	}
	p.startNGC()
	return nil
}

func (p *refProtocol) Unsubscribe(t topic.Topic) {
	p.subs.Remove(t)
	if p.subs.Empty() {
		stopTimer(&p.hbTimer)
		stopTimer(&p.ngcTimer)
	}
}

func (p *refProtocol) startNGC() {
	if p.ngcTimer == nil {
		p.ngcTimer = p.sched.After(p.ngcDelay, p.ngcTick)
	}
}

func (p *refProtocol) speed() float64 {
	if p.cfg.Speed == nil {
		return -1
	}
	if v := p.cfg.Speed(); v >= 0 {
		return v
	}
	return -1
}

func (p *refProtocol) heartbeatTick() {
	if p.stopped || p.subs.Empty() {
		p.hbTimer = nil
		return
	}
	p.tr.Broadcast(event.Heartbeat{
		From:          p.cfg.ID,
		Subscriptions: p.subs.Minimal(),
		Speed:         p.speed(),
	})
	p.stats.HeartbeatsSent++
	p.hbTimer = p.sched.After(p.hbDelay, p.heartbeatTick)
}

func (p *refProtocol) ngcTick() {
	if p.stopped {
		p.ngcTimer = nil
		return
	}
	p.stats.NeighborsGCed += uint64(p.nbrs.gc(p.sched.Now(), p.ngcDelay))
	p.ngcTimer = p.sched.After(p.ngcDelay, p.ngcTick)
}

func (p *refProtocol) HandleMessage(m event.Message) error {
	if p.stopped {
		return nil
	}
	switch v := m.(type) {
	case event.Heartbeat:
		p.onHeartbeat(v)
	case event.IDList:
		p.onIDList(v)
	case event.Events:
		p.onEvents(v)
	default:
		return fmt.Errorf("core: unknown message %T", m)
	}
	return nil
}

func (p *refProtocol) onHeartbeat(h event.Heartbeat) {
	if h.From == p.cfg.ID {
		return
	}
	now := p.sched.Now()
	hbSubs := topic.NewSet(h.Subscriptions...)
	if !hbSubs.OverlapsAny(p.subs.Topics()) {
		p.nbrs.remove(h.From)
		return
	}
	isNew, changed := p.nbrs.upsert(h.From, hbSubs, h.Speed, now)
	if (isNew || changed) && p.cfg.BlindPush {
		p.retrieveEventsToSend()
	} else if isNew || changed {
		p.tr.Broadcast(event.IDList{
			From: p.cfg.ID,
			IDs:  p.table.idsMatching(hbSubs, now),
		})
		p.stats.IDListsSent++
	}
	if isNew {
		if pend, ok := p.pendingIDs[h.From]; ok {
			delete(p.pendingIDs, h.From)
			if now-pend.at <= p.ngcDelay {
				nb := p.nbrs.get(h.From)
				for _, id := range pend.ids {
					nb.markHas(id)
				}
				p.retrieveEventsToSend()
			}
		}
	}
	p.computeHBDelay()
	p.computeNGCDelay()
}

func (p *refProtocol) onIDList(l event.IDList) {
	if l.From == p.cfg.ID {
		return
	}
	now := p.sched.Now()
	nb := p.nbrs.get(l.From)
	if nb == nil {
		p.prunePending(now)
		if _, stashed := p.pendingIDs[l.From]; stashed || len(p.pendingIDs) < maxPendingIDLists {
			p.pendingIDs[l.From] = refPendingIDList{
				ids: append([]event.ID(nil), l.IDs...),
				at:  now,
			}
		}
		return
	}
	for _, id := range l.IDs {
		nb.markHas(id)
	}
	p.retrieveEventsToSend()
}

func (p *refProtocol) prunePending(now time.Duration) {
	for id, pend := range p.pendingIDs {
		if now-pend.at > p.ngcDelay {
			delete(p.pendingIDs, id)
		}
	}
}

func (p *refProtocol) onEvents(msg event.Events) {
	if msg.From == p.cfg.ID {
		return
	}
	now := p.sched.Now()
	holders := make([]*refNeighbor, 0, len(msg.Receivers)+1)
	if nb := p.nbrs.get(msg.From); nb != nil {
		holders = append(holders, nb)
	}
	for _, r := range msg.Receivers {
		if nb := p.nbrs.get(r); nb != nil {
			holders = append(holders, nb)
		}
	}
	interested := false
	for _, ev := range msg.Events {
		p.stats.EventsReceived++
		for _, nb := range holders {
			nb.markHas(ev.ID)
		}
		if !p.subs.Covers(ev.Topic) {
			p.stats.Parasites++ // parasite event: drop (Section 3)
			continue
		}
		if p.table.has(ev.ID) {
			p.stats.Duplicates++
			continue
		}
		if ev.Remaining <= 0 {
			p.stats.ExpiredDrops++
			continue
		}
		interested = true
		if !p.cfg.DisableSuppression {
			stopTimer(&p.boTimer)
		}
		p.store(ev, now)
		p.deliver(ev)
	}
	if interested {
		p.retrieveEventsToSend()
	}
}

func (p *refProtocol) store(ev event.Event, now time.Duration) {
	if evicted := p.table.insert(ev, now); evicted != nil {
		p.stats.TableEvictions++
	}
}

func (p *refProtocol) deliver(ev event.Event) {
	p.stats.Delivered++
	if p.cfg.OnDeliver != nil {
		p.cfg.OnDeliver(ev)
	}
}

func (p *refProtocol) Publish(t topic.Topic, payload []byte, validity time.Duration) (event.ID, error) {
	if p.stopped {
		return event.ID{}, errors.New("core: protocol stopped")
	}
	if t.IsZero() {
		return event.ID{}, errors.New("core: zero topic")
	}
	if validity <= 0 {
		return event.ID{}, fmt.Errorf("core: non-positive validity %v", validity)
	}
	now := p.sched.Now()
	ev := event.Event{
		ID:        event.NewID(p.cfg.Rand),
		Topic:     t,
		Publisher: p.cfg.ID,
		Payload:   append([]byte(nil), payload...),
		Validity:  validity,
		Remaining: validity,
	}
	receivers := p.interestedNeighbors(t)
	p.store(ev, now)
	if len(receivers) > 0 {
		p.tr.Broadcast(event.Events{
			From:      p.cfg.ID,
			Events:    []event.Event{ev},
			Receivers: receivers,
		})
		p.stats.EventMsgsSent++
		p.stats.EventsSent++
		p.markAllNeighbors(ev.ID)
		p.table.get(ev.ID).fwd++
	}
	p.stats.Published++
	if p.subs.Covers(t) {
		p.deliver(ev)
	}
	p.startNGC() // paper Figure 9 line 50
	return ev.ID, nil
}

func (p *refProtocol) interestedNeighbors(t topic.Topic) []event.NodeID {
	var out []event.NodeID
	for _, nb := range p.nbrs.sorted() {
		if nb.subs.Covers(t) {
			out = append(out, nb.id)
		}
	}
	return out
}

func (p *refProtocol) markAllNeighbors(id event.ID) {
	for _, nb := range p.nbrs.sorted() {
		nb.markHas(id)
	}
}

func (p *refProtocol) computeSendSet() ([]*refEntry, []event.NodeID) {
	now := p.sched.Now()
	var entries []*refEntry
	needers := make(map[event.NodeID]bool)
	for _, e := range p.table.validEntries(now) {
		needed := false
		for _, nb := range p.nbrs.sorted() {
			if nb.subs.Covers(e.ev.Topic) && !nb.knows(e.ev.ID) {
				needed = true
				needers[nb.id] = true
			}
		}
		if needed {
			entries = append(entries, e)
		}
	}
	ids := make([]event.NodeID, 0, len(needers))
	for id := range needers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return entries, ids
}

func (p *refProtocol) retrieveEventsToSend() {
	entries, _ := p.computeSendSet()
	if len(entries) == 0 {
		return
	}
	now := p.sched.Now()
	delay := p.computeBODelay(len(entries))
	deadline := now + delay
	if p.boTimer != nil {
		if deadline >= p.boDeadline {
			return // existing, earlier back-off wins (COMPUTEBODELAY's MIN)
		}
		stopTimer(&p.boTimer)
	}
	p.boDeadline = deadline
	p.boTimer = p.sched.After(delay, p.onBackoffExpired)
}

func (p *refProtocol) computeBODelay(n int) time.Duration {
	if n < 1 || p.cfg.FixedBackoff {
		n = 1
	}
	return time.Duration(float64(p.hbDelay) / (DefaultHB2BO * float64(n)))
}

func (p *refProtocol) onBackoffExpired() {
	p.boTimer = nil
	now := p.sched.Now()
	entries, receivers := p.computeSendSet()
	if len(entries) == 0 {
		return
	}
	events := make([]event.Event, len(entries))
	for i, e := range entries {
		events[i] = e.ev.WithRemaining(e.remaining(now))
	}
	p.tr.Broadcast(event.Events{
		From:      p.cfg.ID,
		Events:    events,
		Receivers: receivers,
	})
	p.stats.EventMsgsSent++
	p.stats.EventsSent += uint64(len(events))
	for _, e := range entries {
		p.markAllNeighbors(e.ev.ID)
		e.fwd++
	}
}

func (p *refProtocol) computeHBDelay() {
	if p.cfg.DisableAdaptiveHB {
		p.hbDelay = p.cfg.clampHB(p.cfg.HBDelay)
		return
	}
	avg, ok := p.nbrs.avgSpeed(p.speed())
	d := p.cfg.HBDelay
	if ok && avg > 0.01 {
		d = time.Duration(DefaultX / avg * float64(time.Second))
	}
	p.hbDelay = p.cfg.clampHB(d)
}

func (p *refProtocol) computeNGCDelay() {
	p.ngcDelay = p.scaleNGC(p.hbDelay)
}

func (p *refProtocol) scaleNGC(hb time.Duration) time.Duration {
	return time.Duration(float64(hb) * p.cfg.HB2NGC)
}
