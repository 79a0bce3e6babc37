package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"repro/internal/event"
	"repro/internal/topic"
)

// Protocol is one process p_i running the frugal dissemination algorithm.
// See the package comment for the concurrency contract.
type Protocol struct {
	cfg   Config
	sched Scheduler
	tr    Transport

	// The tables are held by value: every sender lookup and heartbeat
	// reads them, and a pointer would put one more cold load in front.
	subs  topic.Set
	nbrs  neighborhood
	table eventTable

	// announce is the heartbeat's subscription list, subs.Minimal() built
	// once per subscription change (nil until the next heartbeat needs
	// it). Sent messages share it, so it is never written in place, and
	// so does heartbeat, the boxed last one, sent at speed hbSpeed
	// (compared by bits, so that -0 is sent as -0).
	announce  []topic.Topic
	heartbeat event.Message
	hbSpeed   float64

	hbDelay  time.Duration
	ngcDelay time.Duration

	hbTimer    Timer
	ngcTimer   Timer
	boTimer    Timer
	boDeadline time.Duration

	// pendingIDs stashes event-id lists heard from processes we have not
	// discovered yet. The paper's Figure 6 silently drops those, which
	// deadlocks a stable pair when the holder's heartbeat beats the
	// needer's (the one-shot id exchange then never reaches the holder).
	// Stashing until the heartbeat arrives preserves the paper's
	// frugality while restoring liveness; entries expire after ngcDelay.
	// At most maxPendingIDLists entries, one per sender, in arrival
	// order: the expired ones are always a prefix.
	pendingIDs []pendingIDList

	// Scratch reused across calls (per instance: runs execute many
	// instances concurrently). computeSendSet fills need and receivers.
	need      []uint64       // slots some neighbor needs, by word
	receivers []event.NodeID // the neighbors needing them, ascending
	holders   []*neighbor    // onEvents

	// noneNeeded records that the last computeSendSet found nothing to
	// send. The send set is the union over rows of covers &^ has & valid,
	// and between a computeSendSet and the next store or row (re)fill
	// nothing can grow it: has bits are only set, valid bits only expire,
	// rows only leave. So while it holds, RETRIEVEEVENTSTOSEND returns at
	// once. store and the refill of a new or changed row clear it.
	noneNeeded bool

	stats   Stats
	stopped bool
}

type pendingIDList struct {
	from event.NodeID
	ids  []event.ID
	at   time.Duration
}

// maxPendingIDLists bounds the stash of id lists from undiscovered
// processes.
const maxPendingIDLists = 64

// New creates a protocol instance. It returns an error on invalid
// configuration. The instance is idle until Subscribe or Publish is
// called.
func New(cfg Config, sched Scheduler, tr Transport) (*Protocol, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sched == nil || tr == nil {
		return nil, errors.New("core: nil scheduler or transport")
	}
	cfg = cfg.withDefaults()
	p := &Protocol{
		cfg:   cfg,
		sched: sched,
		tr:    tr,
		nbrs:  neighborhood{max: cfg.MaxNeighbors},
		table: *newEventTable(cfg.MaxEvents),
	}
	p.table.policy = cfg.GCPolicy
	p.table.rng = cfg.Rand
	p.hbDelay = cfg.clampHB(cfg.HBDelay)
	p.ngcDelay = p.scaleNGC(p.hbDelay)
	return p, nil
}

// Stats returns a snapshot of the protocol counters.
func (p *Protocol) Stats() Stats { return p.stats }

// NeighborIDs returns the ids in the neighborhood table, sorted.
func (p *Protocol) NeighborIDs() []event.NodeID {
	ns := p.nbrs.rows
	out := make([]event.NodeID, len(ns))
	for i, n := range ns {
		out[i] = n.id
	}
	return out
}

// HasEvent reports whether the event table holds id.
func (p *Protocol) HasEvent(id event.ID) bool { return p.table.get(id) != nil }

// Subscribe adds t to the subscription list and starts the heartbeat and
// neighborhood-GC tasks if needed (paper Figure 5).
func (p *Protocol) Subscribe(t topic.Topic) error {
	if p.stopped {
		return errors.New("core: protocol stopped")
	}
	if t.IsZero() {
		return errors.New("core: zero topic")
	}
	if p.subs.Add(t) {
		p.announce = nil
	}
	if p.hbTimer == nil {
		// Desynchronize first heartbeats across nodes: a random phase in
		// [0, hbDelay) avoids the pathological all-at-once burst when a
		// whole scenario subscribes at the same instant.
		phase := time.Duration(p.cfg.Rand.Int63n(int64(p.hbDelay) + 1))
		p.hbTimer = p.sched.After(phase, p.heartbeatTick)
	}
	p.startNGC()
	return nil
}

// Unsubscribe removes t; when the subscription list empties, the
// heartbeat and neighborhood-GC tasks stop (paper Figure 5).
func (p *Protocol) Unsubscribe(t topic.Topic) {
	if p.subs.Remove(t) {
		p.announce = nil
	}
	if p.subs.Empty() {
		stopTimer(&p.hbTimer)
		stopTimer(&p.ngcTimer)
	}
}

func stopTimer(t *Timer) {
	if *t != nil {
		(*t).Stop()
		*t = nil
	}
}

func (p *Protocol) startNGC() {
	if p.ngcTimer == nil {
		p.ngcTimer = p.sched.After(p.ngcDelay, p.ngcTick)
	}
}

// Stop halts all activity permanently.
func (p *Protocol) Stop() {
	p.stopped = true
	stopTimer(&p.hbTimer)
	stopTimer(&p.ngcTimer)
	stopTimer(&p.boTimer)
}

// speed returns the node's own speed, or -1 when unknown.
func (p *Protocol) speed() float64 {
	if p.cfg.Speed == nil {
		return -1
	}
	if v := p.cfg.Speed(); v >= 0 {
		return v
	}
	return -1
}

// heartbeatTick is the HEARTBEAT task: broadcast identity, subscriptions
// and speed, then reschedule at the current adaptive period.
func (p *Protocol) heartbeatTick() {
	if p.stopped || p.subs.Empty() {
		p.hbTimer = nil
		return
	}
	// Announce the minimal covering subscription list: subtopics
	// subsumed by an announced ancestor add no information.
	if p.announce == nil {
		p.announce, p.heartbeat = p.subs.Minimal(), nil
	}
	if v := p.speed(); p.heartbeat == nil || math.Float64bits(v) != math.Float64bits(p.hbSpeed) {
		p.hbSpeed, p.heartbeat = v, event.Heartbeat{From: p.cfg.ID, Subscriptions: p.announce, Speed: v}
	}
	p.tr.Broadcast(p.heartbeat)
	p.stats.HeartbeatsSent++
	if p.hbTimer != nil { // nil if the broadcast stopped the protocol
		p.hbTimer.Reset(p.hbDelay)
	}
}

// ngcTick is the neighborhoodGC task (paper Figure 10).
func (p *Protocol) ngcTick() {
	if p.stopped {
		p.ngcTimer = nil
		return
	}
	p.stats.NeighborsGCed += uint64(p.nbrs.gc(p.sched.Now(), p.ngcDelay))
	if p.ngcTimer != nil {
		p.ngcTimer.Reset(p.ngcDelay)
	}
}

// HandleMessage feeds a received broadcast into the protocol. Unknown
// message types return an error; the caller decides whether that is
// fatal.
func (p *Protocol) HandleMessage(m event.Message) error {
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

// onHeartbeat implements paper Figure 6, lines 5-23.
func (p *Protocol) onHeartbeat(h event.Heartbeat) {
	if h.From == p.cfg.ID {
		return
	}
	now := p.sched.Now()
	if !p.subs.OverlapsAny(h.Subscriptions) {
		// Not (or no longer) interesting: forget any stale row.
		p.nbrs.remove(h.From)
		return
	}
	nb, isNew, changed := p.nbrs.upsert(h.From, h.Subscriptions, h.Speed, now)
	if isNew || changed {
		p.noneNeeded = false
		for _, e := range p.table.order {
			nb.covers.assign(e.slot, nb.subs.Covers(e.ev.Topic))
		}
	}
	if (isNew || changed) && p.cfg.BlindPush {
		// Ablation: no id pre-exchange — assume the neighbor holds
		// nothing and schedule a push directly.
		p.retrieveEventsToSend()
	} else if isNew || changed {
		// neighborEvent: announce the ids of our valid events matching
		// the neighbor's interests. An empty list still triggers the
		// peer's RETRIEVEEVENTSTOSEND, telling it we need everything.
		p.tr.Broadcast(event.IDList{
			From: p.cfg.ID,
			IDs:  p.table.idsMatching(&nb.covers, now),
		})
		p.stats.IDListsSent++
	}
	if isNew {
		// Apply an id list heard before the neighbor was known, then
		// check whether it needs anything we hold.
		if i := p.pendingFrom(h.From); i >= 0 {
			pend := p.pendingIDs[i]
			p.pendingIDs = slices.Delete(p.pendingIDs, i, i+1)
			if now-pend.at <= p.ngcDelay {
				for _, id := range pend.ids {
					p.nbrs.markHas(id, p.table.get(id), nb)
				}
				p.retrieveEventsToSend()
			}
		}
	}
	p.computeHBDelay()
	p.computeNGCDelay()
}

// onIDList implements paper Figure 6, lines 24-32, with the pending-list
// stash for not-yet-discovered senders (see the pendingIDs field).
func (p *Protocol) onIDList(l event.IDList) {
	if l.From == p.cfg.ID {
		return
	}
	now := p.sched.Now()
	nb := p.nbrs.get(l.From)
	if nb == nil {
		p.prunePending(now)
		// A fresher list replaces the sender's stashed one, also in a
		// full stash: keeping the stale one is the deadlock again.
		if i := p.pendingFrom(l.From); i >= 0 {
			p.pendingIDs = slices.Delete(p.pendingIDs, i, i+1)
		}
		if len(p.pendingIDs) < maxPendingIDLists {
			p.pendingIDs = append(p.pendingIDs, pendingIDList{
				from: l.From,
				ids:  append([]event.ID(nil), l.IDs...),
				at:   now,
			})
		}
		return
	}
	for _, id := range l.IDs {
		p.nbrs.markHas(id, p.table.get(id), nb)
	}
	p.retrieveEventsToSend()
}

// pendingFrom returns the position of from's stashed id list, -1 when
// there is none.
func (p *Protocol) pendingFrom(from event.NodeID) int {
	for i := range p.pendingIDs {
		if p.pendingIDs[i].from == from {
			return i
		}
	}
	return -1
}

// prunePending drops stashed id lists older than the neighborhood GC
// horizon.
func (p *Protocol) prunePending(now time.Duration) {
	n := 0
	for n < len(p.pendingIDs) && now-p.pendingIDs[n].at > p.ngcDelay {
		n++
	}
	p.pendingIDs = slices.Delete(p.pendingIDs, 0, n)
}

// onEvents implements paper Figure 9, lines 15-32.
func (p *Protocol) onEvents(msg event.Events) {
	if msg.From == p.cfg.ID {
		return
	}
	now := p.sched.Now()
	// Update presumed-received info: the sender and every listed
	// receiver are assumed to hold the carried events.
	holders := p.holders[:0]
	if nb := p.nbrs.get(msg.From); nb != nil {
		holders = append(holders, nb)
	}
	for _, r := range msg.Receivers {
		if nb := p.nbrs.get(r); nb != nil {
			holders = append(holders, nb)
		}
	}
	p.holders = holders
	interested := false
	for _, ev := range msg.Events {
		p.stats.EventsReceived++
		e := p.table.get(ev.ID)
		switch {
		case !p.subs.Covers(ev.Topic):
			p.stats.Parasites++ // parasite event: drop (Section 3)
		case e != nil:
			p.stats.Duplicates++
		case ev.Remaining <= 0:
			p.stats.ExpiredDrops++
		default:
			interested = true
			// Receiving a new event of interest cancels our own pending
			// send (suppression, Figure 9 line 22).
			if !p.cfg.DisableSuppression {
				stopTimer(&p.boTimer)
			}
			e = p.store(ev, now)
			p.deliver(ev)
		}
		// Marked once stored: a new event's holders go straight to its slot.
		p.nbrs.markHas(ev.ID, e, holders...)
	}
	if interested {
		p.retrieveEventsToSend()
	}
}

// store inserts ev into the event table, accounting evictions, and
// brings every neighbor row's bits in line with the slots that changed
// hands. It returns the new entry.
func (p *Protocol) store(ev event.Event, now time.Duration) *tableEntry {
	p.noneNeeded = false
	e, evicted := p.table.insert(ev, now)
	if evicted != nil {
		p.stats.TableEvictions++
	}
	p.nbrs.stored(e, evicted)
	return e
}

func (p *Protocol) deliver(ev event.Event) {
	p.stats.Delivered++
	if p.cfg.OnDeliver != nil {
		p.cfg.OnDeliver(ev)
	}
}

// Publish implements paper Figure 9, lines 33-53: broadcast immediately
// if an interested neighbor is known, then store and deliver locally.
func (p *Protocol) Publish(t topic.Topic, payload []byte, validity time.Duration) (event.ID, error) {
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
		p.markSent(ev.ID)
	}
	p.stats.Published++
	if p.subs.Covers(t) {
		p.deliver(ev)
	}
	p.startNGC() // paper Figure 9 line 50
	return ev.ID, nil
}

// interestedNeighbors returns the sorted ids of neighbors whose
// subscriptions cover t.
func (p *Protocol) interestedNeighbors(t topic.Topic) []event.NodeID {
	var out []event.NodeID
	for _, nb := range p.nbrs.rows {
		if nb.subs.Covers(t) {
			out = append(out, nb.id)
		}
	}
	return out
}

// markSent accounts one broadcast of the event id: every neighbor is
// presumed to have received it, and its forward count grows.
func (p *Protocol) markSent(id event.ID) {
	e := p.table.get(id)
	p.nbrs.markHas(id, e, p.nbrs.rows...)
	if e != nil {
		p.table.forwarded(e)
	}
}

// computeSendSet recomputes the valid stored events some neighbor needs
// (paper Figure 7): per row, the slots it covers, is not presumed to hold,
// and that are still valid, a word at a time. It returns their number and
// leaves their union in p.need and the needing neighbors in p.receivers.
func (p *Protocol) computeSendSet() int {
	t := &p.table
	t.expire(p.sched.Now())
	words := (len(t.slab) + 63) >> 6
	p.need = slices.Grow(p.need[:0], words)[:words]
	clear(p.need)
	p.receivers = p.receivers[:0]
	for _, nb := range p.nbrs.rows {
		var any uint64
		for w := range p.need {
			m := nb.covers.word(w) &^ nb.has.word(w) & t.valid.word(w)
			p.need[w] |= m
			any |= m
		}
		if any != 0 {
			p.receivers = append(p.receivers, nb.id)
		}
	}
	n := 0
	for _, w := range p.need {
		n += bits.OnesCount64(w)
	}
	p.noneNeeded = n == 0
	return n
}

// retrieveEventsToSend implements RETRIEVEEVENTSTOSEND (paper Figure 7):
// when some neighbor misses events we hold, arm (or tighten) the back-off
// timer; the send set itself is recomputed at expiry. After an empty send
// set it has nothing to do until something can grow it (see noneNeeded).
func (p *Protocol) retrieveEventsToSend() {
	if p.noneNeeded {
		return
	}
	n := p.computeSendSet()
	if n == 0 {
		return
	}
	now := p.sched.Now()
	delay := p.computeBODelay(n)
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

// computeBODelay implements COMPUTEBODELAY (paper Figure 8):
// HBDelay / (HB2BO * |eventsToSend|), so holders of more events fire
// sooner.
func (p *Protocol) computeBODelay(n int) time.Duration {
	if n < 1 || p.cfg.FixedBackoff {
		n = 1
	}
	return time.Duration(float64(p.hbDelay) / (DefaultHB2BO * float64(n)))
}

// onBackoffExpired implements paper Figure 9, lines 1-14: recompute the
// send set (the neighborhood may have changed during the back-off) and
// broadcast it.
func (p *Protocol) onBackoffExpired() {
	p.boTimer = nil
	now := p.sched.Now()
	n := p.computeSendSet()
	if n == 0 {
		return
	}
	events := make([]event.Event, 0, n)
	for _, e := range p.table.order {
		if p.need[e.slot>>6]>>(uint(e.slot)&63)&1 != 0 {
			events = append(events, e.ev.WithRemaining(e.remaining(now)))
		}
	}
	// The message outlives this call (the transport may queue it), so it
	// gets its own receiver list, not the scratch one.
	p.tr.Broadcast(event.Events{
		From:      p.cfg.ID,
		Events:    events,
		Receivers: append([]event.NodeID(nil), p.receivers...),
	})
	p.stats.EventMsgsSent++
	p.stats.EventsSent += uint64(len(events))
	for i := range events {
		p.markSent(events[i].ID)
	}
}

// computeHBDelay implements COMPUTEHBDELAY (paper Figure 8): x over the
// average known speed, clamped to the configured bounds.
func (p *Protocol) computeHBDelay() {
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

// computeNGCDelay implements COMPUTENGCDELAY: NGCDelay = HBDelay*HB2NGC.
func (p *Protocol) computeNGCDelay() {
	p.ngcDelay = p.scaleNGC(p.hbDelay)
}

func (p *Protocol) scaleNGC(hb time.Duration) time.Duration {
	return time.Duration(float64(hb) * p.cfg.HB2NGC)
}
