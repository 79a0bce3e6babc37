package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/topic"
)

// ---- a manual clock and a recording transport, one pair per instance ----

// stepSched is a Scheduler driven by hand: advance fires due timers in
// (deadline, arming order) order. Every arming, firing and cancellation
// is appended to the transcript, so two protocols fed the same inputs can
// be compared timer for timer.
type stepSched struct {
	now     time.Duration
	seq     int
	pending []*stepTimer
	log     *[]string
}

type stepTimer struct {
	s   *stepSched
	at  time.Duration
	seq int
	fn  func()
}

func (s *stepSched) Now() time.Duration { return s.now }

func (s *stepSched) After(d time.Duration, fn func()) Timer {
	t := &stepTimer{s: s, fn: fn}
	t.arm(d)
	return t
}

// arm files t d from now with the next arming number, logged the same
// whether After or Reset armed it: the reference re-arms its periodic
// tasks with After, the Protocol with Reset.
func (t *stepTimer) arm(d time.Duration) {
	s := t.s
	t.at, t.seq = s.now+d, s.seq
	s.seq++
	s.pending = append(s.pending, t)
	*s.log = append(*s.log, fmt.Sprintf("%v after %v", s.now, d))
}

func (t *stepTimer) Reset(d time.Duration) bool {
	pending := t.Stop()
	t.arm(d)
	return pending
}

func (t *stepTimer) Stop() bool {
	for i, p := range t.s.pending {
		if p == t {
			t.s.pending = append(t.s.pending[:i], t.s.pending[i+1:]...)
			*t.s.log = append(*t.s.log, fmt.Sprintf("%v stop timer %d", t.s.now, t.seq))
			return true
		}
	}
	return false
}

func (s *stepSched) advance(d time.Duration) {
	end := s.now + d
	for {
		var next *stepTimer
		for _, t := range s.pending {
			if t.at <= end && (next == nil || t.at < next.at || (t.at == next.at && t.seq < next.seq)) {
				next = t
			}
		}
		if next == nil {
			break
		}
		next.Stop()
		s.now = next.at
		next.fn()
	}
	s.now = end
}

type logTransport struct {
	s   *stepSched
	log *[]string
}

func (l logTransport) Broadcast(m event.Message) {
	*l.log = append(*l.log, fmt.Sprintf("%v send %+v", l.s.now, m))
}

// ---- the scripted pair: Protocol next to the map-based reference ----

// disseminator is what the script drives on both sides.
type disseminator interface {
	Subscribe(topic.Topic) error
	Unsubscribe(topic.Topic)
	Publish(topic.Topic, []byte, time.Duration) (event.ID, error)
	HandleMessage(event.Message) error
	NeighborIDs() []event.NodeID
	Stats() Stats
}

type side struct {
	d     disseminator
	sched *stepSched
	rng   *rand.Rand
	speed float64 // what Config.Speed reports; the script changes it
	log   []string
}

func newSide(cfg Config, build func(Config, Scheduler, Transport) (disseminator, error)) *side {
	s := &side{rng: rand.New(rand.NewSource(7)), speed: -1}
	s.sched = &stepSched{log: &s.log}
	cfg.Rand = s.rng
	cfg.Speed = func() float64 { return s.speed }
	cfg.OnDeliver = func(ev event.Event) {
		s.log = append(s.log, fmt.Sprintf("%v deliver %v", s.sched.now, ev.ID))
	}
	d, err := build(cfg, s.sched, logTransport{s.sched, &s.log})
	if err != nil {
		panic(err)
	}
	s.d = d
	return s
}

var scriptTopics = []topic.Topic{
	topic.MustParse(".a"), topic.MustParse(".a.x"), topic.MustParse(".b"),
	topic.MustParse(".b.c"), topic.MustParse(".z"), topic.Root(),
}

// scriptShape is what a script's bytes are decoded against: the event
// table bound, how many ids heartbeats come from (id lists and event
// pushes come from one more, a sender that is never discovered), a
// neighbor table bound overriding the script's own flag, and a GC policy
// overriding the script's own when not GCPaper.
type scriptShape struct {
	maxEvents    int
	senders      int
	maxNeighbors int
	policy       GCPolicy
}

var (
	// The shapes every script runs in: unbounded, and bounded under each
	// GC policy. wideShape has more senders than the pending-list stash
	// has room for; cappedShape keeps the neighbor table evicting its
	// stalest row.
	narrowShapes = []scriptShape{
		{senders: 5}, {senders: 5, maxEvents: 3},
		{senders: 5, maxEvents: 3, policy: GCFIFO}, {senders: 5, maxEvents: 3, policy: GCRandom},
	}
	wideShape   = scriptShape{senders: 200}
	cappedShape = scriptShape{senders: 12, maxNeighbors: 4, maxEvents: 3}
)

// scriptCoverage counts what a script made Protocol's sender-indexed
// structures and its empty-send-set memo do.
type scriptCoverage struct {
	stashReplaced int // a stashed sender's list replaced in a full stash
	stashPopped   int // an expired prefix popped, a live suffix kept
	evicted       int // neighbor rows evicted by the table bound
	memoSkipped   int // a known sender's id list answered by noneNeeded
}

func (c *scriptCoverage) add(o scriptCoverage) {
	c.stashReplaced += o.stashReplaced
	c.stashPopped += o.stashPopped
	c.evicted += o.evicted
	c.memoSkipped += o.memoSkipped
}

// expect says what handling msg is about to make the stash, the neighbor
// table bound and the send-set memo do.
func (p *Protocol) expect(msg event.Message) (c scriptCoverage) {
	switch m := msg.(type) {
	case event.IDList:
		if m.From == p.cfg.ID {
			break
		}
		if p.nbrs.get(m.From) != nil {
			// markHas only sets bits, so the memo stands through the
			// list and RETRIEVEEVENTSTOSEND takes the skip.
			if p.noneNeeded {
				c.memoSkipped = 1
			}
			break
		}
		expired := 0
		for _, pend := range p.pendingIDs {
			if p.sched.Now()-pend.at > p.ngcDelay {
				expired++
			}
		}
		if expired > 0 && expired < len(p.pendingIDs) {
			c.stashPopped = 1
		}
		if expired == 0 && len(p.pendingIDs) == maxPendingIDLists && p.pendingFrom(m.From) >= 0 {
			c.stashReplaced = 1
		}
	case event.Heartbeat:
		if m.From != p.cfg.ID && p.cfg.MaxNeighbors > 0 && len(p.nbrs.rows) == p.cfg.MaxNeighbors &&
			p.nbrs.get(m.From) == nil && p.subs.OverlapsAny(m.Subscriptions) {
			c.evicted = 1
		}
	}
	return c
}

// runScript decodes data into a sequence of heartbeat / id-list / events /
// publish / subscription / own-speed / clock operations, applies each to
// a Protocol and to the map-based reference, and fails on the first
// difference in their transcripts (every broadcast message, every timer
// armed, fired or stopped, every delivery), neighbor lists, counters or
// presumed-received knowledge. Protocol's own invariants are checked
// after every step.
func runScript(t testing.TB, data []byte, sh scriptShape) (cov scriptCoverage) {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	flags := next()
	policy := GCPolicy(flags >> 4 % 3)
	if sh.policy != GCPaper {
		policy = sh.policy
	}
	cfg := Config{
		ID:                 1,
		MaxEvents:          sh.maxEvents,
		HBDelay:            time.Second,
		HBUpperBound:       2 * time.Second,
		MaxNeighbors:       max(flags&1*3, sh.maxNeighbors),
		BlindPush:          flags&2 != 0,
		DisableSuppression: flags&4 != 0,
		FixedBackoff:       flags&8 != 0,
		GCPolicy:           policy,
	}
	var p *Protocol
	got := newSide(cfg, func(c Config, s Scheduler, tr Transport) (disseminator, error) {
		var err error
		p, err = New(c, s, tr)
		return p, err
	})
	var ref *refProtocol
	want := newSide(cfg, func(c Config, s Scheduler, tr Transport) (disseminator, error) {
		var err error
		ref, err = newRef(c, s, tr)
		return ref, err
	})
	sides := []*side{got, want}

	// Every event id the script can mention, for the knowledge comparison.
	var ids []event.ID
	poolEvent := func(k int) event.Event {
		return event.Event{
			ID:        event.ID{Lo: uint64(k + 1)},
			Topic:     scriptTopics[k%len(scriptTopics)],
			Publisher: event.NodeID(2 + k%5),
			Validity:  time.Duration(1+k%4) * time.Second,
		}
	}
	for k := 0; k < 8; k++ {
		ids = append(ids, poolEvent(k).ID)
	}
	fresh := 100

	topicsOf := func(mask int) []topic.Topic {
		var ts []topic.Topic
		for i, tp := range scriptTopics {
			if mask>>i&1 != 0 {
				ts = append(ts, tp)
			}
		}
		if mask&0x40 != 0 && len(ts) > 1 {
			// A permuted, repeating wire list is legal; it takes the
			// slow path of the heartbeat handler.
			ts = append(ts, ts[0])
			ts[0], ts[1] = ts[1], ts[0]
		}
		return ts
	}
	for _, s := range sides {
		_ = s.d.Subscribe(scriptTopics[0])
		_ = s.d.Subscribe(scriptTopics[3])
	}

	for step := 0; pos < len(data); step++ {
		op, a, b := next(), next(), next()
		var msg event.Message
		switch op % 10 {
		case 0, 1: // heartbeat
			msg = event.Heartbeat{
				From:          event.NodeID(2 + a%sh.senders),
				Subscriptions: topicsOf(b),
				Speed:         []float64{-1, 5, 20}[a/5%3],
			}
		case 2, 3: // id list, possibly from a sender not discovered yet
			l := event.IDList{From: event.NodeID(2 + a%(sh.senders+1))}
			for k := 0; k < 8; k++ {
				if b>>k&1 != 0 {
					l.IDs = append(l.IDs, poolEvent(k).ID)
				}
			}
			if a&0x80 != 0 && len(ids) > 8 {
				l.IDs = append(l.IDs, ids[8+b%(len(ids)-8)])
			}
			msg = l
		case 4: // pool events, some already expired, some parasites
			m := event.Events{From: event.NodeID(2 + a%(sh.senders+1))}
			for r := 0; r < 7; r++ {
				if a>>3>>r&1 != 0 {
					m.Receivers = append(m.Receivers, event.NodeID(1+r))
				}
			}
			for k := 0; k < 8; k++ {
				if b>>k&1 != 0 {
					ev := poolEvent(k)
					ev.Remaining = ev.Validity - time.Duration(a%3)*time.Second
					m.Events = append(m.Events, ev)
				}
			}
			msg = m
		case 5: // a never-seen event: tables grow past one bitset word
			ev := poolEvent(fresh)
			fresh++
			ev.Remaining = ev.Validity
			ids = append(ids, ev.ID)
			msg = event.Events{
				From:      event.NodeID(2 + a%(sh.senders+1)),
				Receivers: []event.NodeID{event.NodeID(2 + b%(sh.senders+1))},
				Events:    []event.Event{ev},
			}
		case 6: // publish
			for _, s := range sides {
				id, err := s.d.Publish(scriptTopics[a%len(scriptTopics)], nil, time.Duration(1+b%4)*time.Second)
				if err != nil {
					t.Fatalf("step %d: publish: %v", step, err)
				}
				if s == got {
					ids = append(ids, id)
				}
			}
		case 7: // short advance: back-offs fire
			for _, s := range sides {
				s.sched.advance(time.Duration(a) * 10 * time.Millisecond)
			}
		case 8: // long advance: neighbor GC, validity expiry
			for _, s := range sides {
				s.sched.advance(time.Duration(a) * 100 * time.Millisecond)
			}
		case 9: // own subscriptions or speed change; a restart replays the id stream
			for _, s := range sides {
				switch tp := scriptTopics[a%len(scriptTopics)]; b % 4 {
				case 0:
					_ = s.d.Subscribe(tp)
				case 1:
					s.d.Unsubscribe(tp)
				case 2:
					s.rng.Seed(7)
				case 3:
					s.speed = []float64{-1, 0, 12.5, 400}[a%4]
				}
			}
		}
		if msg != nil {
			cov.add(p.expect(msg))
			for _, s := range sides {
				if err := s.d.HandleMessage(msg); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		}
		if len(p.pendingIDs) > maxPendingIDLists || len(p.pendingIDs) != len(ref.pendingIDs) {
			t.Fatalf("step %d: %d id lists stashed, reference %d, cap %d", step, len(p.pendingIDs), len(ref.pendingIDs), maxPendingIDLists)
		}
		for i, pend := range p.pendingIDs {
			if i > 0 && pend.at < p.pendingIDs[i-1].at {
				t.Fatalf("step %d: stash out of arrival order at %d", step, i)
			}
			if r, ok := ref.pendingIDs[pend.from]; !ok || r.at != pend.at || !reflect.DeepEqual(r.ids, pend.ids) {
				t.Fatalf("step %d: stashed list of %d is %v, reference %v (stashed: %v)", step, pend.from, pend, r, ok)
			}
		}

		for i := 0; i < len(got.log) || i < len(want.log); i++ {
			if i >= len(got.log) || i >= len(want.log) || got.log[i] != want.log[i] {
				g, w := "(nothing)", "(nothing)"
				if i < len(got.log) {
					g = got.log[i]
				}
				if i < len(want.log) {
					w = want.log[i]
				}
				t.Fatalf("step %d (op %d): transcripts diverge\n got: %s\nwant: %s", step, op%10, g, w)
			}
		}
		got.log, want.log = got.log[:0], want.log[:0]
		if g, w := got.d.NeighborIDs(), want.d.NeighborIDs(); !reflect.DeepEqual(g, w) {
			t.Fatalf("step %d: neighbors %v, reference %v", step, g, w)
		}
		if g, w := got.d.Stats(), want.d.Stats(); g != w {
			t.Fatalf("step %d: stats %+v, reference %+v", step, g, w)
		}
		if len(p.table.byID) != ref.table.len() {
			t.Fatalf("step %d: %d events stored, reference %d", step, len(p.table.byID), ref.table.len())
		}
		for _, nb := range p.nbrs.rows {
			rnb := ref.nbrs.get(nb.id)
			for _, id := range ids {
				if p.knows(nb, id) != rnb.knows(id) {
					t.Fatalf("step %d: row %d presumed to hold %v: %v, reference %v",
						step, nb.id, id, p.knows(nb, id), rnb.knows(id))
				}
			}
		}
		p.check(t)
	}
	return cov
}

// check verifies the table's invariants (slots, order, heaps, expiry),
// the ghost digest's (no ghost names a stored event, every row bit names
// a ghost), that a set noneNeeded memo is what a fresh send set says,
// and, per neighbor row, that bits exist only on occupied slots and that
// covers is subs.Covers of each stored topic.
func (p *Protocol) check(tb testing.TB) {
	tb.Helper()
	t := &p.table
	t.check(tb, p.sched.Now())
	// Recomputing is harmless here: it leaves the memo set, and need,
	// receivers and valid are only read right after a computeSendSet.
	if p.noneNeeded {
		if n := p.computeSendSet(); n != 0 {
			tb.Fatalf("noneNeeded is set, but %d events are needed by %v", n, p.receivers)
		}
	}
	for _, nb := range p.nbrs.rows {
		for s := 0; s < len(t.slab)+130; s++ {
			var e *tableEntry
			if s < len(t.slab) {
				e = t.slab[s]
			}
			if e == nil && (nb.has.test(s) || nb.covers.test(s)) {
				tb.Fatalf("row %d keeps a bit on free slot %d", nb.id, s)
			}
			if e != nil && nb.covers.test(s) != nb.subs.Covers(e.ev.Topic) {
				tb.Fatalf("row %d covers bit of slot %d (%v) is %v", nb.id, s, e.ev.Topic, nb.covers.test(s))
			}
		}
	}
	p.nbrs.checkGhosts(tb, t)
}

// randomScript is a script of n operations weighted towards the message
// handlers.
func randomScript(rng *rand.Rand, n int) []byte {
	data := make([]byte, 1+3*n)
	rng.Read(data)
	return data
}

// stashScript is a script of n operations dominated by id lists, with
// short clock advances: under wideShape most senders are undiscovered, so
// the pending-list stash fills, replaces and expires.
func stashScript(rng *rand.Rand, n int) []byte {
	data := randomScript(rng, n)
	for i := 1; i < len(data); i += 3 {
		switch k := rng.Intn(100); {
		case k < 60:
			data[i] = 2 // id list
		case k < 68:
			data[i] = 0 // heartbeat
		case k < 80:
			data[i], data[i+1] = 7, data[i+1]%12 // advance <= 110 ms
		case k < 82:
			data[i], data[i+1] = 8, data[i+1]%40 // advance <= 3.9 s
		}
	}
	return data
}

// TestSendSetDifferential drives long random scripts through Protocol and
// the reference, bounded (MaxEvents 3: constant eviction and slot reuse,
// under each of the three GC policies) and unbounded (the table outgrows
// one bitset word), then with more
// senders than the stash holds and with a neighbor table that keeps
// evicting. The seeds run as parallel subtests: scratch buffers are per
// instance, so -race must stay silent.
func TestSendSetDifferential(t *testing.T) {
	var mu sync.Mutex
	var total scriptCoverage
	t.Cleanup(func() { // after the parallel subtests
		if total.stashReplaced == 0 || total.stashPopped == 0 || total.evicted == 0 || total.memoSkipped == 0 {
			t.Errorf("scripts no longer reach every sender-indexed path and the send-set memo: %+v", total)
		}
	})
	for seed := int64(1); seed <= 24; seed++ {
		seed := seed
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			script := randomScript(rng, 600)
			for _, sh := range narrowShapes {
				runScript(t, script, sh)
			}
			cov := runScript(t, script, cappedShape)
			cov.add(runScript(t, stashScript(rng, 600), wideShape))
			mu.Lock()
			total.add(cov)
			mu.Unlock()
		})
	}
}

func FuzzSendSet(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(randomScript(rand.New(rand.NewSource(seed)), 40))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Each operation names at most one new id, so under maxGhosts-8
		// operations no node can hold enough ghosts to start forgetting
		// (the reference never forgets).
		if len(data) > 3*(maxGhosts-8) {
			t.Skip()
		}
		for _, sh := range append(narrowShapes, wideShape, cappedShape) {
			runScript(t, data, sh)
		}
	})
}

// ---- the three pinned semantics, by name ----

// soloProtocol is a Protocol subscribed to .t on a manual clock.
func soloProtocol(t *testing.T, maxEvents int) *Protocol {
	t.Helper()
	log := new([]string)
	sched := &stepSched{log: log}
	p, err := New(Config{
		ID: 1, MaxEvents: maxEvents, HBDelay: time.Second, HBUpperBound: time.Second,
		Rand: rand.New(rand.NewSource(1)),
	}, sched, logTransport{sched, log})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Subscribe(topicT); err != nil {
		t.Fatal(err)
	}
	return p
}

var topicT = topic.MustParse(".t")

func handle(t *testing.T, p *Protocol, m event.Message) {
	t.Helper()
	if err := p.HandleMessage(m); err != nil {
		t.Fatal(err)
	}
	p.check(t)
}

func heartbeatFrom(id event.NodeID) event.Heartbeat {
	return event.Heartbeat{From: id, Subscriptions: []topic.Topic{topicT}, Speed: -1}
}

func eventT(lo uint64, validity time.Duration) event.Event {
	return event.Event{ID: event.ID{Lo: lo}, Topic: topicT, Publisher: 9, Validity: validity, Remaining: validity}
}

// sendSet is the send set as (sorted event ids, receivers).
func sendSet(p *Protocol) ([]uint64, []event.NodeID) {
	p.computeSendSet()
	var ids []uint64
	for _, e := range p.table.order {
		if p.need[e.slot>>6]>>(uint(e.slot)&63)&1 != 0 {
			ids = append(ids, e.ev.ID.Lo)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, append([]event.NodeID(nil), p.receivers...)
}

func TestSlotReuseDoesNotInheritBits(t *testing.T) {
	p := soloProtocol(t, 1)
	handle(t, p, heartbeatFrom(2))
	handle(t, p, heartbeatFrom(3))
	// Event 10 arrives from 2 with 3 as co-receiver: both hold it.
	handle(t, p, event.Events{From: 2, Receivers: []event.NodeID{3}, Events: []event.Event{eventT(10, time.Minute)}})
	if ids, _ := sendSet(p); len(ids) != 0 {
		t.Fatalf("send set %v: everyone already holds event 10", ids)
	}
	slot := p.table.get(event.ID{Lo: 10}).slot
	// Event 11, from a stranger, evicts 10 and takes over its slot. No
	// neighbor is known to hold 11: it must go to both.
	handle(t, p, event.Events{From: 8, Events: []event.Event{eventT(11, time.Minute)}})
	if p.table.get(event.ID{Lo: 10}) != nil || p.table.get(event.ID{Lo: 11}).slot != slot {
		t.Fatal("event 11 did not take over event 10's slot")
	}
	ids, rcv := sendSet(p)
	if !reflect.DeepEqual(ids, []uint64{11}) || !reflect.DeepEqual(rcv, []event.NodeID{2, 3}) {
		t.Fatalf("send set %v to %v, want event 11 to neighbors 2 and 3", ids, rcv)
	}
}

func TestIDHeardBeforeStoreIsHonoured(t *testing.T) {
	p := soloProtocol(t, 0)
	id := event.ID{Lo: 20}
	// Pending-list path: 2's id list arrives before 2 is a neighbor.
	handle(t, p, event.IDList{From: 2, IDs: []event.ID{id}})
	handle(t, p, heartbeatFrom(2))
	// Overheard path: 3 is a neighbor and announces an id we do not hold.
	handle(t, p, heartbeatFrom(3))
	handle(t, p, event.IDList{From: 3, IDs: []event.ID{id}})
	handle(t, p, heartbeatFrom(4))
	g, ok := p.nbrs.ghosts.index[id]
	for _, n := range []event.NodeID{2, 3} {
		if !ok || !p.nbrs.get(n).ghost.test(int(g)) {
			t.Fatalf("row %d did not record the unstored id as a ghost", n)
		}
	}
	// The event itself arrives from a stranger. 2 and 3 said they hold
	// it; only 4 needs it.
	handle(t, p, event.Events{From: 8, Events: []event.Event{eventT(20, time.Minute)}})
	for _, n := range []event.NodeID{2, 3} {
		nb := p.nbrs.get(n)
		if !p.knows(nb, id) || nb.ghost.test(int(g)) {
			t.Fatalf("row %d: id did not move from its ghost to the slot bit", n)
		}
	}
	ids, rcv := sendSet(p)
	if !reflect.DeepEqual(ids, []uint64{20}) || !reflect.DeepEqual(rcv, []event.NodeID{4}) {
		t.Fatalf("send set %v to %v, want event 20 to neighbor 4 only", ids, rcv)
	}
}

func TestEvictionAndRereceptionKeepHolders(t *testing.T) {
	p := soloProtocol(t, 1)
	handle(t, p, heartbeatFrom(2))
	handle(t, p, heartbeatFrom(3))
	// 2 holds event 30 (it sent it); 3 does not.
	handle(t, p, event.Events{From: 2, Events: []event.Event{eventT(30, time.Minute)}})
	// Event 31 evicts 30 from the one-entry table.
	handle(t, p, event.Events{From: 8, Events: []event.Event{eventT(31, time.Minute)}})
	if p.table.get(event.ID{Lo: 30}) != nil {
		t.Fatal("event 30 still stored")
	}
	if !p.knows(p.nbrs.get(2), event.ID{Lo: 30}) || p.knows(p.nbrs.get(3), event.ID{Lo: 30}) {
		t.Fatal("eviction lost who holds event 30")
	}
	// 30 comes back (evicting 31) from a stranger: it is a fresh delivery,
	// but 2 is still presumed to hold it, so it goes to 3 alone.
	before := p.Stats().Delivered
	handle(t, p, event.Events{From: 8, Events: []event.Event{eventT(30, time.Minute)}})
	if p.Stats().Delivered != before+1 {
		t.Fatal("re-received event was not delivered again")
	}
	ids, rcv := sendSet(p)
	if !reflect.DeepEqual(ids, []uint64{30}) || !reflect.DeepEqual(rcv, []event.NodeID{3}) {
		t.Fatalf("send set %v to %v, want event 30 to neighbor 3 only", ids, rcv)
	}
}
