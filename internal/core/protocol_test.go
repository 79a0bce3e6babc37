package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/sim"
	"repro/internal/topic"
)

// ---- test harness: a zero-loss broadcast bus on the sim engine ----

type simSched struct{ eng *sim.Engine }

func (s simSched) Now() time.Duration { return s.eng.Now().Duration() }
func (s simSched) After(d time.Duration, fn func()) Timer {
	return s.eng.After(d, fn)
}

type loggedMsg struct {
	at   sim.Time
	from event.NodeID
	msg  event.Message
}

type harness struct {
	t      *testing.T
	eng    *sim.Engine
	ids    []event.NodeID
	protos map[event.NodeID]*Protocol
	down   map[[2]event.NodeID]bool // severed links (default: all up)
	msgs   []loggedMsg
	deliv  map[event.NodeID][]event.Event
}

func newHarness(t *testing.T, seed int64) *harness {
	return &harness{
		t:      t,
		eng:    sim.New(seed),
		protos: make(map[event.NodeID]*Protocol),
		down:   make(map[[2]event.NodeID]bool),
		deliv:  make(map[event.NodeID][]event.Event),
	}
}

func linkKey(a, b event.NodeID) [2]event.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]event.NodeID{a, b}
}

// setLink connects or severs the (symmetric) link between a and b.
func (h *harness) setLink(a, b event.NodeID, up bool) {
	if up {
		delete(h.down, linkKey(a, b))
	} else {
		h.down[linkKey(a, b)] = true
	}
}

type busTransport struct {
	h    *harness
	from event.NodeID
}

func (b busTransport) Broadcast(m event.Message) {
	h := b.h
	h.msgs = append(h.msgs, loggedMsg{at: h.eng.Now(), from: b.from, msg: m})
	for _, id := range h.ids {
		if id == b.from || h.down[linkKey(b.from, id)] {
			continue
		}
		p := h.protos[id]
		h.eng.After(time.Millisecond, func() { _ = p.HandleMessage(m) })
	}
}

// addNode creates a protocol with a 1s heartbeat and subscribes it to the
// given topics.
func (h *harness) addNode(id event.NodeID, cfg Config, subs ...string) *Protocol {
	h.t.Helper()
	cfg.ID = id
	if cfg.HBDelay == 0 {
		cfg.HBDelay = time.Second
		cfg.HBUpperBound = time.Second
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.New(rand.NewSource(int64(id) + 100))
	}
	prev := cfg.OnDeliver
	cfg.OnDeliver = func(ev event.Event) {
		h.deliv[id] = append(h.deliv[id], ev)
		if prev != nil {
			prev(ev)
		}
	}
	p, err := New(cfg, simSched{h.eng}, busTransport{h: h, from: id})
	if err != nil {
		h.t.Fatalf("New(%v): %v", id, err)
	}
	h.protos[id] = p
	h.ids = append(h.ids, id)
	for _, s := range subs {
		if err := p.Subscribe(topic.MustParse(s)); err != nil {
			h.t.Fatalf("Subscribe: %v", err)
		}
	}
	return p
}

// runUntil advances the bus, then checks every node's table and row
// invariants.
func (h *harness) runUntil(sec float64) {
	h.eng.RunUntil(sim.Seconds(sec))
	for _, p := range h.protos {
		p.check(h.t)
	}
}

// eventsMsgsFrom counts Events messages broadcast by id after a cutoff.
func (h *harness) eventsMsgsFrom(id event.NodeID, after sim.Time) int {
	n := 0
	for _, lm := range h.msgs {
		if lm.from == id && lm.at >= after && lm.msg.Kind() == event.KindEvents {
			n++
		}
	}
	return n
}

// ---- tests ----

func TestDiscovery(t *testing.T) {
	h := newHarness(t, 1)
	p1 := h.addNode(1, Config{}, ".t")
	p2 := h.addNode(2, Config{}, ".t")
	h.runUntil(3)
	if ids := p1.NeighborIDs(); len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("p1 neighbors = %v", ids)
	}
	if ids := p2.NeighborIDs(); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("p2 neighbors = %v", ids)
	}
	if p1.Stats().HeartbeatsSent == 0 {
		t.Fatal("no heartbeats sent")
	}
}

func TestNoDiscoveryWithoutOverlap(t *testing.T) {
	h := newHarness(t, 2)
	p1 := h.addNode(1, Config{}, ".a")
	p2 := h.addNode(2, Config{}, ".b")
	h.runUntil(5)
	if len(p1.NeighborIDs()) != 0 || len(p2.NeighborIDs()) != 0 {
		t.Fatal("non-overlapping subscribers stored each other")
	}
}

func TestSubtopicOverlapDiscovery(t *testing.T) {
	// .t0.t1 and .t0.t1.t2 overlap (Fig 1); .t0.t1 and .t0.t9 do not.
	h := newHarness(t, 3)
	p1 := h.addNode(1, Config{}, ".t0.t1")
	p2 := h.addNode(2, Config{}, ".t0.t1.t2")
	p3 := h.addNode(3, Config{}, ".t0.t9")
	h.runUntil(3)
	if ids := p1.NeighborIDs(); len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("p1 neighbors = %v, want [2]", ids)
	}
	if len(p3.NeighborIDs()) != 0 {
		t.Fatalf("p3 neighbors = %v, want none", p3.NeighborIDs())
	}
	_ = p2
}

func TestEventTransferToLateJoiner(t *testing.T) {
	h := newHarness(t, 4)
	p1 := h.addNode(1, Config{}, ".t")
	id, err := p1.Publish(topic.MustParse(".t"), []byte("x"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// No neighbors at publish time: nothing on the wire.
	if p1.Stats().EventMsgsSent != 0 {
		t.Fatal("publish without neighbors should not broadcast")
	}
	p2 := h.addNode(2, Config{}, ".t")
	h.runUntil(10)
	if !p2.HasEvent(id) {
		t.Fatal("late joiner never received the event")
	}
	if got := len(h.deliv[2]); got != 1 {
		t.Fatalf("p2 deliveries = %d, want 1", got)
	}
	if h.deliv[2][0].ID != id || h.deliv[2][0].Publisher != 1 {
		t.Fatalf("delivered = %+v", h.deliv[2][0])
	}
	if p2.Stats().Duplicates != 0 {
		t.Fatalf("duplicates = %d", p2.Stats().Duplicates)
	}
}

func TestFig1Scenario(t *testing.T) {
	// Paper Figure 1: T1 subtopic of T0, T2 subtopic of T1.
	// p1 subscribes T1 and holds e3(T1); p2 subscribes T2 and holds
	// e4,e5 (T2); p3 subscribes T0.
	h := newHarness(t, 5)
	p1 := h.addNode(1, Config{}, ".T0.T1")
	p2 := h.addNode(2, Config{}, ".T0.T1.T2")

	e3, _ := p1.Publish(topic.MustParse(".T0.T1"), nil, time.Hour)
	e4, _ := p2.Publish(topic.MustParse(".T0.T1.T2"), nil, time.Hour)
	e5, _ := p2.Publish(topic.MustParse(".T0.T1.T2"), nil, time.Hour)

	// Part I: p1 and p2 exchange; p1 must obtain e4, e5 (T2 under T1);
	// p2 must NOT obtain e3 (T1 is a super-topic of its subscription).
	h.runUntil(8)
	if !p1.HasEvent(e4) || !p1.HasEvent(e5) {
		t.Fatal("p1 missing subtopic events e4/e5")
	}
	if p2.HasEvent(e3) {
		t.Fatal("p2 received super-topic event e3")
	}

	// Part II: p3 (subscribed to the root topic T0) joins and must
	// collect all three events.
	p3 := h.addNode(3, Config{}, ".T0")
	h.runUntil(20)
	for _, id := range []event.ID{e3, e4, e5} {
		if !p3.HasEvent(id) {
			t.Fatalf("p3 missing event %v", id)
		}
	}
	if got := len(h.deliv[3]); got != 3 {
		t.Fatalf("p3 deliveries = %d, want 3", got)
	}
}

func TestSuppressionOnOverhear(t *testing.T) {
	// p1 holds {e1,e2}, p2 holds {e1}. When p3 joins, p1 (more events,
	// shorter back-off) fires first; p2 overhears and cancels its own
	// send entirely (paper Fig 1 part III).
	h := newHarness(t, 6)
	p1 := h.addNode(1, Config{}, ".t")
	p2 := h.addNode(2, Config{}, ".t")
	h.runUntil(3)

	e1, _ := p1.Publish(topic.MustParse(".t"), nil, time.Hour)
	h.runUntil(3.5) // p2 receives e1 via the publish broadcast
	if !p2.HasEvent(e1) {
		t.Fatal("setup: p2 must hold e1")
	}
	h.setLink(1, 2, false)
	h.runUntil(4)
	e2, _ := p1.Publish(topic.MustParse(".t"), nil, time.Hour)
	h.runUntil(9) // NGC clears stale entries on both sides
	h.setLink(1, 2, true)

	joinAt := h.eng.Now()
	p3 := h.addNode(3, Config{}, ".t")
	h.runUntil(15)

	if !p3.HasEvent(e1) || !p3.HasEvent(e2) {
		t.Fatal("p3 did not receive both events")
	}
	if n := h.eventsMsgsFrom(2, joinAt); n != 0 {
		t.Fatalf("p2 sent %d Events messages despite suppression", n)
	}
	// p1 may legitimately fire once per trigger (p2's id list, p3's id
	// list) but no more: anything beyond 2 would mean suppression or
	// presumed-received tracking is broken.
	if n := h.eventsMsgsFrom(1, joinAt); n < 1 || n > 2 {
		t.Fatalf("p1 sent %d Events messages, want 1 or 2", n)
	}
	if d := p3.Stats().Duplicates; d > 1 {
		t.Fatalf("p3 duplicates = %d, want at most 1", d)
	}
}

func TestBackoffFavorsLargerHoldings(t *testing.T) {
	// p1 holds 3 events, p2 holds 1 (disjoint); the first Events message
	// after p3 joins must come from p1 (back-off ~ 1/|eventsToSend|).
	h := newHarness(t, 7)
	p1 := h.addNode(1, Config{}, ".t")
	p2 := h.addNode(2, Config{}, ".t")
	h.setLink(1, 2, false) // keep holdings disjoint
	for i := 0; i < 3; i++ {
		if _, err := p1.Publish(topic.MustParse(".t"), nil, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p2.Publish(topic.MustParse(".t"), nil, time.Hour); err != nil {
		t.Fatal(err)
	}
	h.runUntil(9)

	joinAt := h.eng.Now()
	p3 := h.addNode(3, Config{}, ".t")
	h.runUntil(20)

	var first *loggedMsg
	for i := range h.msgs {
		lm := h.msgs[i]
		if lm.at > joinAt && lm.msg.Kind() == event.KindEvents {
			first = &lm
			break
		}
	}
	if first == nil {
		t.Fatal("no Events message after join")
	}
	if first.from != 1 {
		t.Fatalf("first sender = %v, want p1 (larger holding)", first.from)
	}
	if got := len(h.deliv[3]); got != 4 {
		t.Fatalf("p3 deliveries = %d, want 4", got)
	}
	_ = p3
}

func TestDuplicateCountedOnce(t *testing.T) {
	// p1 and p2 both hold e; both fire at the same deadline for p3, so
	// p3 receives e twice: one delivery, one duplicate.
	h := newHarness(t, 8)
	p1 := h.addNode(1, Config{}, ".t")
	h.addNode(2, Config{}, ".t")
	h.runUntil(3)
	_, err := p1.Publish(topic.MustParse(".t"), nil, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	h.runUntil(4)

	p3 := h.addNode(3, Config{}, ".t")
	h.runUntil(12)

	st := p3.Stats()
	if st.Delivered != 1 {
		t.Fatalf("p3 delivered = %d, want 1", st.Delivered)
	}
	if len(h.deliv[3]) != 1 {
		t.Fatalf("p3 OnDeliver calls = %d, want 1", len(h.deliv[3]))
	}
	if st.Delivered+st.Duplicates != st.EventsReceived-st.Parasites-st.ExpiredDrops {
		t.Fatalf("counter identity violated: %+v", st)
	}
}

func TestParasiteEventsDroppedNotDelivered(t *testing.T) {
	// p4 subscribes an unrelated topic: it overhears Events frames on
	// the shared medium but must never deliver them.
	h := newHarness(t, 9)
	p1 := h.addNode(1, Config{}, ".t")
	h.addNode(2, Config{}, ".t")
	p4 := h.addNode(4, Config{}, ".other")
	h.runUntil(3)
	if _, err := p1.Publish(topic.MustParse(".t"), nil, time.Hour); err != nil {
		t.Fatal(err)
	}
	h.runUntil(10)

	st := p4.Stats()
	if st.Parasites == 0 {
		t.Fatal("p4 should have overheard parasite events")
	}
	if st.Delivered != 0 || len(h.deliv[4]) != 0 {
		t.Fatal("parasite events must not be delivered")
	}
	if p4.HasEvent(h.deliv[2][0].ID) {
		t.Fatal("parasite events must not be stored")
	}
}

func TestExpiredEventsNotDisseminated(t *testing.T) {
	h := newHarness(t, 10)
	p1 := h.addNode(1, Config{}, ".t")
	if _, err := p1.Publish(topic.MustParse(".t"), nil, time.Second); err != nil {
		t.Fatal(err)
	}
	h.runUntil(5) // validity long gone
	h.addNode(2, Config{}, ".t")
	h.runUntil(15)
	if got := len(h.deliv[2]); got != 0 {
		t.Fatalf("expired event delivered %d times", got)
	}
	if p1.Stats().EventMsgsSent != 0 {
		t.Fatal("expired event was put on the wire")
	}
}

func TestHeartbeatDelayAdaptsToSpeed(t *testing.T) {
	h := newHarness(t, 11)
	cfg := Config{
		HBDelay:      time.Second,
		HBUpperBound: 10 * time.Second, // leave room for adaptation
		Speed:        func() float64 { return 20 },
	}
	p1 := h.addNode(1, cfg, ".t")
	p2 := h.addNode(2, cfg, ".t")
	h.runUntil(5)
	// x/avgSpeed = 40/20 = 2s for both.
	if got := p1.HBDelay(); got != 2*time.Second {
		t.Fatalf("p1 HBDelay = %v, want 2s", got)
	}
	if got := p2.NGCDelay(); got != 5*time.Second {
		t.Fatalf("p2 NGCDelay = %v, want 5s (2s * 2.5)", got)
	}
}

func TestHeartbeatUpperBoundClamps(t *testing.T) {
	h := newHarness(t, 12)
	cfg := Config{
		HBDelay:      15 * time.Second,
		HBUpperBound: time.Second,
		Speed:        func() float64 { return 1 }, // x/speed = 40s >> bound
	}
	p1 := h.addNode(1, cfg, ".t")
	h.addNode(2, cfg, ".t")
	h.runUntil(5)
	if got := p1.HBDelay(); got != time.Second {
		t.Fatalf("HBDelay = %v, want clamped 1s", got)
	}
}

func TestUnsubscribeStopsTasks(t *testing.T) {
	h := newHarness(t, 13)
	p1 := h.addNode(1, Config{}, ".t")
	h.addNode(2, Config{}, ".t")
	h.runUntil(5)
	p1.Unsubscribe(topic.MustParse(".t"))
	sent := p1.Stats().HeartbeatsSent
	h.runUntil(15)
	if got := p1.Stats().HeartbeatsSent; got > sent+1 {
		t.Fatalf("heartbeats kept flowing after unsubscribe: %d -> %d", sent, got)
	}
}

func TestNeighborhoodGCRemovesDeparted(t *testing.T) {
	h := newHarness(t, 14)
	p1 := h.addNode(1, Config{}, ".t")
	h.addNode(2, Config{}, ".t")
	h.runUntil(3)
	if len(p1.NeighborIDs()) != 1 {
		t.Fatal("setup: discovery failed")
	}
	h.setLink(1, 2, false)
	h.runUntil(10) // several NGC periods (2.5s each)
	if len(p1.NeighborIDs()) != 0 {
		t.Fatal("departed neighbor was not garbage collected")
	}
	if p1.Stats().NeighborsGCed == 0 {
		t.Fatal("NeighborsGCed counter not incremented")
	}
}

func TestPublishValidation(t *testing.T) {
	h := newHarness(t, 15)
	p := h.addNode(1, Config{}, ".t")
	if _, err := p.Publish(topic.Topic{}, nil, time.Minute); err == nil {
		t.Fatal("zero topic accepted")
	}
	if _, err := p.Publish(topic.MustParse(".t"), nil, 0); err == nil {
		t.Fatal("zero validity accepted")
	}
	if _, err := p.Publish(topic.MustParse(".t"), nil, -time.Second); err == nil {
		t.Fatal("negative validity accepted")
	}
}

func TestPublisherDeliversLocally(t *testing.T) {
	h := newHarness(t, 16)
	p := h.addNode(1, Config{}, ".t")
	id, err := p.Publish(topic.MustParse(".t"), []byte("self"), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.deliv[1]) != 1 || h.deliv[1][0].ID != id {
		t.Fatalf("publisher deliveries = %v", h.deliv[1])
	}
	// A publisher not subscribed to the topic does not self-deliver.
	p9 := h.addNode(9, Config{}, ".elsewhere")
	if _, err := p9.Publish(topic.MustParse(".t"), nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(h.deliv[9]) != 0 {
		t.Fatal("unsubscribed publisher self-delivered")
	}
}

func TestStopSilencesNode(t *testing.T) {
	h := newHarness(t, 17)
	p1 := h.addNode(1, Config{}, ".t")
	h.addNode(2, Config{}, ".t")
	h.runUntil(3)
	p1.Stop()
	hb := p1.Stats().HeartbeatsSent
	h.runUntil(10)
	if p1.Stats().HeartbeatsSent != hb {
		t.Fatal("stopped node kept heartbeating")
	}
	if err := p1.Subscribe(topic.MustParse(".x")); err == nil {
		t.Fatal("Subscribe after Stop should fail")
	}
	if _, err := p1.Publish(topic.MustParse(".t"), nil, time.Minute); err == nil {
		t.Fatal("Publish after Stop should fail")
	}
}

func TestHandleUnknownMessage(t *testing.T) {
	h := newHarness(t, 18)
	p := h.addNode(1, Config{}, ".t")
	type weird struct{ event.Heartbeat }
	if err := p.HandleMessage(weird{}); err == nil {
		t.Fatal("unknown message type accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{ID: 1, HB2NGC: -1},
		{ID: 1, HBDelay: -time.Second},
		{ID: 1, HBLowerBound: 2 * time.Second, HBUpperBound: time.Second},
		{ID: 1, MaxEvents: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, simSched{sim.New(1)}, busTransport{}); err == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
	if _, err := New(Config{ID: 1}, nil, nil); err == nil {
		t.Fatal("nil scheduler/transport accepted")
	}
}

func TestEventTableCapacityTriggersGC(t *testing.T) {
	h := newHarness(t, 19)
	cfg := Config{MaxEvents: 5}
	p1 := h.addNode(1, cfg, ".t")
	for i := 0; i < 10; i++ {
		if _, err := p1.Publish(topic.MustParse(".t"), nil, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if got := p1.EventCount(); got != 5 {
		t.Fatalf("table size = %d, want 5", got)
	}
	if p1.Stats().TableEvictions != 5 {
		t.Fatalf("evictions = %d, want 5", p1.Stats().TableEvictions)
	}
}

func TestScenarioDeterminism(t *testing.T) {
	run := func() []Stats {
		h := newHarness(t, 42)
		for id := event.NodeID(1); id <= 5; id++ {
			h.addNode(id, Config{}, ".t")
		}
		h.runUntil(2)
		if _, err := h.protos[1].Publish(topic.MustParse(".t"), nil, time.Minute); err != nil {
			t.Fatal(err)
		}
		h.runUntil(30)
		var out []Stats
		for id := event.NodeID(1); id <= 5; id++ {
			out = append(out, h.protos[id].Stats())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d stats diverged:\n%+v\n%+v", i+1, a[i], b[i])
		}
	}
}

func TestResubscribeRestartsHeartbeat(t *testing.T) {
	h := newHarness(t, 20)
	p1 := h.addNode(1, Config{}, ".t")
	h.runUntil(3)
	p1.Unsubscribe(topic.MustParse(".t"))
	h.runUntil(6)
	if err := p1.Subscribe(topic.MustParse(".t")); err != nil {
		t.Fatal(err)
	}
	before := p1.Stats().HeartbeatsSent
	h.runUntil(12)
	if p1.Stats().HeartbeatsSent <= before {
		t.Fatal("heartbeat did not restart after resubscribe")
	}
}

// lastMsg is a transport that keeps only the latest broadcast.
type lastMsg struct{ m event.Message }

func (l *lastMsg) Broadcast(m event.Message) { l.m = m }

// heartbeatNode is a Protocol on an engine of its own, subscribed to
// subs, with its neighborhood-GC task stopped so that every engine step
// is one heartbeat.
func heartbeatNode(t *testing.T, subs ...string) (*Protocol, *sim.Engine, *lastMsg) {
	t.Helper()
	eng := sim.New(1)
	tr := &lastMsg{}
	p, err := New(Config{ID: 1, Rand: rand.New(rand.NewSource(1))}, simSched{eng}, tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range subs {
		if err := p.Subscribe(topic.MustParse(s)); err != nil {
			t.Fatal(err)
		}
	}
	stopTimer(&p.ngcTimer)
	return p, eng, tr
}

// TestHeartbeatListSurvivesSubscriptionChange pins the cached heartbeat
// list: a heartbeat already sent keeps its list when the subscriptions
// change afterwards (Remove shifts the set's slice in place, so the list
// must not share it), and the next heartbeat announces the new minimal
// list.
func TestHeartbeatListSurvivesSubscriptionChange(t *testing.T) {
	p, eng, tr := heartbeatNode(t, ".a", ".a.x", ".b", ".c")
	topics := func(ss ...string) []topic.Topic {
		var ts []topic.Topic
		for _, s := range ss {
			ts = append(ts, topic.MustParse(s))
		}
		return ts
	}
	eng.Step()
	sent := tr.m.(event.Heartbeat).Subscriptions
	if want := topics(".a", ".b", ".c"); !slices.Equal(sent, want) {
		t.Fatalf("heartbeat announces %v, want %v", sent, want)
	}
	p.Unsubscribe(topic.MustParse(".a"))
	p.Unsubscribe(topic.MustParse(".b"))
	if err := p.Subscribe(topic.MustParse(".d")); err != nil {
		t.Fatal(err)
	}
	if want := topics(".a", ".b", ".c"); !slices.Equal(sent, want) {
		t.Fatalf("a sent heartbeat's list changed to %v after the subscriptions did", sent)
	}
	eng.Step()
	if got, want := tr.m.(event.Heartbeat).Subscriptions, topics(".a.x", ".c", ".d"); !slices.Equal(got, want) {
		t.Fatalf("next heartbeat announces %v, want %v", got, want)
	}
}

// TestHeartbeatTickAllocs pins what a heartbeat costs in allocations
// once warm: nothing. The list is cached, the boxed message is reused
// while the speed stays the same, and the task re-arms its own timer
// with Reset, so neither a handle nor a method-value callback is built
// per period (they cost 2, the message 1, and building the list each
// time 3 more with two subscriptions). The warm-up runs long enough for
// the period to have cycled through every wheel slot it lands in: a
// slot's first append grows its array once.
func TestHeartbeatTickAllocs(t *testing.T) {
	p, eng, _ := heartbeatNode(t, ".a", ".b")
	for i := 0; i < 2000; i++ {
		eng.Step()
	}
	sent := p.Stats().HeartbeatsSent
	allocs := testing.AllocsPerRun(100, func() { eng.Step() })
	if got := p.Stats().HeartbeatsSent - sent; got != 101 { // AllocsPerRun warms up with one extra call
		t.Fatalf("%d heartbeats over 101 engine steps", got)
	}
	if allocs != 0 {
		t.Fatalf("a heartbeat with two subscriptions allocates %v times, want 0", allocs)
	}
}

// hbCounter counts the heartbeats broadcast through it.
type hbCounter struct{ n int }

func (c *hbCounter) Broadcast(m event.Message) {
	if _, ok := m.(event.Heartbeat); ok {
		c.n++
	}
}

// TestStaleTimerCallbackKeepsOneChain runs the heartbeat and
// neighbourhood-GC callbacks late, as a wall-clock timer that had fired
// but waited for the node's lock would: after the subscriptions were
// emptied (stopping both tasks) and refilled (starting new ones). A
// periodic task re-arms its current handle, so the late callbacks cannot
// fork a second chain: two timers stay pending, and every later period
// sends one heartbeat.
func TestStaleTimerCallbackKeepsOneChain(t *testing.T) {
	var log []string
	s := &stepSched{log: &log}
	tr := &hbCounter{}
	p, err := New(Config{ID: 1, Rand: rand.New(rand.NewSource(1))}, s, tr)
	if err != nil {
		t.Fatal(err)
	}
	a := topic.MustParse(".a")
	if err := p.Subscribe(a); err != nil {
		t.Fatal(err)
	}
	// Both timers fire: they leave the schedule, their callbacks wait.
	hb, ngc := p.hbTimer.(*stepTimer), p.ngcTimer.(*stepTimer)
	hb.Stop()
	ngc.Stop()
	s.now = max(hb.at, ngc.at)
	p.Unsubscribe(a)
	if err := p.Subscribe(a); err != nil {
		t.Fatal(err)
	}
	hb.fn()
	ngc.fn()
	if len(s.pending) != 2 {
		t.Fatalf("%d timers pending after the late callbacks, want 2 (one heartbeat, one GC)", len(s.pending))
	}
	period := p.HBDelay()
	sent := tr.n
	s.advance(10 * period)
	if got := tr.n - sent; got != 10 {
		t.Fatalf("%d heartbeats over 10 periods, want 10", got)
	}
	if len(s.pending) != 2 {
		t.Fatalf("%d timers pending after 10 periods, want 2", len(s.pending))
	}
}
