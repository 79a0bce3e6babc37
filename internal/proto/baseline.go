package proto

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/event"
	"repro/internal/topic"
)

// Stored is one event a baseline holds, with the per-event state S its
// rule attaches (storm's copies/decided, gossip's push budget).
type Stored[S any] struct {
	Ev        event.Event
	ExpiresAt time.Duration
	State     S
}

// Rule is the part of a baseline the skeleton does not own: what the
// protocol does with the messages other nodes sent and with an event it
// just published. A kind the protocol has no use for gets an empty
// method, which ignores it quietly — scenarios mixing protocols stay
// possible.
type Rule[S any] interface {
	OnHeartbeat(event.Heartbeat)
	OnIDList(event.IDList)
	OnEvents(event.Events)
	// OnPublish sees a freshly published event after it is stored and
	// before it is delivered locally.
	OnPublish(*Stored[S])
}

// Baseline is the skeleton the six comparison protocols (internal/flood,
// internal/gossip) embed: the subscription set and lifecycle, Publish,
// local delivery, message dispatch, the receive path's counters and one
// validity-bounded event store. A protocol built on it implements Rule,
// registers its periodic tasks (Every) and writes nothing else.
// Two things stay the protocol's decision because they are pinned by
// the goldens: when a stored event is dropped (the rule given to Prune)
// and the order of its RNG draws (the order of its Every calls, and
// whatever its Rule methods draw).
//
// It is embedded by value and reaches its rule through an interface,
// not closures, so that a received message touches one cold per-node
// object rather than three: at a city-sized roster the pointer-embedded,
// closure-hooked form ran metro-flood-5k 20 % slower. For the same
// reason a duplicate copy — nearly every copy a flooding node receives —
// is answered from the skeleton itself: the last topic's subscription
// verdict is memoised beside the counters, and the store is a dense
// id-sorted slice pair searched in place of a map.
//
// Like every Disseminator it is single-threaded.
type Baseline[S any] struct {
	Env
	// Subs is the subscription set. Change it only through Subscribe and
	// Unsubscribe, which invalidate the memoised verdict.
	Subs  *topic.Set
	Count Stats

	rule Rule[S]
	// The store: ids ascending, entries[i] holding ids[i].
	ids     []event.ID
	entries []*Stored[S]
	// memoTopic's coverage by Subs is memoCovered; a zero memoTopic is
	// no memo.
	memoTopic   topic.Topic
	memoCovered bool
	// heartbeat is Heartbeat's boxed beacon; nil when subs changed.
	heartbeat event.Message
	tasks     []*task
	stopped   bool
}

// task is one periodic activity registered with Every.
type task struct {
	period time.Duration
	fire   func()
	timer  Timer
}

// Init binds an idle skeleton to env and to the protocol embedding it.
func (b *Baseline[S]) Init(env Env, rule Rule[S]) error {
	if env.Sched == nil || env.Transport == nil || env.Rand == nil {
		return errors.New("proto: environment missing scheduler, transport or rand")
	}
	b.Env, b.rule = env, rule
	b.Subs = topic.NewSet()
	return nil
}

// Stats returns a snapshot of the counters.
func (b *Baseline[S]) Stats() Stats { return b.Count }

// Stopped reports whether Stop was called.
func (b *Baseline[S]) Stopped() bool { return b.stopped }

// Subscribe registers interest in t and all its subtopics.
func (b *Baseline[S]) Subscribe(t topic.Topic) error {
	if b.stopped {
		return errors.New("proto: protocol stopped")
	}
	if t.IsZero() {
		return errors.New("proto: zero topic")
	}
	b.Subs.Add(t)
	b.memoTopic, b.heartbeat = topic.Topic{}, nil
	b.start()
	return nil
}

// Unsubscribe removes t from the subscription set.
func (b *Baseline[S]) Unsubscribe(t topic.Topic) {
	b.Subs.Remove(t)
	b.memoTopic, b.heartbeat = topic.Topic{}, nil
}

// covers reports Subs.Covers(t), answered from the one-entry memo when t
// is the topic asked last.
func (b *Baseline[S]) covers(t topic.Topic) bool {
	if t != b.memoTopic || t.IsZero() {
		b.memoTopic, b.memoCovered = t, b.Subs.Covers(t)
	}
	return b.memoCovered
}

// Stop halts all activity permanently.
func (b *Baseline[S]) Stop() {
	b.stopped = true
	for _, t := range b.tasks {
		if t.timer != nil {
			t.timer.Stop()
			t.timer = nil
		}
	}
}

// Every registers fn to run once per period from the first Subscribe or
// Publish on. Each task starts at its own random phase, so co-started
// nodes do not act in lockstep; the phases are drawn in registration
// order.
func (b *Baseline[S]) Every(period time.Duration, fn func()) {
	t := &task{period: period}
	t.fire = func() {
		if b.stopped {
			t.timer = nil
			return
		}
		fn()
		if t.timer != nil { // nil if fn stopped the protocol
			t.timer.Reset(t.period)
		}
	}
	b.tasks = append(b.tasks, t)
}

func (b *Baseline[S]) start() {
	for _, t := range b.tasks {
		if t.timer == nil {
			phase := time.Duration(b.Rand.Int63n(int64(t.period) + 1))
			t.timer = b.Sched.After(phase, t.fire)
		}
	}
}

// Publish stores a new event (one NewID draw), hands it to the rule,
// delivers it locally if subscribed and starts the periodic tasks.
func (b *Baseline[S]) Publish(t topic.Topic, payload []byte, validity time.Duration) (event.ID, error) {
	if b.stopped {
		return event.ID{}, errors.New("proto: protocol stopped")
	}
	if t.IsZero() {
		return event.ID{}, errors.New("proto: zero topic")
	}
	if validity <= 0 {
		return event.ID{}, fmt.Errorf("proto: non-positive validity %v", validity)
	}
	ev := event.Event{
		ID:        event.NewID(b.Rand),
		Topic:     t,
		Publisher: b.ID,
		Payload:   append([]byte(nil), payload...),
		Validity:  validity,
		Remaining: validity,
	}
	e := b.put(ev, b.Sched.Now()+validity)
	b.Count.Published++
	b.rule.OnPublish(e)
	if b.covers(t) {
		b.deliver(ev)
	}
	b.start()
	return ev.ID, nil
}

func (b *Baseline[S]) deliver(ev event.Event) {
	b.Count.Delivered++
	if b.OnDeliver != nil {
		b.OnDeliver(ev)
	}
}

// HandleMessage feeds a received broadcast to the protocol's rule. A
// stopped instance and a message from the node itself change nothing.
func (b *Baseline[S]) HandleMessage(m event.Message) error {
	if b.stopped {
		return nil
	}
	switch v := m.(type) {
	case event.Heartbeat:
		if v.From != b.ID {
			b.rule.OnHeartbeat(v)
		}
	case event.IDList:
		if v.From != b.ID {
			b.rule.OnIDList(v)
		}
	case event.Events:
		if v.From != b.ID {
			b.rule.OnEvents(v)
		}
	default:
		return fmt.Errorf("proto: unknown message %T", m)
	}
	return nil
}

// Receive runs one received event copy through the shared path: count
// it, count it as a parasite when outside the subscriptions (and drop
// it unless keepParasites), count a duplicate or an expired copy,
// otherwise store it and deliver it if subscribed. It returns the
// stored entry (nil when the copy was dropped) and whether this call
// created it.
func (b *Baseline[S]) Receive(ev event.Event, now time.Duration, keepParasites bool) (e *Stored[S], fresh bool) {
	b.Count.EventsReceived++
	covered := b.covers(ev.Topic)
	if !covered {
		b.Count.Parasites++
		if !keepParasites {
			return nil, false
		}
	}
	i, ok := b.search(ev.ID)
	if ok {
		b.Count.Duplicates++
		return b.entries[i], false
	}
	if ev.Remaining <= 0 {
		b.Count.ExpiredDrops++
		return nil, false
	}
	e = b.insert(i, ev, now+ev.Remaining)
	if covered {
		b.deliver(ev)
	}
	return e, true
}

// Send broadcasts batch as one Events message carrying each event's
// remaining validity, addressed to the given receivers (none: everyone
// in range). An empty batch sends nothing.
func (b *Baseline[S]) Send(batch []*Stored[S], now time.Duration, to ...event.NodeID) {
	if len(batch) == 0 {
		return
	}
	events := make([]event.Event, len(batch))
	for i, e := range batch {
		events[i] = e.Ev.WithRemaining(e.ExpiresAt - now)
	}
	b.Transport.Broadcast(event.Events{From: b.ID, Events: events, Receivers: to})
	b.Count.EventMsgsSent++
	b.Count.EventsSent += uint64(len(events))
}

// Heartbeat broadcasts the subscription beacon a Neighbors table learns
// from; a protocol that keeps one registers it with Every. Baselines
// are oblivious to mobility, so the speed is reported unknown. No
// receiver writes a message, so one serves until Subs changes.
func (b *Baseline[S]) Heartbeat() {
	if b.heartbeat == nil {
		b.heartbeat = event.Heartbeat{From: b.ID, Subscriptions: b.Subs.Topics(), Speed: -1}
	}
	b.Transport.Broadcast(b.heartbeat)
	b.Count.HeartbeatsSent++
}

// HasEvent reports whether the store holds id.
func (b *Baseline[S]) HasEvent(id event.ID) bool {
	_, ok := b.search(id)
	return ok
}

// search returns id's position in the store (or its insertion point) and
// whether it is present.
func (b *Baseline[S]) search(id event.ID) (int, bool) {
	lo, hi := 0, len(b.ids)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if b.ids[m].Less(id) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(b.ids) && b.ids[lo] == id
}

// put stores ev, replacing an entry with the same id as a map would.
func (b *Baseline[S]) put(ev event.Event, expiresAt time.Duration) *Stored[S] {
	i, ok := b.search(ev.ID)
	if ok {
		b.entries[i] = &Stored[S]{Ev: ev, ExpiresAt: expiresAt}
		return b.entries[i]
	}
	return b.insert(i, ev, expiresAt)
}

// insert stores ev at position i, its id's insertion point.
func (b *Baseline[S]) insert(i int, ev event.Event, expiresAt time.Duration) *Stored[S] {
	e := &Stored[S]{Ev: ev, ExpiresAt: expiresAt}
	b.ids = slices.Insert(b.ids, i, ev.ID)
	b.entries = slices.Insert(b.entries, i, e)
	return e
}

// Prune deletes every stored entry drop accepts, asking in id order. The
// store never drops an entry on its own: how long an expired event is
// remembered is the protocol's retention rule.
func (b *Baseline[S]) Prune(drop func(*Stored[S]) bool) {
	n := 0
	for i, e := range b.entries {
		if !drop(e) {
			b.ids[n], b.entries[n] = b.ids[i], e
			n++
		}
	}
	clear(b.entries[n:])
	b.ids, b.entries = b.ids[:n], b.entries[:n]
}

// Valid returns the still-valid stored events ordered by id: the store
// is kept in id order, so this is a filter on now.
func (b *Baseline[S]) Valid(now time.Duration) []*Stored[S] {
	out := make([]*Stored[S], 0, len(b.entries))
	for _, e := range b.entries {
		if now < e.ExpiresAt {
			out = append(out, e)
		}
	}
	return out
}

// Neighbor is one heartbeat-learned peer with the per-peer state N a
// protocol attaches (gossip's presumed-received set).
type Neighbor[N any] struct {
	Subs  *topic.Set
	State N
	seen  time.Duration
}

// Neighbors is the neighbour table of a baseline that sends Heartbeats:
// rows are learned from received heartbeats and expire 2.5 heartbeat
// periods after the last one, mirroring the frugal protocol's horizon.
type Neighbors[N any] struct {
	TTL  time.Duration
	rows map[event.NodeID]*Neighbor[N]
}

// NewNeighbors returns an empty table for the given heartbeat period.
func NewNeighbors[N any](period time.Duration) *Neighbors[N] {
	return &Neighbors[N]{
		TTL:  time.Duration(2.5 * float64(period)),
		rows: make(map[event.NodeID]*Neighbor[N]),
	}
}

// Observe records h, creating the sender's row (zero State) if needed.
// A row whose subscriptions did not change keeps its set.
func (t *Neighbors[N]) Observe(h event.Heartbeat, now time.Duration) *Neighbor[N] {
	nb := t.rows[h.From]
	if nb == nil {
		nb = &Neighbor[N]{}
		t.rows[h.From] = nb
	}
	if nb.Subs == nil || !nb.Subs.EqualSlice(h.Subscriptions) {
		nb.Subs = topic.NewSet(h.Subscriptions...)
	}
	nb.seen = now
	return nb
}

// Get returns id's row, nil if unknown or expired.
func (t *Neighbors[N]) Get(id event.NodeID) *Neighbor[N] { return t.rows[id] }

// Prune drops the rows whose last heartbeat is older than TTL.
func (t *Neighbors[N]) Prune(now time.Duration) {
	for id, nb := range t.rows {
		if now-nb.seen > t.TTL {
			delete(t.rows, id)
		}
	}
}

// IDs returns the known neighbours in ascending id order, the
// deterministic walk order every rule uses.
func (t *Neighbors[N]) IDs() []event.NodeID {
	ids := make([]event.NodeID, 0, len(t.rows))
	for id := range t.rows {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}
