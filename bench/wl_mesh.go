package main

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/transport"
	"repro/pubsub"
)

// udp-mesh is the real-socket user path: eight pubsub nodes on
// 127.0.0.1 in a static full mesh, heartbeats fixed at 100 ms, every
// node subscribed to the one topic, a uniformly drawn publisher per
// event, a 256-byte payload and 2 s validity. internal/core does nearly
// all the CPU work (event-table churn against static neighbours, the
// opposite use of core from metro-slice). The same mesh is driven two
// ways.
//
// The measured (untraced) run is a closed loop: one generator keeps
// meshWindow events outstanding, an event completing when all seven
// subscribers have delivered it, and the end-to-end metrics are about
// one such event. Both cores stay busy, so the numbers follow what the
// program does per event, not how fast an idle virtual CPU wakes up.
//
// The traced run is an open loop: events fall due at seeded uniform
// instants at 100 events/s whatever the mesh is doing, and every
// delivery is timed from the event's due time, so a stall charges the
// events queued behind it, with exact (sorted-sample) quantiles. The
// window is cut into 1 s slices; the reported median and tail are the
// medians, over the slices, of each slice's own median and p90 (700
// deliveries, 70 beyond p90). These latencies are per-layer metrics
// without a bound, because at a tenth of two cores they are made of
// wake-ups: each delivery crosses three parked goroutines, and on a
// shared 2-vCPU VM the time to wake a halted virtual CPU is the host's,
// not the program's: ten runs of the same code had their middle half 15
// to 47% of the median apart, against 3 to 4% in the closed loop. The
// tail stops at p90 because p99 reads a timer wake-up that is 3 ms late
// once in a hundred. Sizing runs showed 12 and 16 nodes repeat three to
// four times worse; do not grow it.
//
// Both loops bound the event table (meshTable): core never forgets an
// expired event otherwise, every handler walks the whole table, and the
// cost of an event would grow with the number published before it.
//
// Loopback, not a real link.

const (
	meshNodes     = 8
	meshPeers     = meshNodes - 1
	meshRate      = 100.0 // open loop: events per second
	meshPayload   = 256
	meshValidity  = 2 * time.Second
	meshHeartbeat = 100 * time.Millisecond
	// meshTable is each node's event-table capacity: just above the 200
	// events that are inside their validity in the open loop, so there an
	// insert evicts an expired event, and in the closed loop (where nothing
	// lives long enough to expire) the paper's gc score picks the victim.
	// Either way a handler walks a table of this size, from the first
	// measured event to the last.
	meshTable = 256
	// meshWindow is how many events the closed loop keeps outstanding:
	// enough that a handler is always runnable on both cores while the
	// generator publishes, few enough that no ring is ever near full.
	meshWindow = 4
	// meshStall is how long the closed loop waits without a completion
	// before it writes the outstanding events off as lost.
	meshStall = meshValidity
	// meshMaxRate sizes the closed loop's event list (ten times today's
	// rate); a run that gets through all of it stops early and says so.
	meshMaxRate = 5000
	// meshWarm is how long open-loop traffic runs before the measurement
	// starts: one validity period, after which every node's table holds
	// the steady-state number of live events. The closed loop warms up
	// with two tables' worth of events instead.
	meshWarm = meshValidity
	// meshNGC is the neighbourhood-GC multiplier: a neighbour is dropped
	// after 10 heartbeats (1 s) of silence instead of the default 2.5
	// (250 ms). On a shared host one node's heartbeats do go missing for
	// a quarter of a second; every peer then drops it, re-learns it on its
	// next heartbeat with an empty "has" set and pushes it every live
	// event in one datagram, seven peers at once, which overflows the
	// 208 kB socket buffers and takes fresh events with it (161 pairs lost
	// in one run in forty). The mesh is static: tolerate the silence.
	meshNGC = 10
	// meshSlice is the length of one slice of the open loop's window, and
	// meshTail the percentile reported as the tail of each slice.
	meshSlice = time.Second
	meshTail  = 0.9
	// meshClosedTail is the tail percentile of the closed loop's
	// completion latencies.
	meshClosedTail = 0.99
	// meshDiscovery bounds set-up; meshLate bounds how late the open-loop
	// generator may run at the 99th percentile of a typical (median)
	// slice before the latencies it timed are about the generator and
	// the host's scheduling, not the mesh.
	meshDiscovery = 5 * time.Second
	meshLate      = 5 * time.Millisecond
)

var meshTopic = pubsub.MustParseTopic(".bench.mesh")

// meshEvent is one publication of the generated input.
type meshEvent struct {
	due       time.Duration // open loop: from the start of traffic
	publisher int
}

// meshSchedule is the generated input: immutable once built, and built
// before any node exists, so every node goroutine may read it.
type meshSchedule struct {
	events   []meshEvent
	measured int // index of the first measured event; the ones before it warm up
	payload  []byte
	// Open loop only.
	warm   time.Duration
	slices int // whole slices in the measured window (at least one)
	slice  time.Duration
}

// sliceOf is the slice event seq falls due in, or -1 outside the
// measured slices (warm-up, or the remainder after the last whole one).
func (s *meshSchedule) sliceOf(seq int) int {
	if seq < s.measured {
		return -1
	}
	if i := int((s.events[seq].due - s.warm) / s.slice); i < s.slices {
		return i
	}
	return -1
}

// subscribers is the set of nodes event seq must reach, one bit a node:
// everyone but its publisher.
func (s *meshSchedule) subscribers(seq int) uint32 {
	return (1<<meshNodes - 1) &^ (1 << s.events[seq].publisher)
}

// newMeshClosedSchedule draws the publishers of the closed loop: warm
// events to fill the tables, then as many as the fastest mesh could get
// through in the measured time.
func newMeshClosedSchedule(seed int64, warm int, measure time.Duration) *meshSchedule {
	rng := rand.New(rand.NewSource(seed))
	s := &meshSchedule{payload: make([]byte, meshPayload), measured: warm}
	rng.Read(s.payload)
	s.events = make([]meshEvent, warm+int(meshMaxRate*measure.Seconds())+meshWindow)
	for i := range s.events {
		s.events[i].publisher = rng.Intn(meshNodes)
	}
	return s
}

func newMeshOpenSchedule(seed int64, warm, measure time.Duration) *meshSchedule {
	rng := rand.New(rand.NewSource(seed))
	s := &meshSchedule{payload: make([]byte, meshPayload), warm: warm, slice: meshSlice}
	if s.slices = int(measure / meshSlice); s.slices == 0 {
		s.slices, s.slice = 1, measure
	}
	rng.Read(s.payload)
	// A Poisson process conditioned on its count: exactly rate x time
	// arrivals at independent uniform instants, so every seed is the same
	// amount of work.
	total := warm + measure
	due := make([]float64, int(meshRate*total.Seconds()))
	for i := range due {
		due[i] = rng.Float64() * float64(total)
	}
	sort.Float64s(due)
	s.measured = len(due)
	for i, d := range due {
		if s.measured == len(due) && time.Duration(d) >= warm {
			s.measured = i
		}
		s.events = append(s.events, meshEvent{due: time.Duration(d), publisher: rng.Intn(meshNodes)})
	}
	return s
}

type meshNode struct {
	id   int
	node *pubsub.Node
	udp  *transport.UDP // traced runs own the transport; nil otherwise
	tr   *nodeTracer    // traced runs only
	// lat holds this node's open-loop delivery latencies in ms, by slice.
	// OnDeliver runs under the node's protocol lock, so appends never
	// overlap.
	lat [][]float64
}

// meshDone says that the last subscriber of event seq delivered it.
type meshDone struct {
	seq int
	at  time.Time
}

type mesh struct {
	sched *meshSchedule
	nodes []*meshNode
	epoch time.Time
	// got has, per event, bit i set when node i delivered it in time;
	// meshRetired marks an event the closed loop has written off.
	got  []atomic.Uint32
	errs atomic.Int64

	// Closed loop only: completions, with room for every outstanding event
	// and one written off in the instant it completed, so a handler never
	// blocks on it.
	done chan meshDone

	// Open loop (traced runs) only.
	startNS atomic.Int64 // start of traffic, ns since epoch; 0 before
	spanIDs atomic.Uint64
	lastHB  [meshNodes]atomic.Int64 // ns since epoch when node i's last heartbeat left Broadcast
	transit [meshNodes][]float64    // per receiver, heartbeat transit in us
}

const meshRetired = 1 << 31

func (m *mesh) onDeliver(n *meshNode) func(pubsub.Event) {
	return func(ev pubsub.Event) {
		if int(ev.Publisher) == n.id || len(ev.Payload) < 8 {
			return // the publisher's own copy is not a delivery
		}
		seq := int(binary.BigEndian.Uint64(ev.Payload))
		if seq >= len(m.sched.events) {
			return
		}
		if m.done != nil {
			old := m.got[seq].Or(1 << n.id)
			if all := m.sched.subscribers(seq); old != all && old|1<<n.id == all {
				m.done <- meshDone{seq: seq, at: time.Now()}
			}
			return
		}
		if seq < m.sched.measured {
			return
		}
		due := time.Duration(m.startNS.Load()) + m.sched.events[seq].due
		lat := time.Since(m.epoch) - due
		if i := m.sched.sliceOf(seq); i >= 0 {
			n.lat[i] = append(n.lat[i], lat.Seconds()*1e3)
		}
		if lat <= meshValidity {
			m.got[seq].Or(1 << n.id)
		}
	}
}

func (m *mesh) config(n *meshNode, seed int64) pubsub.Config {
	return pubsub.Config{
		ID:           pubsub.NodeID(n.id),
		HBDelay:      meshHeartbeat,
		HBLowerBound: meshHeartbeat,
		HBUpperBound: meshHeartbeat,
		HB2NGC:       meshNGC,
		MaxEvents:    meshTable,
		Rand:         rand.New(rand.NewSource(seed*1009 + int64(n.id))),
		OnDeliver:    m.onDeliver(n),
	}
}

// tracedTransport is the pubsub.Transport a traced node broadcasts
// through: a span around transport.UDP.Broadcast (marshal + ring push).
type tracedMeshTransport struct {
	m *mesh
	n *meshNode
}

func (t tracedMeshTransport) Broadcast(msg pubsub.Message) {
	t.n.tr.child("transport.broadcast", messageEvent(msg), func() { t.n.udp.Broadcast(msg) })
	if msg.Kind() == event.KindHeartbeat {
		t.m.lastHB[t.n.id].Store(t.n.tr.now())
	}
}

// tracedHandler is the transport handler of a traced node: transit is
// read at entry (heartbeats only: one in flight per sender, so the
// sender's last Broadcast return is this datagram's), then the protocol
// handler runs inside an entry-point span named after the message kind.
func (m *mesh) tracedHandler(n *meshNode) func(event.Message) {
	return func(msg event.Message) {
		if hb, ok := msg.(event.Heartbeat); ok && int(hb.From) < meshNodes {
			if sent := m.lastHB[hb.From].Load(); sent > 0 {
				if d := n.tr.now() - sent; d >= 0 && d < int64(meshHeartbeat/2) {
					m.transit[n.id] = append(m.transit[n.id], float64(d)/1e3)
				}
			}
		}
		s := n.tr.enter()
		if err := n.node.HandleMessage(msg); err != nil {
			m.errs.Add(1)
		}
		n.tr.leave(s, "core.handle_"+msg.Kind().String(), messageEvent(msg))
	}
}

func newMesh(sched *meshSchedule, seed int64, traced bool) (*mesh, error) {
	m := &mesh{sched: sched, epoch: time.Now(), got: make([]atomic.Uint32, len(sched.events))}
	if !traced {
		m.done = make(chan meshDone, 2*meshWindow)
	}
	for i := 0; i < meshNodes; i++ {
		n := &meshNode{id: i, lat: make([][]float64, sched.slices)}
		m.nodes = append(m.nodes, n)
		var err error
		if !traced {
			n.node, err = pubsub.NewUDPNodeTuned(m.config(n, seed), "127.0.0.1:0", nil, pubsub.UDPTuning{})
		} else {
			n.tr = newNodeTracer(uint32(i), m.epoch, &m.spanIDs)
			n.udp, err = transport.NewUDP(transport.UDPConfig{
				Listen:  "127.0.0.1:0",
				Handler: m.tracedHandler(n),
				OnError: func(error) { m.errs.Add(1) },
			})
			if err == nil {
				n.node, err = pubsub.NewNode(m.config(n, seed), tracedMeshTransport{m: m, n: n})
			}
		}
		if err != nil {
			m.close()
			return nil, err
		}
		if err := n.node.Subscribe(meshTopic); err != nil {
			m.close()
			return nil, err
		}
	}
	for _, a := range m.nodes {
		for _, b := range m.nodes {
			if a == b {
				continue
			}
			var err error
			if traced {
				err = a.udp.AddPeer(b.udp.LocalAddr().String())
			} else {
				err = a.node.AddPeer(b.node.LocalAddr())
			}
			if err != nil {
				m.close()
				return nil, err
			}
		}
	}
	for _, n := range m.nodes {
		if n.udp != nil {
			n.udp.Start()
		}
	}
	return m, nil
}

func (m *mesh) close() {
	for _, n := range m.nodes {
		if n.node != nil {
			n.node.Close()
		}
		if n.udp != nil {
			n.udp.Close()
		}
	}
}

// discovered waits until every node lists every other as a neighbour.
func (m *mesh) discovered() bool {
	deadline := time.Now().Add(meshDiscovery)
	for time.Now().Before(deadline) {
		all := true
		for _, n := range m.nodes {
			if len(n.node.Neighbors()) != meshPeers {
				all = false
				break
			}
		}
		if all {
			return true
		}
		time.Sleep(500 * time.Microsecond)
	}
	return false
}

func (m *mesh) stats() transport.Stats {
	each := make([]transport.Stats, len(m.nodes))
	for i, n := range m.nodes {
		if n.udp != nil {
			each[i] = n.udp.Stats()
		} else {
			each[i] = n.node.TransportStats()
		}
	}
	return sumStats(each)
}

func (m *mesh) spans() spanTable {
	var t spanTable
	for _, n := range m.nodes {
		t.merge(n.tr.table())
	}
	return t
}

// publish sends scheduled event seq from its publisher.
func (m *mesh) publish(seq int, buf []byte) error {
	n := m.nodes[m.sched.events[seq].publisher]
	binary.BigEndian.PutUint64(buf, uint64(seq))
	if n.tr == nil {
		_, err := n.node.Publish(meshTopic, buf, meshValidity)
		return err
	}
	s := n.tr.enter()
	id, err := n.node.Publish(meshTopic, buf, meshValidity)
	n.tr.leave(s, "pubsub.publish", id)
	return err
}

// meshClosed is what one closed-loop stretch measured.
type meshClosed struct {
	next      int       // first event not published
	completed int       // events all seven subscribers delivered
	lost      int       // events written off
	latencies []float64 // ms from Publish to the last delivery, one per completed event
	wall, cpu float64
}

// driveClosed publishes events from first on, keeping meshWindow of them
// outstanding, until stop reports true (checked between completions) or
// the generated events run out; then it lets the outstanding ones finish.
func (m *mesh) driveClosed(first int, stop func(completed int) bool) (meshClosed, error) {
	sched := m.sched
	// Room for every sample up front: growing by doubling would put copies
	// of the whole sample into the peak RSS, a different number of them
	// from run to run.
	r := meshClosed{next: first, latencies: make([]float64, 0, len(sched.events)-first)}
	buf := append([]byte(nil), sched.payload...)
	out := make(map[int]time.Time, meshWindow) // outstanding events and when each was published
	win := startWindow()
	stall := time.NewTimer(meshStall)
	defer stall.Stop()
	for stopping := false; ; {
		for !stopping && len(out) < meshWindow && r.next < len(sched.events) {
			t0 := time.Now()
			if err := m.publish(r.next, buf); err != nil {
				return r, fmt.Errorf("udp-mesh: publish: %w", err)
			}
			out[r.next] = t0
			r.next++
		}
		if len(out) == 0 {
			break
		}
		stall.Reset(meshStall)
		select {
		case d := <-m.done:
			if t0, ok := out[d.seq]; ok {
				delete(out, d.seq)
				r.latencies = append(r.latencies, d.at.Sub(t0).Seconds()*1e3)
				r.completed++
			}
		case <-stall.C:
			// Nothing completed in a whole validity period: what is out will
			// not arrive. Retiring an event keeps a straggler from completing
			// it after it was counted as lost.
			for seq := range out {
				m.got[seq].Or(meshRetired)
				delete(out, seq)
				r.lost++
			}
		}
		stopping = stopping || stop(r.completed) || r.next == len(sched.events)
	}
	r.wall, r.cpu = win.wall(), win.cpu()
	return r, nil
}

// meshTraffic is what the open-loop generator recorded while it drove
// the mesh.
type meshTraffic struct {
	late      [][]float64 // by slice: ms from each event's due time to the start of its publish
	live      []float64   // events inside their validity at each due time
	wall, cpu float64     // over the measured window
	base, end transport.Stats
	mem0      memSnap
	mem1      memSnap
	baseSpans spanTable
	queues    *queueSampler
}

// driveOpen generates the open-loop load from one goroutine: it sleeps
// until each event is due, publishes it from its publisher, and keeps
// the counters of the measured window.
func (m *mesh) driveOpen(total time.Duration) (*meshTraffic, error) {
	sched := m.sched
	t := &meshTraffic{late: make([][]float64, sched.slices)}
	var win window
	buf := append([]byte(nil), sched.payload...)
	start := time.Now()
	m.startNS.Store(int64(start.Sub(m.epoch)))
	for seq, e := range sched.events {
		if seq == sched.measured {
			win, t.base, t.mem0, t.baseSpans = startWindow(), m.stats(), readMem(), m.spans()
			var udps []*transport.UDP
			for _, n := range m.nodes {
				udps = append(udps, n.udp)
			}
			t.queues = startQueueSampler(udps)
		}
		due := start.Add(e.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if i := sched.sliceOf(seq); i >= 0 {
			t.late[i] = append(t.late[i], time.Since(due).Seconds()*1e3)
			t.live = append(t.live, float64(sched.liveAt(seq)))
		}
		if err := m.publish(seq, buf); err != nil {
			if t.queues != nil {
				t.queues.stop()
			}
			return nil, fmt.Errorf("udp-mesh: publish: %w", err)
		}
	}
	if d := time.Until(start.Add(total)); d > 0 {
		time.Sleep(d)
	}
	t.wall, t.cpu = win.wall(), win.cpu()
	t.end, t.mem1 = m.stats(), readMem()
	t.queues.stop()
	return t, nil
}

// delivered counts the (event, subscriber) pairs of events [from, to)
// that were delivered in time.
func (m *mesh) delivered(from, to int) int64 {
	var n int64
	for seq := from; seq < to; seq++ {
		n += int64(bits.OnesCount32(m.got[seq].Load() & m.sched.subscribers(seq)))
	}
	return n
}

// settle gives the transport counters a moment to catch up with the
// receivers: a writer counts a batch as sent only after the kernel took
// all of it, which on a busy host can be well after its datagrams were
// handled.
func (m *mesh) settle() transport.Stats {
	total := m.stats()
	for deadline := time.Now().Add(time.Second); total.DatagramsSent < total.DatagramsReceived+total.RecvDropped && time.Now().Before(deadline); total = m.stats() {
		time.Sleep(time.Millisecond)
	}
	return total
}

// check is what every udp-mesh run asserts once its traffic has ended:
// every (event, subscriber) pair of events [from, to) delivered, no
// errors, conservation, no ring drops.
func (m *mesh) check(o *outcome, from, to int, total transport.Stats) {
	o.attempted = int64(to-from) * meshPeers
	o.failed = o.attempted - m.delivered(from, to)
	if o.failed > 0 {
		o.problem("udp-mesh: %d of %d (event, subscriber) pairs not delivered within %v (transport totals: %+v)", o.failed, o.attempted, meshValidity, total)
		for seq := from; seq < to; seq++ {
			if missing := m.sched.subscribers(seq) &^ m.got[seq].Load(); missing != 0 {
				o.problem("udp-mesh: event %d (published by node %d) missed at nodes %08b", seq, m.sched.events[seq].publisher, missing)
			}
		}
	}
	if n := m.errs.Load(); n > 0 {
		o.problem("udp-mesh: %d transport or handler errors", n)
	}
	// Heartbeats never stop, so a few datagrams are always in flight.
	checkTransport(o, "udp-mesh", total, 64)
	if total.Dropped+total.RecvDropped > 0 {
		o.problem("udp-mesh: %d send and %d receive ring drops with at most %d events outstanding", total.Dropped, total.RecvDropped, meshWindow)
	}
}

func runMesh(c runCfg) (*outcome, error) {
	o := newOutcome()
	measure := time.Duration(c.seconds * float64(time.Second))
	var sched *meshSchedule
	switch {
	case !c.trace && c.quick:
		sched = newMeshClosedSchedule(c.seed, meshTable/4, measure)
	case !c.trace:
		sched = newMeshClosedSchedule(c.seed, 2*meshTable, measure)
	case c.quick:
		sched = newMeshOpenSchedule(c.seed, 200*time.Millisecond, measure)
	default:
		sched = newMeshOpenSchedule(c.seed, meshWarm, measure)
	}
	if sched.measured == len(sched.events) {
		return nil, fmt.Errorf("udp-mesh: no event falls due in %v", measure)
	}

	var m *mesh
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if m != nil {
			m.close()
		}
		t0 := time.Now()
		var err error
		if m, err = newMesh(sched, c.seed+int64(i), c.trace); err != nil {
			return nil, fmt.Errorf("udp-mesh: %w", err)
		}
		if !m.discovered() {
			m.close()
			o.invalid = fmt.Sprintf("udp-mesh: discovery did not complete in %v", meshDiscovery)
			return o, nil
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer m.close()
	if c.trace {
		return o, m.runOpen(c, o, sched.warm+measure)
	}
	o.metrics["setup_s"] = median(setups)
	return o, m.runClosed(c, o)
}

// runClosed is the measured run: the closed loop and the end-to-end
// metrics, about one event delivered to all seven subscribers.
func (m *mesh) runClosed(c runCfg, o *outcome) error {
	sched := m.sched
	warm, err := m.driveClosed(0, func(done int) bool { return done >= sched.measured })
	if err != nil {
		return err
	}
	if warm.lost > 0 {
		o.invalid = fmt.Sprintf("udp-mesh: warm-up lost %d events", warm.lost)
		return nil
	}
	t0 := time.Now()
	r, err := m.driveClosed(warm.next, func(int) bool { return time.Since(t0).Seconds() >= c.seconds })
	if err != nil {
		return err
	}
	total := m.settle()
	m.close() // after this no handler runs
	if r.completed == 0 {
		o.invalid = "udp-mesh: no event completed"
		return nil
	}
	m.check(o, warm.next, r.next, total)
	if r.next == len(sched.events) {
		o.note("udp-mesh: all %d generated events published before the time was up; raise meshMaxRate", len(sched.events))
	}

	sort.Float64s(r.latencies)
	tail, _ := highestPercentile(len(r.latencies))
	tail = min(tail, meshClosedTail)
	o.note("udp-mesh: %d events completed, %d lost (%.0f events/s, %.0f deliveries per CPU-second), window %d; tail is p%g of the completion latencies",
		r.completed, r.lost, float64(r.completed)/r.wall, float64(r.completed)*meshPeers/r.cpu, meshWindow, tail*100)
	o.metrics["unit_wall_ms"] = quantile(r.latencies, 0.5)
	o.metrics["unit_wall_tail_ms"] = quantile(r.latencies, tail)
	o.metrics["unit_cpu_ms"] = r.cpu / float64(r.completed) * 1e3
	o.metrics["peak_rss_mb"] = peakRSSMB()
	return nil
}

// runOpen is the traced run: the open loop and the per-layer metrics.
func (m *mesh) runOpen(c runCfg, o *outcome, total time.Duration) error {
	sched := m.sched
	t, err := m.driveOpen(total)
	if err != nil {
		return err
	}

	// Drain: the last events may still be travelling. Stop as soon as
	// every pair is in, or when the last event's validity has run out.
	measuredEvents := len(sched.events) - sched.measured
	pairs := int64(measuredEvents) * meshPeers
	for deadline := time.Now().Add(meshValidity); m.delivered(sched.measured, len(sched.events)) < pairs && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	totals := m.settle()
	spans := m.spans()
	m.close() // after this no handler runs: the per-node samples are safe to read

	// Per-slice quantiles; the run reports their medians over the slices.
	var p50s, tails, lates []float64
	tail, timed := 0.0, 0
	for i := 0; i < sched.slices; i++ {
		var lat []float64
		for _, n := range m.nodes {
			lat = append(lat, n.lat[i]...)
		}
		if len(lat) == 0 || len(t.late[i]) == 0 {
			continue
		}
		sort.Float64s(lat)
		sort.Float64s(t.late[i])
		tail, _ = highestPercentile(len(lat))
		tail = min(tail, meshTail)
		p50s = append(p50s, quantile(lat, 0.5))
		tails = append(tails, quantile(lat, tail))
		lates = append(lates, quantile(t.late[i], 0.99))
		timed += len(lat)
	}
	if len(p50s) == 0 {
		o.invalid = "udp-mesh: nothing was delivered"
		return nil
	}
	lateP99 := median(lates)
	if lateP99 > meshLate.Seconds()*1e3 {
		o.invalid = fmt.Sprintf("udp-mesh: the generator ran %.2f ms late at the p99 of a typical slice (limit %v)", lateP99, meshLate)
		if !c.lastAttempt {
			return nil
		}
		// A second late run is the host, not chance: report what was
		// measured and say so, because a benchmark that fails on a busy
		// host cannot be used on one.
		o.note("%s; reported anyway after a re-run", o.invalid)
		o.invalid = ""
	}
	m.check(o, sched.measured, len(sched.events), totals)

	delta := statsSince(t.end, t.base)
	o.note("udp-mesh: open loop, %d events at %g/s; %d deliveries timed from their due time in %d slices of %v, tail is each slice's p%g; generator late p99 %.3f ms; %.0f datagrams per CPU-second",
		measuredEvents, meshRate, timed, len(p50s), sched.slice, tail*100, lateP99, float64(delta.DatagramsReceived)/t.cpu)

	mt := o.metrics
	mt["pubsub.deliver_p50_ms"] = median(p50s)
	mt["pubsub.deliver_p90_ms"] = median(tails)
	spans.minus(t.baseSpans)
	busy := 0.0
	for name, a := range spans.Agg {
		switch name {
		case "pubsub.publish":
			mt["pubsub.publish_us"] = a.perCall(1e3)
		case "transport.broadcast":
			mt["transport.broadcast_us"] = a.perCall(1e3)
		case "core.handle_heartbeat":
			mt["core.handle_heartbeat_us"] = a.perCall(1e3)
			busy += a.totalSeconds()
		case "core.handle_idlist":
			busy += a.totalSeconds()
		case "core.handle_events":
			mt["core.handle_events_us"] = a.perCall(1e3)
			busy += a.totalSeconds()
		}
	}
	mt["pubsub.handler_busy_ratio"] = busy / (t.wall * meshNodes)
	var transit []float64
	for i := range m.transit {
		transit = append(transit, m.transit[i]...)
	}
	sort.Float64s(transit)
	if len(transit) > 0 {
		mt["transport.transit_p50_us"] = quantile(transit, 0.5)
		mt["transport.transit_p99_us"] = quantile(transit, 0.99)
	}
	transportCounts(mt, delta, totals, t.wall, t.cpu)
	t.queues.report(mt)
	sort.Float64s(t.live)
	mt["core.live_events_p50"] = quantile(t.live, 0.5)
	mt["bench.gen_late_p99_ms"] = lateP99
	mt["runtime.gc_cpu_ratio"] = t.mem1.gcFraction
	mt["transport.mallocs_per_dgram"] = float64(t.mem1.mallocs-t.mem0.mallocs) / float64(delta.DatagramsReceived)
	coreMeshKernels(c, o)
	return spans.write(spansPath(c, "udp-mesh"))
}

// liveAt is how many scheduled events are inside their validity when
// event seq falls due: what every node's table should hold.
func (s *meshSchedule) liveAt(seq int) int {
	now, n := s.events[seq].due, 0
	for i := seq; i >= 0 && now-s.events[i].due < meshValidity; i-- {
		n++
	}
	return n
}
