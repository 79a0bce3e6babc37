package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/topic"
	"repro/internal/transport"
)

// The udp-wire workloads drive eight bare transport.UDP endpoints on
// 127.0.0.1 in a full mesh, with no protocol on top: the transport and
// the event codec do all the work and internal/core none. One generator
// goroutine keeps wireWindow broadcasts outstanding (closed loop),
// rotating the sender; a broadcast completes when all seven peers'
// handlers have counted it. The window stays far below the 512-slot
// rings, so nothing is dropped by construction.
//
// The two workloads use the same layer two ways. udp-wire-small sends
// the smallest datagram the codec can produce (a heartbeat without
// subscriptions), so per-packet cost decides; udp-wire-large sends an
// event push with one 1200-byte payload, so per-byte cost (marshal,
// copies, kernel) joins in. A gain for one that costs the other shows.
//
// Loopback, not a real link.

const (
	wireNodes  = 8
	wirePeers  = wireNodes - 1
	wireWindow = 32
	// wireSlots is the size of the completion table: a power of two
	// above the window, so a slot is never reused while its previous
	// broadcast can still be in flight.
	wireSlots = 64
	// wireStall is how long the generator waits without any completion
	// before it looks for lost datagrams: loopback delivers in well under
	// a millisecond. If the transport's own counters account for every
	// datagram (received or dropped), the outstanding window is written
	// off at once. If some are unaccounted they are either lost in the
	// kernel or still on their way through a process the host has frozen
	// (a shared host does that for 100 ms at a time), so the generator
	// keeps waiting, up to wireGiveUp without progress.
	wireStall  = 50 * time.Millisecond
	wireGiveUp = time.Second
	// wireSamples is the room made for completion latencies before the
	// measurement: 15 s at today's rate fills two thirds of it.
	wireSamples = 1 << 21
	// wireWarm is the set-up traffic: one send ring's worth of
	// broadcasts per endpoint, so every ring slot buffer exists before
	// the measurement starts.
	wireWarm = wireNodes * transport.DefaultSendQueue
)

type wireSpec struct {
	name    string
	payload int // 0: heartbeat; otherwise an event push with this payload size
}

var (
	wireSmall = wireSpec{name: "udp-wire-small"}
	wireLarge = wireSpec{name: "udp-wire-large", payload: 1200}
)

// wireSlot tracks one outstanding broadcast.
type wireSlot struct {
	seq    atomic.Uint64 // sequence number the slot currently stands for
	count  atomic.Int32  // peers that have handled it
	sentNS atomic.Int64  // when Broadcast returned (traced runs: transit base)
}

type wireDone struct {
	seq uint64
	at  time.Time
}

type wireMesh struct {
	spec   wireSpec
	nodes  []*transport.UDP
	slots  [wireSlots]wireSlot
	done   chan wireDone // sized to the window: a completion never blocks a handler
	stale  atomic.Int64  // datagrams of written-off broadcasts that arrived late
	errs   atomic.Int64  // transport OnError calls
	events [wireNodes][]event.Event

	// Traced runs only.
	epoch   time.Time
	transit [wireNodes][]int64 // per receiver, ns from Broadcast return to handler entry
}

func wireSeq(m event.Message) (uint64, bool) {
	switch v := m.(type) {
	case event.Heartbeat:
		return uint64(v.Speed), true
	case event.Events:
		if len(v.Events) == 1 {
			return v.Events[0].ID.Lo, true
		}
	}
	return 0, false
}

func (w *wireMesh) handler(node int, traced bool) func(event.Message) {
	return func(m event.Message) {
		var entry int64
		if traced {
			entry = int64(time.Since(w.epoch))
		}
		seq, ok := wireSeq(m)
		if !ok {
			w.errs.Add(1)
			return
		}
		s := &w.slots[seq%wireSlots]
		if s.seq.Load() != seq {
			w.stale.Add(1)
			return
		}
		if traced {
			if sent := s.sentNS.Load(); sent > 0 && entry >= sent {
				w.transit[node] = append(w.transit[node], entry-sent)
			}
		}
		if s.count.Add(1) == wirePeers {
			w.done <- wireDone{seq: seq, at: time.Now()}
		}
	}
}

func newWireMesh(spec wireSpec, seed int64, traced bool) (*wireMesh, error) {
	w := &wireMesh{spec: spec, done: make(chan wireDone, wireWindow), epoch: time.Now()}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < wireNodes; i++ {
		u, err := transport.NewUDP(transport.UDPConfig{
			Listen:  "127.0.0.1:0",
			Handler: w.handler(i, traced),
			OnError: func(error) { w.errs.Add(1) },
		})
		if err != nil {
			w.close()
			return nil, err
		}
		w.nodes = append(w.nodes, u)
		if spec.payload > 0 {
			payload := make([]byte, spec.payload)
			rng.Read(payload)
			w.events[i] = []event.Event{{
				Topic:     topic.MustParse(".bench.wire"),
				Publisher: event.NodeID(i),
				Payload:   payload,
				Validity:  time.Minute,
				Remaining: time.Minute,
			}}
		}
	}
	for i, u := range w.nodes {
		for j, p := range w.nodes {
			if i != j {
				if err := u.AddPeer(p.LocalAddr().String()); err != nil {
					w.close()
					return nil, err
				}
			}
		}
	}
	for _, u := range w.nodes {
		u.Start()
	}
	return w, nil
}

func (w *wireMesh) close() {
	for _, u := range w.nodes {
		u.Close()
	}
}

// send issues broadcast seq from its round-robin sender.
func (w *wireMesh) send(seq uint64, traced bool, bcast *spanAgg) time.Time {
	s := &w.slots[seq%wireSlots]
	s.count.Store(0)
	s.sentNS.Store(0)
	s.seq.Store(seq)
	from := int(seq % wireNodes)
	var m event.Message
	if w.spec.payload == 0 {
		m = event.Heartbeat{From: event.NodeID(from), Speed: float64(seq)}
	} else {
		// Broadcast marshals before it returns, so the sender's one
		// event can be re-stamped for every broadcast.
		w.events[from][0].ID = event.ID{Hi: 1, Lo: seq}
		m = event.Events{From: event.NodeID(from), Events: w.events[from]}
	}
	t0 := time.Now()
	w.nodes[from].Broadcast(m)
	if traced {
		ret := time.Since(w.epoch)
		s.sentNS.Store(int64(ret))
		bcast.Calls++
		bcast.TotalNS += int64(time.Since(t0))
	}
	return t0
}

// wireRun is what one closed-loop stretch measured.
type wireRun struct {
	completed  int64
	writtenOff int64     // datagrams of broadcasts given up on
	latencies  []float64 // ms, one per completed broadcast
	wall, cpu  float64
	bcast      spanAgg
}

// drive keeps the window full until stop reports true (checked between
// completions), then lets the outstanding broadcasts finish.
func (w *wireMesh) drive(first uint64, traced bool, expect int, stop func(completed int64) bool) wireRun {
	// Room for the expected samples up front: growing by doubling would
	// put copies of the whole sample into the peak RSS, a different number
	// of them from run to run.
	r := wireRun{latencies: make([]float64, 0, expect)}
	// open is the generator's view of each slot: the broadcast it holds
	// and when it was sent, or nothing.
	var open [wireSlots]struct {
		busy   bool
		seq    uint64
		sentAt time.Time
	}
	next, outstanding := first, 0
	// writeOff gives up on the broadcast in slot i. Retiring the slot's
	// sequence number makes late arrivals count as stale instead of
	// corrupting the slot's next broadcast.
	writeOff := func(i uint64) {
		s := &w.slots[i]
		s.seq.Store(math.MaxUint64)
		r.writtenOff += int64(wirePeers) - int64(s.count.Load())
		open[i].busy = false
		outstanding--
	}
	win := startWindow()
	progress := time.Now()
	stall := time.NewTimer(wireStall)
	defer stall.Stop()
	stopping := false
	for {
		// A slot whose previous broadcast is still out (its sender's
		// writer has not run yet while others raced ahead) holds the
		// generator back, so sequence numbers in flight span less than
		// wireSlots and a slot is never reused early.
		for !stopping && outstanding < wireWindow && !open[next%wireSlots].busy {
			i := next % wireSlots
			open[i].busy, open[i].seq, open[i].sentAt = true, next, w.send(next, traced, &r.bcast)
			next++
			outstanding++
		}
		if outstanding == 0 {
			break
		}
		stall.Reset(wireStall)
		select {
		case d := <-w.done:
			i := d.seq % wireSlots
			if !open[i].busy || open[i].seq != d.seq {
				break // completed in the instant it was written off
			}
			r.latencies = append(r.latencies, d.at.Sub(open[i].sentAt).Seconds()*1e3)
			open[i].busy = false
			r.completed++
			outstanding--
			progress = time.Now()
		case <-stall.C:
			if t := w.totals(); time.Since(progress) < wireGiveUp &&
				t.DatagramsReceived+t.RecvDropped+t.DecodeErrors+t.Dropped*wirePeers < next*wirePeers {
				break // datagrams still unaccounted: keep waiting
			}
			// A broadcast all seven peers have counted is complete, not
			// lost: its completion is in the channel or about to be (a
			// frozen process wakes its timers first). Only the others go.
			for i := range open {
				if open[i].busy && w.slots[i].count.Load() < wirePeers {
					writeOff(uint64(i))
				}
			}
		}
		if !stopping && stop(r.completed) {
			stopping = true
		}
	}
	r.wall, r.cpu = win.wall(), win.cpu()
	return r
}

// sumStats adds up the counters of several endpoints (the fields the
// benchmark reads).
func sumStats(each []transport.Stats) transport.Stats {
	var t transport.Stats
	for _, s := range each {
		t.DatagramsSent += s.DatagramsSent
		t.DatagramsReceived += s.DatagramsReceived
		t.DecodeErrors += s.DecodeErrors
		t.SendErrors += s.SendErrors
		t.Dropped += s.Dropped
		t.RecvDropped += s.RecvDropped
		t.MmsgSends += s.MmsgSends
		t.MmsgRecvs += s.MmsgRecvs
	}
	return t
}

// statsSince is the traffic counted between two snapshots.
func statsSince(end, base transport.Stats) transport.Stats {
	end.DatagramsSent -= base.DatagramsSent
	end.DatagramsReceived -= base.DatagramsReceived
	end.MmsgSends -= base.MmsgSends
	end.MmsgRecvs -= base.MmsgRecvs
	return end
}

func (w *wireMesh) totals() transport.Stats {
	each := make([]transport.Stats, len(w.nodes))
	for i, u := range w.nodes {
		each[i] = u.Stats()
	}
	return sumStats(each)
}

// settled returns the endpoints' counters once they account for the
// expected datagrams. A writer counts a batch as sent only after the
// kernel took all of it, which can be after its last datagram was
// handled and, on a busy host, a good while after; reading the counters
// at once would report a conservation failure that is only a delay.
func (w *wireMesh) settled(datagrams uint64) transport.Stats {
	deadline := time.Now().Add(wireGiveUp)
	for {
		t := w.totals()
		if t.DatagramsSent+t.Dropped*wirePeers >= datagrams || time.Now().After(deadline) {
			return t
		}
		time.Sleep(time.Millisecond)
	}
}

// checkTransport asserts what every udp run asserts: no decode or send
// errors, and broadcast conservation. In a drained closed loop nothing
// is in flight, so conservation is exact: every datagram handed to the
// kernel was received or is accounted as a drop.
func checkTransport(o *outcome, name string, t transport.Stats, inFlightSlack int64) {
	if t.DecodeErrors != 0 || t.SendErrors != 0 {
		o.problem("%s: %d decode errors, %d send errors", name, t.DecodeErrors, t.SendErrors)
	}
	missing := int64(t.DatagramsSent) - int64(t.DatagramsReceived+t.RecvDropped+t.DecodeErrors)
	if missing < 0 || missing > inFlightSlack {
		o.problem("%s: sent %d datagrams, received %d + dropped %d: %d unaccounted (allowed in flight: %d)",
			name, t.DatagramsSent, t.DatagramsReceived, t.RecvDropped, missing, inFlightSlack)
	}
}

func runWire(spec wireSpec, c runCfg) (*outcome, error) {
	o := newOutcome()
	warm := int64(wireWarm)
	if c.quick {
		warm = 256
	}
	var w *wireMesh
	var setups []float64
	var warmRun wireRun
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		var err error
		if w, err = newWireMesh(spec, c.seed, c.trace); err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		warmRun = w.drive(0, false, int(warm)+wireWindow, func(done int64) bool { return done >= warm })
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	if warmRun.writtenOff > 0 {
		o.invalid = fmt.Sprintf("%s: warm-up lost %d datagrams", spec.name, warmRun.writtenOff)
		return o, nil
	}
	base := w.totals()
	firstSeq := uint64(warmRun.completed)

	t0 := time.Now()
	var qs *queueSampler
	if c.trace {
		qs = startQueueSampler(w.nodes)
	}
	mem0 := readMem()
	r := w.drive(firstSeq, c.trace, wireSamples, func(int64) bool { return time.Since(t0).Seconds() >= c.seconds })
	mem1 := readMem()
	if qs != nil {
		qs.stop()
	}
	t := w.settled(uint64(warmRun.completed+r.completed) * wirePeers)
	delta := statsSince(t, base)
	broadcasts := r.completed + (r.writtenOff+wirePeers-1)/wirePeers
	o.attempted = broadcasts * wirePeers
	o.failed = r.writtenOff + int64(t.RecvDropped) + int64(t.Dropped)*wirePeers
	if o.failed > 0 {
		o.problem("%s: %d of %d datagrams not delivered (written off %d, receive drops %d, send drops %d)",
			spec.name, o.failed, o.attempted, r.writtenOff, t.RecvDropped, t.Dropped)
	}
	if n := w.errs.Load(); n > 0 {
		o.problem("%s: %d transport errors or undecodable sequence numbers", spec.name, n)
	}
	if r.writtenOff == 0 {
		issued := uint64(warmRun.completed + r.completed)
		if want := issued * wirePeers; t.DatagramsSent+t.Dropped*wirePeers != want {
			o.problem("%s: %d broadcasts to %d peers should be %d datagrams, sent %d and dropped %d broadcasts",
				spec.name, issued, wirePeers, want, t.DatagramsSent, t.Dropped)
		}
		checkTransport(o, spec.name, t, 0)
	}
	if r.completed == 0 {
		o.invalid = spec.name + ": no broadcast completed"
		return o, nil
	}

	sort.Float64s(r.latencies)
	received := float64(delta.DatagramsReceived)
	o.note("%s: %d broadcasts completed (%.0f datagrams/s, %.0f datagrams per CPU-second), window %d",
		spec.name, r.completed, received/r.wall, received/r.cpu, wireWindow)
	if !c.trace {
		tail, _ := highestPercentile(len(r.latencies))
		tail = min(tail, 0.99)
		o.note("%s: tail is p%g of %d completion latencies", spec.name, tail*100, len(r.latencies))
		o.metrics["setup_s"] = median(setups)
		o.metrics["unit_wall_ms"] = quantile(r.latencies, 0.5)
		o.metrics["unit_wall_tail_ms"] = quantile(r.latencies, tail)
		o.metrics["unit_cpu_ms"] = r.cpu / float64(r.completed) * 1e3
		o.metrics["peak_rss_mb"] = peakRSSMB()
		return o, nil
	}

	m := o.metrics
	m["transport.broadcast_us"] = r.bcast.perCall(1e3)
	var transit []float64
	for i := range w.transit {
		for _, ns := range w.transit[i] {
			transit = append(transit, float64(ns)/1e3)
		}
	}
	sort.Float64s(transit)
	if len(transit) > 0 {
		m["transport.transit_p50_us"] = quantile(transit, 0.5)
		m["transport.transit_p99_us"] = quantile(transit, 0.99)
	}
	transportCounts(m, delta, t, r.wall, r.cpu)
	qs.report(m)
	m["runtime.gc_cpu_ratio"] = mem1.gcFraction
	m["transport.mallocs_per_dgram"] = float64(mem1.mallocs-mem0.mallocs) / received
	if spec.payload == 0 {
		codecKernels(c, o)
	}
	tab := spanTable{Agg: map[string]spanAgg{"transport.broadcast": r.bcast}}
	return o, tab.write(spansPath(c, spec.name))
}

// transportCounts reports the transport layer's own counters: delta
// covers the measured stretch, total the drop and error counters of the
// whole run.
func transportCounts(m metricSet, delta, total transport.Stats, wall, cpu float64) {
	m["transport.dgrams_sent"] = float64(delta.DatagramsSent)
	m["transport.dgrams_recv"] = float64(delta.DatagramsReceived)
	m["transport.dgrams_per_s"] = float64(delta.DatagramsReceived) / wall
	m["transport.dgrams_per_cpu_s"] = float64(delta.DatagramsReceived) / cpu
	if delta.MmsgSends > 0 {
		m["transport.dgrams_per_sendmmsg"] = float64(delta.DatagramsSent) / float64(delta.MmsgSends)
	}
	if delta.MmsgRecvs > 0 {
		m["transport.dgrams_per_recvmmsg"] = float64(delta.DatagramsReceived) / float64(delta.MmsgRecvs)
	}
	m["transport.send_drops"] = float64(total.Dropped)
	m["transport.recv_drops"] = float64(total.RecvDropped)
	m["transport.decode_errors"] = float64(total.DecodeErrors)
	m["transport.send_errors"] = float64(total.SendErrors)
}

// queueSampler reads every endpoint's ring depths every 5 ms.
type queueSampler struct {
	nodes      []*transport.UDP
	quit, done chan struct{}
	send, recv []float64
}

func startQueueSampler(nodes []*transport.UDP) *queueSampler {
	q := &queueSampler{nodes: nodes, quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(q.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-q.quit:
				return
			case <-tick.C:
				for _, u := range q.nodes {
					s, r := u.QueueDepths()
					q.send = append(q.send, float64(s))
					q.recv = append(q.recv, float64(r))
				}
			}
		}
	}()
	return q
}

func (q *queueSampler) stop() {
	close(q.quit)
	<-q.done
}

func (q *queueSampler) report(m metricSet) {
	if len(q.send) == 0 {
		return
	}
	sort.Float64s(q.send)
	sort.Float64s(q.recv)
	m["transport.sendq_depth_p99"] = quantile(q.send, 0.99)
	m["transport.recvq_depth_p99"] = quantile(q.recv, 0.99)
}
