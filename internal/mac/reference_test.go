package mac

import (
	"math/rand"
	"slices"
	"time"

	"repro/internal/event"
	"repro/internal/geo"
	"repro/internal/sim"
)

// refMedium is the oracle of the differential tests: the CSMA model of
// Medium written as plain roster walks. Every frame is offered to every
// attached port in attach order, and carrier sense, interference and
// half-duplex each walk every live transmission. It shares Config,
// Frame and Counters with Medium and none of its machinery — no spatial
// index, rank ordering, per-port history, interferer list, record pool
// or FIFO compaction — so two matching logs check that machinery
// against the model it accelerates.
//
// Its RNG draws and engine schedules come in Medium's order: one
// contention draw per attempt (jitter when busy, back-off when idle),
// then one Receives draw per in-range receiver of a finished frame.
// That is what lets the two logs match frame for frame.
type refMedium struct {
	eng   *sim.Engine
	cfg   Config
	loc   Locator
	rng   *rand.Rand
	ports []*refPort // attach order
	live  []*refTx
}

// refTx is one transmission, kept while it can still overlap a frame.
type refTx struct {
	from       event.NodeID
	pos        geo.Point
	start, end sim.Time
}

func (t *refTx) overlaps(o *refTx) bool { return t.start < o.end && o.start < t.end }

// refPort is a node's attachment to refMedium. The head of queue is the
// frame in contention or on air.
type refPort struct {
	m       *refMedium
	id      event.NodeID
	rx      func(Frame)
	queue   []Frame
	sending bool
	cur     *refTx
	c       Counters
}

func newRefMedium(eng *sim.Engine, cfg Config, loc Locator) *refMedium {
	return &refMedium{eng: eng, cfg: cfg, loc: loc, rng: eng.NewRand()}
}

func (m *refMedium) Attach(id event.NodeID, rx func(Frame)) *refPort {
	p := &refPort{m: m, id: id, rx: rx}
	m.ports = append(m.ports, p)
	return p
}

func (p *refPort) Counters() Counters { return p.c }

func (p *refPort) Broadcast(msg event.Message, appBytes int) {
	p.queue = append(p.queue, Frame{From: p.id, Msg: msg, AppBytes: appBytes})
	if !p.sending {
		p.sending = true
		p.attempt()
	}
}

func (p *refPort) attempt() {
	m := p.m
	now := m.eng.Now()
	if until, busy := m.busyUntil(p.id, m.loc.Position(p.id, now), now); busy {
		p.c.Defers++
		jitter := time.Duration(m.rng.Intn(cwSlots)) * slotTime
		m.eng.Schedule(until.Add(difs+jitter), p.attempt)
		return
	}
	backoff := difs + time.Duration(m.rng.Intn(cwSlots))*slotTime
	m.eng.ScheduleAfter(backoff, p.startTx)
}

func (p *refPort) startTx() {
	m := p.m
	now := m.eng.Now()
	pos := m.loc.Position(p.id, now)
	if _, busy := m.busyUntil(p.id, pos, now); busy {
		p.attempt()
		return
	}
	f := p.queue[0]
	p.cur = &refTx{from: p.id, pos: pos, start: now, end: now.Add(airtime(f.AppBytes))}
	m.live = append(m.live, p.cur)
	p.c.FramesSent++
	p.c.AppBytesSent += uint64(f.AppBytes)
	p.c.MACBytesSent += uint64(f.AppBytes + headerBytes)
	m.eng.Schedule(p.cur.end, p.finish)
}

func (p *refPort) finish() {
	m := p.m
	tx, f := p.cur, p.queue[0]
	for _, q := range m.ports {
		if q != p && m.hears(tx, q) {
			q.c.FramesReceived++
			if q.rx != nil {
				q.rx(f)
			}
		}
	}
	m.forget()
	p.cur = nil
	p.queue = p.queue[1:]
	if len(p.queue) > 0 {
		p.attempt()
	} else {
		p.sending = false
	}
}

// busyUntil reports whether a transmission that started before now and
// ends after it, by another node within Range of pos, occupies the
// channel, and until when.
func (m *refMedium) busyUntil(self event.NodeID, pos geo.Point, now sim.Time) (until sim.Time, busy bool) {
	for _, t := range m.live {
		if t.from != self && t.start < now && now < t.end && t.pos.Dist(pos) <= m.cfg.Range {
			busy = true
			until = max(until, t.end)
		}
	}
	return until, busy
}

// hears counts q's verdict on tx and reports whether q received it
// cleanly: out of range, faded, lost to a transmission of its own
// (half-duplex) or to one within Range of it (interference), or clean.
func (m *refMedium) hears(tx *refTx, q *refPort) bool {
	rpos := m.loc.Position(q.id, tx.end)
	d := tx.pos.Dist(rpos)
	if d > m.cfg.Range {
		return false
	}
	if m.cfg.Receives != nil && !m.cfg.Receives(d, m.rng.Float64()) {
		q.c.FramesFaded++
		return false
	}
	for _, t := range m.live {
		if t != tx && t.overlaps(tx) && (t.from == q.id || t.pos.Dist(rpos) <= m.cfg.Range) {
			q.c.FramesLost++
			return false
		}
	}
	return true
}

// forget drops the transmissions that ended before every frame still to
// finish had started: no frame on air now or later can overlap them.
func (m *refMedium) forget() {
	now := m.eng.Now()
	cut := now
	for _, t := range m.live {
		if t.end >= now {
			cut = min(cut, t.start)
		}
	}
	m.live = slices.DeleteFunc(m.live, func(t *refTx) bool { return t.end <= cut })
}
