// Package mac simulates a broadcast-only 802.11b-style medium access
// layer: CSMA carrier sensing with DIFS and slotted random back-off,
// transmission airtime derived from the bitrate, hidden-terminal
// collisions, and half-duplex receivers.
//
// The model intentionally captures exactly the phenomena the paper's
// protocol reacts to — losses from colliding broadcasts (the cause of the
// Figure 13 non-monotonicity) and airtime occupancy — without modeling
// 802.11 unicast machinery (RTS/CTS, ACKs, retries), which broadcast
// frames do not use.
package mac

import (
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"repro/internal/event"
	"repro/internal/geo"
	"repro/internal/sim"
)

// Config parameterizes the medium. The defaults model 802.11b broadcast
// at the 2 Mbps basic rate.
type Config struct {
	// BitrateBps is the broadcast bitrate (802.11b basic rate: 2 Mbps).
	BitrateBps float64
	// Range is the radio radius in meters: a node receives, senses the
	// channel busy and suffers interference within it.
	Range float64
	// SlotTime is the contention slot (802.11b: 20 us).
	SlotTime time.Duration
	// DIFS is the idle period sensed before transmitting (50 us).
	DIFS time.Duration
	// CWSlots is the contention window size in slots (802.11b CWmin+1 = 32).
	CWSlots int
	// Preamble is the PHY preamble+PLCP airtime (long preamble: 192 us).
	Preamble time.Duration
	// HeaderBytes is the MAC framing overhead added to every frame.
	HeaderBytes int
	// QueueCap bounds the per-node outgoing queue; 0 means unbounded.
	QueueCap int
	// ReceiveProb, when non-nil, makes reception probabilistic: a frame
	// arriving from distance d meters is received with probability
	// ReceiveProb(d) (see radio.Shadowing). Range then acts as a
	// pruning radius — set it to the model's MaxRange. Nil keeps the
	// deterministic unit disc.
	ReceiveProb func(d float64) float64

	// SpeedBounded, when true, promises that no attached node moves
	// faster than MaxSpeed m/s. The medium then refreshes its spatial
	// node index only every 200 ms of simulated time and pads range
	// queries by MaxSpeed*200 ms, making per-frame receiver lookups
	// cost O(nodes in range) instead of O(all nodes). A MaxSpeed of 0
	// with SpeedBounded set declares the nodes static (the index never
	// goes stale). Without the promise the index is rebuilt whenever the
	// clock has advanced — exact for arbitrary mobility, but O(N) per
	// distinct transmission instant, like the old full scan.
	// netsim derives this from the scenario's mobility model; set it
	// yourself only when driving the medium directly.
	SpeedBounded bool
	// MaxSpeed is the speed bound in m/s backing SpeedBounded.
	MaxSpeed float64

	// Bounds is the scenario's bounding rectangle; the medium pre-sizes
	// its dense spatial indexes over it (cells of one radio range). It
	// does not have to be exact — positions outside are clamped into
	// border cells, which stays correct and only degrades query cost if
	// pervasive. A zero Bounds makes the medium derive a padded bounding
	// box from node positions at first use. netsim fills this from the
	// scenario's mobility model (area or street-graph bounding box); set
	// it yourself only when driving the medium directly.
	Bounds geo.Rect

	// FullScan disables the spatial index entirely and scans the full
	// roster for every frame — the pre-grid reference implementation.
	// It exists for differential tests and benchmarks; the grid path is
	// frame-for-frame identical to it.
	FullScan bool
}

// gridRefresh is the node-index refresh period under SpeedBounded with
// a non-zero MaxSpeed. A longer period would rebuild less often but
// widen the query margin.
const gridRefresh = 200 * time.Millisecond

// DefaultConfig returns an 802.11b broadcast medium with the given
// reception radius.
func DefaultConfig(rangeM float64) Config {
	return Config{
		BitrateBps:  2e6,
		Range:       rangeM,
		SlotTime:    20 * time.Microsecond,
		DIFS:        50 * time.Microsecond,
		CWSlots:     32,
		Preamble:    192 * time.Microsecond,
		HeaderBytes: 28,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.BitrateBps <= 0 {
		return fmt.Errorf("mac: bitrate %v", c.BitrateBps)
	}
	if c.Range <= 0 {
		return fmt.Errorf("mac: range %v", c.Range)
	}
	if c.SlotTime <= 0 || c.DIFS < 0 || c.CWSlots < 1 {
		return fmt.Errorf("mac: bad contention params")
	}
	if c.HeaderBytes < 0 || c.QueueCap < 0 || c.Preamble < 0 {
		return fmt.Errorf("mac: negative sizes")
	}
	if c.MaxSpeed < 0 {
		return fmt.Errorf("mac: negative MaxSpeed %v", c.MaxSpeed)
	}
	if c.Bounds.Width() < 0 || c.Bounds.Height() < 0 {
		return fmt.Errorf("mac: inverted Bounds %v", c.Bounds)
	}
	return nil
}

// Airtime returns the on-air duration of a frame carrying appBytes of
// payload.
func (c Config) Airtime(appBytes int) time.Duration {
	bits := float64(appBytes+c.HeaderBytes) * 8
	return c.Preamble + time.Duration(bits/c.BitrateBps*float64(time.Second))
}

// Locator supplies node positions to the medium.
type Locator interface {
	Position(id event.NodeID, at sim.Time) geo.Point
}

// Frame is a broadcast MAC frame. AppBytes is the accounted payload size
// under the experiment's size model (the simulator does not serialize
// messages; it passes them by value and charges the modeled size).
type Frame struct {
	From     event.NodeID
	Msg      event.Message
	AppBytes int
}

// transmission is one on-air frame. Records are pooled by the medium;
// owner backs the pool's constant-time return to the sender's
// half-duplex history.
type transmission struct {
	from       event.NodeID
	owner      *Port
	pos        geo.Point
	start, end sim.Time
}

func (t *transmission) overlaps(o *transmission) bool {
	return t.start < o.end && o.start < t.end
}

// Counters aggregates per-node MAC statistics.
type Counters struct {
	FramesSent     uint64
	AppBytesSent   uint64
	MACBytesSent   uint64
	FramesReceived uint64
	FramesLost     uint64 // in range, corrupted by collision or half-duplex
	FramesFaded    uint64 // in range, lost to the probabilistic channel
	QueueDrops     uint64
	Defers         uint64 // attempts postponed by carrier sense
}

// Add returns a + b field by field. A new counter must be added here and
// in Sub (TestCountersAddSubCoverEveryField fails otherwise).
func (a Counters) Add(b Counters) Counters {
	return Counters{
		FramesSent:     a.FramesSent + b.FramesSent,
		AppBytesSent:   a.AppBytesSent + b.AppBytesSent,
		MACBytesSent:   a.MACBytesSent + b.MACBytesSent,
		FramesReceived: a.FramesReceived + b.FramesReceived,
		FramesLost:     a.FramesLost + b.FramesLost,
		FramesFaded:    a.FramesFaded + b.FramesFaded,
		QueueDrops:     a.QueueDrops + b.QueueDrops,
		Defers:         a.Defers + b.Defers,
	}
}

// Sub returns a - b field by field: the counters accumulated since the
// snapshot b.
func (a Counters) Sub(b Counters) Counters {
	return Counters{
		FramesSent:     a.FramesSent - b.FramesSent,
		AppBytesSent:   a.AppBytesSent - b.AppBytesSent,
		MACBytesSent:   a.MACBytesSent - b.MACBytesSent,
		FramesReceived: a.FramesReceived - b.FramesReceived,
		FramesLost:     a.FramesLost - b.FramesLost,
		FramesFaded:    a.FramesFaded - b.FramesFaded,
		QueueDrops:     a.QueueDrops - b.QueueDrops,
		Defers:         a.Defers - b.Defers,
	}
}

// Each calls fn once per counter, in declaration order, with the
// counter's column name (the simulator's series prefixes it mac_). A
// new counter must be added here too (the same test checks).
func (a Counters) Each(fn func(name string, v uint64)) {
	fn("frames_sent", a.FramesSent)
	fn("app_bytes_sent", a.AppBytesSent)
	fn("macbytes_sent", a.MACBytesSent)
	fn("frames_received", a.FramesReceived)
	fn("frames_lost", a.FramesLost)
	fn("frames_faded", a.FramesFaded)
	fn("queue_drops", a.QueueDrops)
	fn("defers", a.Defers)
}

// Medium is the shared broadcast channel. Attach every node before
// running the simulation. Medium is driven entirely by the sim engine and
// is not safe for concurrent use.
//
// Internally the medium keeps two spatial indexes: node positions in a
// dense geo.IndexGrid keyed by attach rank, refreshed per
// Config.SpeedBounded (re-bucketing only the nodes that crossed a cell
// boundary) and queried by recorded position with a staleness margin to
// find receivers, and live-transmission origins in a geo.Grid,
// maintained exactly, to answer carrier-sense queries per attempt and
// one interferer query per finished frame. Both indexes are
// conservative supersets followed by the exact distance checks of the
// reference full scan, so results — including the RNG draw sequence of
// probabilistic reception — are frame-for-frame identical to
// Config.FullScan.
//
// The per-frame paths reuse scratch buffers and pool transmission
// records and engine timers: once warm, broadcasting allocates nothing
// (see TestBroadcastAllocationFlat), which is what keeps churny
// 10k-node sweeps allocation-flat.
type Medium struct {
	eng   *sim.Engine
	cfg   Config
	loc   Locator
	rng   *rand.Rand
	ports []*Port              // by attach rank
	order []event.NodeID       // rank -> id, deterministic iteration order
	rank  map[event.NodeID]int // id -> attach rank

	live     []*transmission // on-air or recently ended (pruned FIFO)
	liveHead int             // consumed prefix of live
	txFree   []*transmission // recycled transmission records
	// maxAir is the longest airtime of any frame started so far: a frame
	// on air at t started no earlier than t-maxAir, which bounds how long
	// prune keeps an ended record.
	maxAir sim.Time

	// nodeGrid buckets node positions (by attach rank) recorded at
	// nodeGridAt; queries pad radii by margin to cover movement since.
	nodeGrid      *geo.IndexGrid
	nodeGridAt    sim.Time
	nodeGridBuilt bool
	staleAfter    time.Duration
	margin        float64

	// bounds is the resolved index bounding box: Config.Bounds, or a
	// padded roster bounding box derived at first use (ensureGeometry).
	bounds geo.Rect

	// txGrid buckets live transmissions by their (fixed) origin. Created
	// lazily alongside bounds.
	txGrid *geo.Grid[*transmission]

	scratch   []int32         // receiver-candidate reuse buffer (ranks)
	txScratch []*transmission // transmission-grid query reuse buffer
	allRanks  []int32         // 0..n-1, the FullScan "candidate set"
	// rankBits and rankSum put receivers' candidates in rank order: one
	// bit per attach rank, one summary bit per 64-rank word. Both are all
	// zero between calls.
	rankBits []uint64
	rankSum  []uint64
	// interferers holds the finishing frame's possible corrupters
	// (collectInterferers). It is its own buffer because receiver
	// handlers re-enter busyUntil, which reuses txScratch.
	interferers []*transmission
}

// New creates a medium. It panics on invalid configuration.
func New(eng *sim.Engine, cfg Config, loc Locator) *Medium {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Medium{
		eng:  eng,
		cfg:  cfg,
		loc:  loc,
		rng:  eng.NewRand(),
		rank: make(map[event.NodeID]int),
	}
	if cfg.SpeedBounded {
		m.staleAfter = gridRefresh
		m.margin = cfg.MaxSpeed * m.staleAfter.Seconds()
	}
	return m
}

// Attach registers node id with receive callback rx (may be nil for a
// deaf node) and returns its port. Attaching the same id twice panics.
func (m *Medium) Attach(id event.NodeID, rx func(Frame)) *Port {
	if _, dup := m.rank[id]; dup {
		panic(fmt.Sprintf("mac: node %v attached twice", id))
	}
	p := &Port{m: m, id: id, rank: int32(len(m.order)), rx: rx}
	// Bind the contention-round callbacks once: the engine schedules
	// them thousands of times per node, and a method value costs an
	// allocation at every use.
	p.attemptFn = p.attempt
	p.startTxFn = p.startTx
	p.finishFn = p.finishCur
	m.rank[id] = len(m.order)
	m.order = append(m.order, id)
	m.ports = append(m.ports, p)
	m.allRanks = append(m.allRanks, p.rank)
	m.nodeGridBuilt = false // new roster member: rebuild on next query
	return p
}

// Port is a node's attachment to the medium.
type Port struct {
	m       *Medium
	id      event.NodeID
	rank    int32
	rx      func(Frame)
	queue   []Frame
	qhead   int // consumed prefix of queue
	sending bool
	c       Counters
	// curTx is the in-flight transmission (one at most: the next
	// contention round starts only after finishCur).
	curTx *transmission
	// recent holds this port's transmissions still tracked in
	// Medium.live; it backs the exact half-duplex check.
	recent []*transmission

	// pre-bound engine callbacks (see Attach).
	attemptFn, startTxFn, finishFn func()
}

// ID returns the attached node id.
func (p *Port) ID() event.NodeID { return p.id }

// Counters returns a snapshot of the port's statistics.
func (p *Port) Counters() Counters { return p.c }

// Broadcast queues msg for one-hop broadcast. appBytes is the accounted
// application-layer size (see Frame). Delivery happens after carrier
// sensing, back-off and airtime; there is no feedback to the sender, as
// with real broadcast frames.
func (p *Port) Broadcast(msg event.Message, appBytes int) {
	if p.m.cfg.QueueCap > 0 && len(p.queue)-p.qhead >= p.m.cfg.QueueCap {
		p.c.QueueDrops++
		return
	}
	if p.qhead > 0 && p.qhead == len(p.queue) {
		// Queue drained: restart at the front of the backing array so
		// steady-state traffic reuses it instead of growing it.
		p.queue = p.queue[:0]
		p.qhead = 0
	} else if p.qhead >= 64 && p.qhead*2 >= len(p.queue) {
		// Never-drained backlog (saturated channel): compact the
		// consumed prefix away, or the backing array grows with total
		// frames sent instead of with the live backlog.
		p.queue = dropHead(p.queue, p.qhead)
		p.qhead = 0
	}
	p.queue = append(p.queue, Frame{From: p.id, Msg: msg, AppBytes: appBytes})
	if !p.sending {
		p.sending = true
		p.attempt()
	}
}

// attempt runs one CSMA contention round for the head-of-queue frame.
func (p *Port) attempt() {
	m := p.m
	m.ensureGeometry()
	now := m.eng.Now()
	pos := m.loc.Position(p.id, now)
	if until, busy := m.busyUntil(p.id, pos, now); busy {
		p.c.Defers++
		jitter := time.Duration(m.rng.Intn(m.cfg.CWSlots)) * m.cfg.SlotTime
		m.eng.Schedule(until.Add(m.cfg.DIFS+jitter), p.attemptFn)
		return
	}
	backoff := m.cfg.DIFS + time.Duration(m.rng.Intn(m.cfg.CWSlots))*m.cfg.SlotTime
	m.eng.ScheduleAfter(backoff, p.startTxFn)
}

// startTx begins transmission if the channel is still idle, otherwise
// re-contends.
func (p *Port) startTx() {
	m := p.m
	now := m.eng.Now()
	pos := m.loc.Position(p.id, now)
	if _, busy := m.busyUntil(p.id, pos, now); busy {
		p.attempt()
		return
	}
	frame := &p.queue[p.qhead]
	tx := m.newTransmission()
	tx.from = p.id
	tx.owner = p
	tx.pos = pos
	tx.start = now
	tx.end = now.Add(m.cfg.Airtime(frame.AppBytes))
	m.maxAir = max(m.maxAir, tx.end-tx.start)
	m.live = append(m.live, tx)
	m.txGrid.Put(tx, tx.pos)
	p.recent = append(p.recent, tx)
	p.curTx = tx
	p.c.FramesSent++
	p.c.AppBytesSent += uint64(frame.AppBytes)
	p.c.MACBytesSent += uint64(frame.AppBytes + m.cfg.HeaderBytes)
	m.eng.Schedule(tx.end, p.finishFn)
}

// finishCur delivers the in-flight frame to every receiver that heard
// it cleanly, in attach order, and then continues with the queue.
func (p *Port) finishCur() {
	m := p.m
	tx := p.curTx
	p.curTx = nil
	frame := p.queue[p.qhead]
	m.collectInterferers(tx)
	for _, rank := range m.receivers(tx) {
		if rank == p.rank {
			continue
		}
		q := m.ports[rank]
		if !m.hears(tx, q) {
			continue
		}
		q.c.FramesReceived++
		if q.rx != nil {
			q.rx(frame)
		}
	}
	m.prune()
	p.queue[p.qhead] = Frame{}
	p.qhead++
	if p.qhead < len(p.queue) {
		p.attempt()
	} else {
		p.sending = false
	}
}

// hears is the per-receiver verdict on tx at port q, in the reference
// order: out of range (not even noise), faded by the probabilistic
// channel, lost to half-duplex or interference, or clean. It counts the
// faded and lost outcomes on q and reports whether the frame is clean.
func (m *Medium) hears(tx *transmission, q *Port) bool {
	rpos := m.loc.Position(q.id, tx.end)
	if m.cfg.ReceiveProb == nil {
		if !within(tx.pos, rpos, m.cfg.Range) {
			return false
		}
	} else {
		d := tx.pos.Dist(rpos) // the channel model needs the distance itself
		if d > m.cfg.Range {
			return false
		}
		if m.rng.Float64() >= m.cfg.ReceiveProb(d) {
			q.c.FramesFaded++
			return false
		}
	}
	if m.corrupted(tx, q, rpos) {
		q.c.FramesLost++
		return false
	}
	return true
}

// rimBand is the relative half-width, in squared distance, of the band
// around a threshold inside which within asks Hypot (the slack
// geo.IndexGrid.AppendWithin grants its rim).
const rimBand = 1e-9

// within reports a.Dist(b) <= r, bit for bit, for any r whose square
// neither overflows nor underflows. The squared distance and Hypot each
// carry a relative rounding error below 1e-15, so outside the band the
// squares already decide what Hypot would say; only a pair on the rim
// pays for the Hypot.
func within(a, b geo.Point, r float64) bool {
	d2, r2 := a.Dist2(b), r*r
	if d2 <= r2*(1-rimBand) {
		return true
	}
	if d2 > r2*(1+rimBand) {
		return false
	}
	return a.Dist(b) <= r
}

// receivers returns the attach ranks to consider as receivers of tx, in
// attach order. The grid path returns every node whose recorded position
// (as of the last index refresh) lies within Range plus the staleness
// margin. No node moves more than margin between refreshes (the
// SpeedBounded contract; without it the index is rebuilt at the query
// instant and the drift is zero), so by the triangle inequality that is
// a superset of the true in-range set; hears re-checks exact current
// distances, so delivery (and the RNG draw sequence under ReceiveProb)
// is identical to the FullScan roster walk.
//
// The grid yields candidates in bucket order, which depends on movement
// history; they are put in rank order by marking them in a two-level
// bitset and walking it, at a cost of one step per candidate plus one
// per 4096 ranks — no comparison sort.
func (m *Medium) receivers(tx *transmission) []int32 {
	if m.cfg.FullScan {
		return m.allRanks
	}
	m.ensureNodeGrid(tx.end)
	m.scratch = m.nodeGrid.AppendWithin(tx.pos, m.cfg.Range+m.margin, m.scratch[:0])
	m.scratch = m.rankOrder(m.scratch)
	return m.scratch
}

// rankOrder returns the distinct ranks of cand in ascending order,
// reusing cand's array. Every rank must be below len(m.order).
func (m *Medium) rankOrder(cand []int32) []int32 {
	if words := (len(m.order) + 63) >> 6; len(m.rankBits) < words {
		m.rankBits = make([]uint64, words)
		m.rankSum = make([]uint64, (words+63)>>6)
	}
	for _, r := range cand {
		m.rankBits[r>>6] |= 1 << (r & 63)
		m.rankSum[r>>12] |= 1 << ((r >> 6) & 63)
	}
	out := cand[:0]
	for si, sum := range m.rankSum {
		if sum == 0 {
			continue
		}
		m.rankSum[si] = 0
		for ; sum != 0; sum &= sum - 1 {
			wi := si<<6 | bits.TrailingZeros64(sum)
			w := m.rankBits[wi]
			m.rankBits[wi] = 0
			for ; w != 0; w &= w - 1 {
				out = append(out, int32(wi<<6|bits.TrailingZeros64(w)))
			}
		}
	}
	return out
}

// ensureGeometry resolves the index bounding box and creates the
// transmission grid on first use. Bounds come from Config.Bounds when
// set; otherwise from the attached roster's current positions, padded
// by one radio range — the clamped dense grids stay correct either way
// (out-of-bounds positions pile into border cells), so the derived box
// only needs to be representative, not exact.
func (m *Medium) ensureGeometry() {
	if m.txGrid != nil {
		return
	}
	b := m.cfg.Bounds
	if b == (geo.Rect{}) {
		now := m.eng.Now()
		for i, id := range m.order {
			p := m.loc.Position(id, now)
			if i == 0 {
				b = geo.Rect{Min: p, Max: p}
				continue
			}
			if p.X < b.Min.X {
				b.Min.X = p.X
			}
			if p.Y < b.Min.Y {
				b.Min.Y = p.Y
			}
			if p.X > b.Max.X {
				b.Max.X = p.X
			}
			if p.Y > b.Max.Y {
				b.Max.Y = p.Y
			}
		}
		r := m.cfg.Range
		b.Min.X -= r
		b.Min.Y -= r
		b.Max.X += r
		b.Max.Y += r
	}
	m.bounds = b
	m.txGrid = geo.NewGrid[*transmission](m.cfg.Range, b)
}

// ensureNodeGrid refreshes the node index at now unless it is still
// fresh: under SpeedBounded it survives for the refresh period (forever
// when MaxSpeed is 0 — static nodes), otherwise any clock advance
// invalidates it. A refresh recomputes every node's position but
// re-buckets only the nodes that crossed a cell boundary.
func (m *Medium) ensureNodeGrid(now sim.Time) {
	if m.nodeGridBuilt {
		if m.cfg.SpeedBounded && m.cfg.MaxSpeed == 0 {
			return
		}
		if now.Sub(m.nodeGridAt) <= m.staleAfter {
			return
		}
	}
	if m.nodeGrid == nil || m.nodeGrid.Keys() != len(m.order) {
		m.ensureGeometry()
		m.nodeGrid = geo.NewIndexGrid(m.cfg.Range, m.bounds, len(m.order))
	}
	for rank, id := range m.order {
		m.nodeGrid.Relocate(int32(rank), m.loc.Position(id, now))
	}
	m.nodeGridAt = now
	m.nodeGridBuilt = true
}

// busyUntil reports whether the channel is busy at pos as sensed by node
// self, and until when. Transmissions starting exactly now are not
// sensed — two nodes whose back-offs land on the same slot both fire and
// collide, as on real hardware.
func (m *Medium) busyUntil(self event.NodeID, pos geo.Point, now sim.Time) (sim.Time, bool) {
	var until sim.Time
	busy := false
	cand := m.live[m.liveHead:]
	if !m.cfg.FullScan {
		// Transmission origins are fixed, so the index is exact: no
		// margin needed.
		m.txScratch = m.txGrid.AppendDisc(pos, m.cfg.Range, m.txScratch[:0])
		cand = m.txScratch
	}
	for _, t := range cand {
		if t.from == self || t.end <= now || t.start >= now {
			continue
		}
		if within(t.pos, pos, m.cfg.Range) {
			busy = true
			if t.end > until {
				until = t.end
			}
		}
	}
	return until, busy
}

// collectInterferers gathers, once per finished frame, the foreign
// transmissions that can corrupt tx at any of its receivers: those that
// overlap tx in time and started within 2*Range of tx.pos. Every
// receiver is within Range of tx.pos, so a transmission within Range
// of a receiver is in this list (triangle inequality); corrupted only
// has to walk it — usually empty — instead of querying the transmission
// grid per receiver. The live set cannot change while finishCur's loop
// runs: a handler's Broadcast reaches attempt, which only schedules
// startTx, never calls it. The FullScan reference walks live instead.
func (m *Medium) collectInterferers(tx *transmission) {
	if m.cfg.FullScan {
		return
	}
	m.txScratch = m.txGrid.AppendDisc(tx.pos, 2*m.cfg.Range, m.txScratch[:0])
	ifs := m.interferers[:0]
	for _, t := range m.txScratch {
		if t != tx && t.overlaps(tx) {
			ifs = append(ifs, t)
		}
	}
	m.interferers = ifs
}

// corrupted reports whether reception of tx at port q fails, either
// because q was itself transmitting (half-duplex) or because a
// concurrent foreign transmission interfered (hidden terminal). rpos is
// q's position at the reception instant.
func (m *Medium) corrupted(tx *transmission, q *Port, rpos geo.Point) bool {
	if m.cfg.FullScan {
		for _, t := range m.live[m.liveHead:] {
			if t == tx || !t.overlaps(tx) {
				continue
			}
			if t.from == q.id {
				return true // half-duplex: q was talking
			}
			if within(t.pos, rpos, m.cfg.Range) {
				return true // interference at the receiver
			}
		}
		return false
	}
	// Half-duplex: q's own overlapping transmissions, wherever they
	// started (the full scan does not distance-filter this case).
	for _, t := range q.recent {
		if t.overlaps(tx) {
			return true
		}
	}
	for _, t := range m.interferers {
		if t.from != q.id && within(t.pos, rpos, m.cfg.Range) {
			return true // interference at the receiver
		}
	}
	return false
}

// port returns the port attached as id (tests and diagnostics; the hot
// paths address ports by attach rank).
func (m *Medium) port(id event.NodeID) *Port { return m.ports[m.rank[id]] }

// InFlight counts the transmissions still on air at now. live retains
// recently ended records until prune reclaims them, so the count
// filters on end time; it is a pure read used by the netsim sampler
// (Scenario.Sample) and diagnostics.
func (m *Medium) InFlight(now sim.Time) int {
	n := 0
	for _, t := range m.live[m.liveHead:] {
		if t.end > now {
			n++
		}
	}
	return n
}

// newTransmission takes a record from the pool.
func (m *Medium) newTransmission() *transmission {
	if n := len(m.txFree); n > 0 {
		t := m.txFree[n-1]
		m.txFree[n-1] = nil
		m.txFree = m.txFree[:n-1]
		return t
	}
	return &transmission{}
}

// prune drops transmissions that can no longer overlap anything on air:
// those that ended more than maxAir ago. A frame on air now started at
// or after now-maxAir (its own airtime is already in maxAir), a later one
// starts after now, and both overlap only records ending after their
// start; busyUntil skips ended records anyway. The bound is strict so a
// zero-airtime frame ending now, whose finish may still be pending, is
// kept. prune consumes the FIFO front of live (start order approximates
// end order; an entry blocked behind a longer airtime lingers a little,
// which is outcome-neutral — every consumer filters on time). Records are
// recycled through the pool.
func (m *Medium) prune() {
	now := m.eng.Now()
	for m.liveHead < len(m.live) {
		t := m.live[m.liveHead]
		if t.end+m.maxAir >= now {
			break
		}
		m.txGrid.Remove(t, t.pos)
		t.owner.dropRecent(t)
		m.live[m.liveHead] = nil
		m.liveHead++
		*t = transmission{}
		m.txFree = append(m.txFree, t)
	}
	if m.liveHead == len(m.live) {
		m.live = m.live[:0]
		m.liveHead = 0
	} else if m.liveHead >= 64 && m.liveHead*2 >= len(m.live) {
		// A channel that never idles for maxAir never empties live:
		// compact the consumed prefix away (as Broadcast does for the
		// port queue), or the backing array grows with total frames sent.
		m.live = dropHead(m.live, m.liveHead)
		m.liveHead = 0
	}
}

// dropHead moves s[head:] to the front of s's backing array and clears
// the vacated tail, so a FIFO consumed through a head index reuses its
// array instead of growing it.
func dropHead[T any](s []T, head int) []T {
	n := copy(s, s[head:])
	clear(s[n:])
	return s[:n]
}

// dropRecent removes t from the port's half-duplex history.
func (p *Port) dropRecent(t *transmission) {
	for i, x := range p.recent {
		if x == t {
			p.recent = append(p.recent[:i], p.recent[i+1:]...)
			return
		}
	}
}
