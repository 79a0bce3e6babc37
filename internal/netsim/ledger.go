package netsim

import (
	"math/bits"

	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Ledger is a run's one delivery accounting, on either substrate: the
// simulator's runner and cmd/loadgen's socket mesh register what they
// publish through a Driver and fold every delivery in with Deliver, so
// eligibility, deduplication, deadlines and latency follow one set of
// rules. It streams: a delivery folds into its event's fixed-size cell
// (in-time counter, deduped by a shared per-ID bitset) and the run-wide
// latency histogram as it happens, so result memory is one bit per
// (event, node) plus O(1) per event.
//
// A Ledger is single-threaded: one goroutine feeds it, as one engine
// runs a simulation.
type Ledger struct {
	nodes int
	// subs is the subscriber roster, fixed for the run: anonymous
	// publications draw their publisher from it, and subMask (the same
	// roster as a bitset) fixes each publication's eligibility.
	subs    []int
	subMask []uint64

	// cells is 1:1 with published (same order). groups shares one
	// first-delivery bitset among all publications carrying the same
	// event ID: a crash-recovered publisher replays its reseeded RNG
	// stream and can re-issue an earlier ID, and the aliased
	// publications then score against the union of deliveries. pending
	// buffers deliveries that arrive before their event's cell exists —
	// the publisher's local self-delivery fires inside Publish, before
	// the publication can be registered.
	cells     []eventCell
	groups    map[event.ID]*eventGroup
	pending   []DeliveryRecord
	published []PublishedEvent
	lat       metrics.LogHist

	// keepLog keeps full DeliveryRecords (Result.Deliveries) for
	// CoverageAt.
	keepLog bool
	records []DeliveryRecord
}

// NewLedger returns an empty ledger for a roster of nodes whose
// subscribers (ascending node indices) are subs; keepLog keeps every
// first delivery as a DeliveryRecord.
func NewLedger(nodes int, subs []int, keepLog bool) *Ledger {
	l := &Ledger{
		nodes:   nodes,
		subs:    subs,
		subMask: make([]uint64, (nodes+63)/64),
		groups:  make(map[event.ID]*eventGroup),
		keepLog: keepLog,
	}
	for _, i := range subs {
		l.subMask[uint(i)/64] |= uint64(1) << (uint(i) % 64)
	}
	return l
}

// eventCell is the fixed-size per-publication accumulator: enough to
// compute the publication's EventOutcome exactly.
type eventCell struct {
	// eligible is |subscribers| minus the publisher (if subscribed),
	// frozen at publish time — valid because the roster never changes.
	eligible int32
	// inTime counts eligible first deliveries at or before deadline.
	inTime    int32
	publisher event.NodeID
	at        sim.Time
	deadline  sim.Time
}

// eventGroup joins the publications sharing one event ID: bits is their
// common first-delivery bitset, cells the indices of their eventCells
// (publish order; almost always exactly one).
type eventGroup struct {
	bits  []uint64
	cells []int32
}

// Deliver records that node delivered event id at the given time. It
// reports whether this was the node's first delivery of the ID;
// repeats (a node that recovered with empty state delivers old events
// again) count nothing.
func (l *Ledger) Deliver(id event.ID, node event.NodeID, at sim.Time) bool {
	if g, ok := l.groups[id]; ok {
		if !l.fold(g, node, at) {
			return false
		}
	} else {
		for _, p := range l.pending {
			if p.Event == id && p.Node == node {
				return false // duplicate before registration
			}
		}
		l.pending = append(l.pending, DeliveryRecord{Event: id, Node: node, At: at})
	}
	if l.keepLog {
		l.records = append(l.records, DeliveryRecord{Event: id, Node: node, At: at})
	}
	return true
}

// fold folds one delivery into the event's group: first-delivery dedup
// via the shared bitset, then every publication's in-time counter and
// the latency histogram. Returns false for duplicates.
func (l *Ledger) fold(g *eventGroup, id event.NodeID, at sim.Time) bool {
	w, m := uint(id)/64, uint64(1)<<(uint(id)%64)
	if g.bits[w]&m != 0 {
		return false
	}
	g.bits[w] |= m
	sub := l.subMask[w]&m != 0
	for _, ci := range g.cells {
		c := &l.cells[ci]
		if sub && id != c.publisher && at <= c.deadline {
			c.inTime++
		}
	}
	// Latency is scored against the newest publication of the ID (for
	// the overwhelmingly common single-publication case: the only one).
	c := &l.cells[g.cells[len(g.cells)-1]]
	if id != c.publisher && at <= c.deadline {
		l.lat.Add(at.Sub(c.at).Seconds())
	}
	return true
}

// register opens the cell of a publication Publish returned and folds
// in the deliveries that beat it.
func (l *Ledger) register(pe PublishedEvent) {
	w, m := uint(pe.Publisher)/64, uint64(1)<<(uint(pe.Publisher)%64)
	pubSub := l.subMask[w]&m != 0
	eligible := int32(len(l.subs))
	if pubSub {
		eligible--
	}
	ci := int32(len(l.cells))
	cell := eventCell{
		eligible:  eligible,
		publisher: pe.Publisher,
		at:        pe.At,
		deadline:  pe.At.Add(pe.Validity),
	}
	g := l.groups[pe.ID]
	if g == nil {
		g = &eventGroup{bits: make([]uint64, len(l.subMask))}
		l.groups[pe.ID] = g
	} else {
		// Aliased re-publication: every first delivery so far precedes
		// this publish and hence its deadline, so the new outcome starts
		// from the delivered subscribers.
		cell.inTime = popcountAnd(g.bits, l.subMask)
		if pubSub && g.bits[w]&m != 0 {
			cell.inTime-- // the new publisher never scores itself
		}
	}
	l.cells = append(l.cells, cell)
	g.cells = append(g.cells, ci)
	for _, pd := range l.pending {
		if pd.Event == pe.ID {
			l.fold(g, pd.Node, pd.At)
		}
	}
	l.pending = l.pending[:0]
	l.published = append(l.published, pe)
}

// popcountAnd counts the set bits of a ∧ b.
func popcountAnd(a, b []uint64) int32 {
	var n int32
	for i, w := range a {
		n += int32(bits.OnesCount64(w & b[i]))
	}
	return n
}

// Totals returns the number of registered publications and the sums of
// their in-time deliveries and eligible subscribers.
func (l *Ledger) Totals() (published, inTime, eligible int) {
	for _, c := range l.cells {
		inTime += int(c.inTime)
		eligible += int(c.eligible)
	}
	return len(l.cells), inTime, eligible
}

// Latency returns the histogram of publish-to-delivery latencies, one
// sample per in-time first delivery by a node other than the publisher.
func (l *Ledger) Latency() metrics.LogHist { return l.lat }

// Outcomes returns one EventOutcome per registered publication, in
// publish order; nil before the first.
func (l *Ledger) Outcomes() []EventOutcome {
	if len(l.published) == 0 {
		return nil
	}
	out := make([]EventOutcome, len(l.published))
	for i, pe := range l.published {
		c := l.cells[i]
		out[i] = EventOutcome{
			PublishedEvent:  pe,
			Eligible:        int(c.eligible),
			DeliveredInTime: int(c.inTime),
		}
	}
	return out
}
