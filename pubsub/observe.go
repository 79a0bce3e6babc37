// Node observability: protocol and transport counters exposed through
// the obs registry, and a bounded flight recorder of recent lifecycle
// events (publish, send, receive, deliver, drop) for post-mortem
// debugging of live deployments. Both are opt-in and read-only: an
// unobserved node pays one atomic pointer load per recordable operation
// and nothing more, and nothing here feeds back into protocol state
// (ARCHITECTURE.md "Observability contracts").

package pubsub

import (
	"fmt"
	"io"
	"time"

	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// MetricsRegistry is the metrics registry nodes register into; it also
// serves /metrics, /healthz and pprof over HTTP (see internal/obs and
// cmd/loadgen -metrics-addr for a full deployment).
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty registry. Register any number of
// nodes into one registry; series are distinguished by the node label.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// RegisterMetrics exposes the node's counters on reg, labeled
// node="<id>": one repro_pubsub_*_total counter per protocol Stats
// field, the neighborhood-table size, the flight-recorder record count
// and — for the built-in UDP transport — the repro_transport_* counters,
// live queue depths and the per-message handler-latency histogram.
// Scrape-time reads only; the protocol hot path is untouched.
func (n *Node) RegisterMetrics(reg *MetricsRegistry) {
	label := []string{"node", fmt.Sprint(uint32(n.id))}
	// Stats.Each names the counters as the netsim series columns do, so
	// the simulated and scraped names line up.
	Stats{}.Each(func(name string, _ uint64) {
		reg.CounterFunc("repro_pubsub_"+name+"_total", "protocol counter "+name+" (core.Stats)", func() (v uint64) {
			n.Stats().Each(func(k string, cur uint64) {
				if k == name {
					v = cur
				}
			})
			return v
		}, label...)
	})
	reg.GaugeFunc("repro_pubsub_neighbors",
		"nodes currently in the neighborhood table", func() float64 {
			return float64(len(n.Neighbors()))
		}, label...)
	reg.CounterFunc("repro_pubsub_flight_records_total",
		"lifecycle events captured by the flight recorder", func() uint64 {
			if r := n.flight.Load(); r != nil {
				return r.Total()
			}
			return 0
		}, label...)
	if n.udp != nil {
		n.udp.RegisterMetrics(reg, label...)
	}
}

// StartFlightRecorder arms a bounded ring of the node's last capacity
// lifecycle events: publications, transport sends, receptions,
// application deliveries and (on the built-in UDP transport) drops:
// send-ring evictions and datagrams the kernel dropped on a full socket
// buffer. Recording costs one short mutex hold per event and
// overwrites the oldest entry when full — safe to leave on in
// production. Dump it with WriteFlight. Calling it again replaces the
// ring; the capacity must be positive.
func (n *Node) StartFlightRecorder(capacity int) {
	r := trace.NewRing(capacity)
	if n.udp != nil {
		n.udp.SetDropHook(func() {
			// The dropped message is gone (that is what a drop is), so
			// the record carries only the fact; the
			// repro_transport_{send,recv}_drops_total counters tell a
			// send-ring eviction from a kernel receive drop.
			if ring := n.flight.Load(); ring != nil {
				ring.Add(trace.Record{At: n.flightNow(), Node: n.id, Op: trace.OpDrop})
			}
		})
	}
	n.flight.Store(r)
}

// WriteFlight renders the flight recorder's retained records, oldest
// first, in the trace text format. It reports an error when no recorder
// was started.
func (n *Node) WriteFlight(w io.Writer) error {
	r := n.flight.Load()
	if r == nil {
		return fmt.Errorf("pubsub: node %d: no flight recorder started", n.id)
	}
	return r.WriteText(w)
}

// flightNow timestamps a flight record with the node's wall-clock
// uptime (the same clock the protocol schedules on).
func (n *Node) flightNow() sim.Time { return sim.At(time.Since(n.start)) }

// recordReceive captures an incoming message when the recorder is armed.
func (n *Node) recordReceive(m Message) {
	if r := n.flight.Load(); r != nil {
		r.Add(trace.Record{At: n.flightNow(), Node: n.id, Op: trace.OpReceive, Msg: m.Kind()})
	}
}

// flightTransport wraps the node's transport so armed flight recorders
// see every outgoing broadcast. Unarmed cost is one atomic load. The
// protocol broadcasts only under the node's lock, so the size is
// measured by marshalling into the node's reused buffer.
type flightTransport struct {
	n  *Node
	tr Transport
}

func (f flightTransport) Broadcast(m Message) {
	if r := f.n.flight.Load(); r != nil {
		f.n.wire = event.AppendMarshal(f.n.wire[:0], m)
		r.Add(trace.Record{
			At: f.n.flightNow(), Node: f.n.id, Op: trace.OpSend,
			Msg: m.Kind(), Bytes: len(f.n.wire),
		})
	}
	f.tr.Broadcast(m)
}
