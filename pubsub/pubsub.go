// Package pubsub is the public face of the library: a single import for
// embedding the frugal MANET publish/subscribe protocol in an
// application.
//
// It re-exports the stable pieces of the internal packages — topics,
// events, the wire format, the protocol configuration — and wraps the
// protocol in a goroutine-safe Node with a ready-made wall-clock
// scheduler and UDP transport, so the minimal deployment is:
//
//	node, _ := pubsub.NewUDPNode(pubsub.Config{ID: 1},
//	    "0.0.0.0:7946", []string{
//	        "10.0.0.1:7946", // this node — filtered out automatically
//	        "10.0.0.2:7946", "10.0.0.3:7946"})
//	defer node.Close()
//	node.Subscribe(pubsub.MustParseTopic(".fleet.alerts"))
//	node.Publish(pubsub.MustParseTopic(".fleet.alerts.engine"),
//	    []byte("oil pressure low"), 2*time.Minute)
//
// The same roster file can be handed to every node: entries naming the
// local socket are filtered by (port, local interface-address set),
// which works under wildcard binds like the "0.0.0.0:7946" above — not
// only when the strings happen to match. For a deployment without a
// global roster at all, set UDPTuning.LearnPeers and Suspicion and pass
// only a few seed addresses (see NewUDPNodeTuned).
//
// For simulation and evaluation, use internal/netsim and cmd/experiments
// instead; this package is for running the protocol on real transports.
package pubsub

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/topic"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Re-exported core types. Aliases keep the public surface to one import
// without copying definitions.
type (
	// Topic is a node in the dot-separated topic hierarchy.
	Topic = topic.Topic
	// Event is a published unit of information with a validity period.
	Event = event.Event
	// EventID is a 128-bit globally unique event identifier.
	EventID = event.ID
	// NodeID identifies a process.
	NodeID = event.NodeID
	// Message is a protocol wire message.
	Message = event.Message
	// Config parameterizes a protocol instance; zero tuning fields
	// select the paper's defaults.
	Config = core.Config
	// Transport is the one-hop broadcast primitive.
	Transport = core.Transport
	// Stats are the protocol's cumulative counters.
	Stats = core.Stats
	// TransportStats are the UDP transport's cumulative counters
	// (datagrams, decode errors, send and receive drops, writer batches).
	TransportStats = transport.Stats
)

// UDPTuning selects the membership mode of the built-in UDP transport.
// The zero value is a static roster (the peers passed in, plus AddPeer)
// with no failure detection — NewUDPNode uses exactly that.
type UDPTuning struct {
	// LearnPeers turns the peers list into join seeds: the roster grows
	// from observed datagram sources, so a joining node only needs one
	// reachable seed and the rest of the mesh learns it from its own
	// heartbeats.
	LearnPeers bool
	// Suspicion arms heartbeat-driven failure detection: a peer silent
	// for longer than this window is evicted from the broadcast roster
	// (counted in TransportStats.PeersEvicted). Size it to several
	// protocol heartbeat periods (Config.THeartbeat).
	Suspicion time.Duration
}

// ParseTopic converts a string such as ".a.b" (or "a.b") into a Topic.
func ParseTopic(s string) (Topic, error) { return topic.Parse(s) }

// MustParseTopic is ParseTopic that panics on error.
func MustParseTopic(s string) Topic { return topic.MustParse(s) }

// RootTopic returns ".", the ancestor of every topic.
func RootTopic() Topic { return topic.Root() }

// Marshal encodes a protocol message into its wire format.
func Marshal(m Message) []byte { return event.Marshal(m) }

// Unmarshal decodes a wire-format message.
func Unmarshal(b []byte) (Message, error) { return event.Unmarshal(b) }

// Node is a goroutine-safe protocol instance bound to a transport and
// the wall clock. Create one with NewNode (custom transport) or
// NewUDPNode (built-in UDP peer-group transport).
//
// One lock serialises everything that reaches the protocol: the methods
// below, received messages and the protocol's own timers. Deliveries are
// queued under it and handed to Config.OnDeliver once it is released, so
//   - OnDeliver calls on one node never overlap, and come in delivery
//     order;
//   - they never run under the lock;
//   - they may call any Node method, Publish included;
//   - a Publish or HandleMessage caller that finds no delivery in
//     progress runs the queued deliveries itself before it returns
//     (otherwise the goroutine already delivering picks them up).
type Node struct {
	id    NodeID
	start time.Time      // the wall clock's epoch
	udp   *transport.UDP // nil for custom transports

	mu sync.Mutex
	p  *core.Protocol
	// onDeliver is the caller's Config.OnDeliver. The protocol's
	// deliveries wait in queue until the goroutine that set draining
	// hands them over; spare is the array the previous batch went out
	// in, reused for the next.
	onDeliver    func(Event)
	queue, spare []Event
	draining     bool
	// wire is flightTransport's marshal buffer.
	wire []byte

	// flight, when armed by StartFlightRecorder, captures the node's
	// recent lifecycle events (see observe.go).
	flight atomic.Pointer[trace.Ring]
}

// do runs fn under the node's lock, then hands the deliveries it queued
// to OnDeliver with the lock released. Every call into the protocol goes
// through here.
func (n *Node) do(fn func()) {
	n.mu.Lock()
	fn()
	if n.draining || len(n.queue) == 0 {
		n.mu.Unlock()
		return
	}
	n.draining = true
	for len(n.queue) > 0 {
		batch := n.queue
		n.queue, n.spare = n.spare, nil
		n.mu.Unlock()
		n.deliver(batch)
		n.mu.Lock()
		n.spare = batch[:0]
	}
	n.draining = false
	n.mu.Unlock()
}

// deliver hands batch to OnDeliver, in order, without the lock. Should
// OnDeliver panic, the drain ends there, so that a caller who recovers
// does not leave every later delivery queued behind a draining flag
// nobody clears; the next caller delivers what is still queued.
func (n *Node) deliver(batch []Event) {
	done := false
	defer func() {
		if !done {
			n.mu.Lock()
			n.draining = false
			n.mu.Unlock()
		}
	}()
	for _, ev := range batch {
		n.onDeliver(ev)
	}
	clear(batch) // drop the payload references
	done = true
}

// wallClock is the protocol's scheduler: time since the node was built,
// and timers that enter the protocol through Node.do.
type wallClock struct{ n *Node }

func (c wallClock) Now() time.Duration { return time.Since(c.n.start) }

func (c wallClock) After(d time.Duration, fn func()) core.Timer {
	w := &wallTimer{n: c.n, fn: fn}
	w.Reset(d)
	return w
}

// wallTimer never runs its callback once stopped, as a simulator timer
// cannot: a fired time.Timer's callback may still be waiting for the
// node's lock. So every arming gets a generation, and the callback runs
// fn only if, under the lock, its arming is still the live one. The
// protocol calls Stop and Reset under the same lock.
type wallTimer struct {
	n         *Node
	fn        func()
	t         *time.Timer
	live, gen uint64 // the pending arming (0: none) and the latest
}

func (w *wallTimer) Stop() bool {
	if w.t != nil {
		w.t.Stop()
	}
	was := w.live != 0
	w.live = 0
	return was
}

func (w *wallTimer) Reset(d time.Duration) bool {
	was := w.Stop()
	w.gen++
	gen := w.gen
	w.live = gen
	w.t = time.AfterFunc(d, func() {
		w.n.do(func() {
			if w.live == gen {
				w.live = 0
				w.fn()
			}
		})
	})
	return was
}

// newNode wires a protocol to tr, with deliveries routed through the
// node's queue.
func newNode(cfg Config, tr Transport, udp *transport.UDP) (*Node, error) {
	n := &Node{id: cfg.ID, start: time.Now(), udp: udp, onDeliver: cfg.OnDeliver}
	cfg.OnDeliver = n.delivered
	p, err := core.New(cfg, wallClock{n}, flightTransport{n: n, tr: tr})
	if err != nil {
		return nil, fmt.Errorf("pubsub: %w", err)
	}
	n.p = p
	return n, nil
}

// delivered is the protocol's OnDeliver: under the lock, it only records
// and queues.
func (n *Node) delivered(ev Event) {
	if r := n.flight.Load(); r != nil {
		r.Add(trace.Record{At: n.flightNow(), Node: n.id, Op: trace.OpDeliver, Event: ev.ID})
	}
	if n.onDeliver != nil {
		n.queue = append(n.queue, ev)
	}
}

// NewNode builds a node on a custom transport. Deliver incoming messages
// with Node.HandleMessage; they may arrive from any goroutine.
func NewNode(cfg Config, tr Transport) (*Node, error) {
	if tr == nil {
		return nil, errors.New("pubsub: nil transport")
	}
	return newNode(cfg, tr, nil)
}

// NewUDPNode builds a node with the built-in UDP peer-group transport:
// it binds listen and broadcasts to peers (the roster may include the
// local address; it is filtered out). The transport's read loop is
// started only after the protocol instance is wired, so no datagram can
// reach a half-constructed node.
func NewUDPNode(cfg Config, listen string, peers []string) (*Node, error) {
	return NewUDPNodeTuned(cfg, listen, peers, UDPTuning{})
}

// NewUDPNodeTuned is NewUDPNode with dynamic membership: peers become
// join seeds and silent peers are evicted, as tun selects (see
// cmd/loadgen -membership dynamic for a soak harness built on it).
func NewUDPNodeTuned(cfg Config, listen string, peers []string, tun UDPTuning) (*Node, error) {
	var n *Node
	udp, err := transport.NewUDP(transport.UDPConfig{
		Listen:     listen,
		Peers:      peers,
		Handler:    func(m Message) { _ = n.HandleMessage(m) },
		LearnPeers: tun.LearnPeers,
		Suspicion:  tun.Suspicion,
	})
	if err != nil {
		return nil, fmt.Errorf("pubsub: %w", err)
	}
	if n, err = newNode(cfg, udp, udp); err != nil {
		udp.Close()
		return nil, err
	}
	udp.Start()
	return n, nil
}

// Subscribe registers interest in t and its whole subtree.
func (n *Node) Subscribe(t Topic) (err error) {
	n.do(func() { err = n.p.Subscribe(t) })
	return err
}

// Unsubscribe removes t from the subscription list.
func (n *Node) Unsubscribe(t Topic) { n.do(func() { n.p.Unsubscribe(t) }) }

// Publish disseminates payload on t with the given validity period and
// returns the event id.
func (n *Node) Publish(t Topic, payload []byte, validity time.Duration) (id EventID, err error) {
	n.do(func() { id, err = n.p.Publish(t, payload, validity) })
	if err == nil {
		if r := n.flight.Load(); r != nil {
			r.Add(trace.Record{At: n.flightNow(), Node: n.id, Op: trace.OpPublish, Event: id})
		}
	}
	return id, err
}

// HandleMessage feeds a message received by a custom transport into the
// protocol. Safe to call from any goroutine.
func (n *Node) HandleMessage(m Message) (err error) {
	n.recordReceive(m)
	n.do(func() { err = n.p.HandleMessage(m) })
	return err
}

// Neighbors returns the ids currently in the neighborhood table.
func (n *Node) Neighbors() (ids []NodeID) {
	n.do(func() { ids = n.p.NeighborIDs() })
	return ids
}

// HasEvent reports whether the node's event table holds id.
func (n *Node) HasEvent(id EventID) (ok bool) {
	n.do(func() { ok = n.p.HasEvent(id) })
	return ok
}

// Stats returns a snapshot of the protocol counters.
func (n *Node) Stats() (st Stats) {
	n.do(func() { st = n.p.Stats() })
	return st
}

// TransportStats returns a snapshot of the UDP transport counters, or
// the zero value for custom transports.
func (n *Node) TransportStats() TransportStats {
	if n.udp == nil {
		return TransportStats{}
	}
	return n.udp.Stats()
}

// LocalAddr returns the UDP listen address, or nil for custom
// transports.
func (n *Node) LocalAddr() string {
	if n.udp == nil {
		return ""
	}
	return n.udp.LocalAddr().String()
}

// AddPeer extends the UDP roster at runtime. It errors on custom
// transports.
func (n *Node) AddPeer(addr string) error {
	if n.udp == nil {
		return errors.New("pubsub: AddPeer requires the UDP transport")
	}
	return n.udp.AddPeer(addr)
}

// RemovePeer drops addr from the UDP broadcast roster, reporting
// whether it was present. It is false (and a no-op) on custom
// transports.
func (n *Node) RemovePeer(addr string) bool {
	if n.udp == nil {
		return false
	}
	return n.udp.RemovePeer(addr)
}

// Peers returns the UDP transport's current broadcast roster, sorted —
// the transport-level membership view, as opposed to Neighbors, which
// is the protocol-level neighborhood table built from heartbeats. Nil
// on custom transports.
func (n *Node) Peers() []string {
	if n.udp == nil {
		return nil
	}
	return n.udp.Peers()
}

// Close stops the protocol and releases the transport.
func (n *Node) Close() error {
	n.do(n.p.Stop)
	if n.udp != nil {
		return n.udp.Close()
	}
	return nil
}
