// Package proto is the protocol layer's neutral ground: the
// Disseminator interface every dissemination protocol implements, the
// small environment interfaces a protocol needs (Scheduler, Transport),
// the shared Stats counters, and a registry that maps protocol names to
// factories (see registry.go).
//
// The package sits below the concrete protocol packages (internal/core,
// internal/flood, internal/gossip): they import proto and register
// themselves in init, and the simulation runner (internal/netsim)
// resolves protocols purely by name through the registry. Adding a
// baseline is therefore a one-package change plus a blank import in
// internal/proto/all — no runner or harness dispatch code is touched.
package proto

import (
	"math/rand"
	"time"

	"repro/internal/event"
	"repro/internal/topic"
)

// Timer is a cancellable pending callback, as returned by
// Scheduler.After.
type Timer interface {
	// Stop cancels the callback if it has not run yet and reports
	// whether it did.
	Stop() bool
	// Reset re-arms the callback to run d from now, cancelling a
	// pending run, and reports whether it did.
	Reset(d time.Duration) bool
}

// Scheduler abstracts time for a protocol: the simulator provides
// virtual time, real deployments provide the wall clock.
type Scheduler interface {
	// Now returns the time elapsed since an arbitrary fixed epoch. It
	// must be monotonically non-decreasing.
	Now() time.Duration
	// After schedules fn to run d from now on the protocol's thread.
	After(d time.Duration, fn func()) Timer
}

// Transport is the one-hop broadcast primitive of the underlying MAC
// layer. Broadcast must not call back into the protocol synchronously
// with a received message on a real concurrent transport; the
// simulator's in-order delivery is fine because everything stays on one
// logical thread.
type Transport interface {
	Broadcast(m event.Message)
}

// Stats counts protocol activity; all counters are cumulative since
// creation and must be monotonically non-decreasing (the conformance
// suite checks this for every registered protocol). Counters that a
// protocol has no use for simply stay zero.
type Stats struct {
	HeartbeatsSent uint64
	IDListsSent    uint64
	EventMsgsSent  uint64 // Events messages broadcast
	EventsSent     uint64 // event copies across all Events messages
	EventsReceived uint64 // event copies heard, any topic
	Delivered      uint64 // events handed to the application
	Duplicates     uint64 // received events already stored/delivered
	Parasites      uint64 // received events outside our subscriptions
	ExpiredDrops   uint64 // received events already past validity
	Published      uint64
	TableEvictions uint64 // events evicted by the gc(e) policy
	NeighborsGCed  uint64
}

// Add returns a + b field by field: how a crashed incarnation's
// counters are merged into its successor's. A new counter must be added
// here and in Sub (TestStatsAddSubCoverEveryField fails otherwise).
func (a Stats) Add(b Stats) Stats {
	return Stats{
		HeartbeatsSent: a.HeartbeatsSent + b.HeartbeatsSent,
		IDListsSent:    a.IDListsSent + b.IDListsSent,
		EventMsgsSent:  a.EventMsgsSent + b.EventMsgsSent,
		EventsSent:     a.EventsSent + b.EventsSent,
		EventsReceived: a.EventsReceived + b.EventsReceived,
		Delivered:      a.Delivered + b.Delivered,
		Duplicates:     a.Duplicates + b.Duplicates,
		Parasites:      a.Parasites + b.Parasites,
		ExpiredDrops:   a.ExpiredDrops + b.ExpiredDrops,
		Published:      a.Published + b.Published,
		TableEvictions: a.TableEvictions + b.TableEvictions,
		NeighborsGCed:  a.NeighborsGCed + b.NeighborsGCed,
	}
}

// Sub returns a - b field by field: the counters accumulated since the
// snapshot b (warm-up baselines, sampling windows).
func (a Stats) Sub(b Stats) Stats {
	return Stats{
		HeartbeatsSent: a.HeartbeatsSent - b.HeartbeatsSent,
		IDListsSent:    a.IDListsSent - b.IDListsSent,
		EventMsgsSent:  a.EventMsgsSent - b.EventMsgsSent,
		EventsSent:     a.EventsSent - b.EventsSent,
		EventsReceived: a.EventsReceived - b.EventsReceived,
		Delivered:      a.Delivered - b.Delivered,
		Duplicates:     a.Duplicates - b.Duplicates,
		Parasites:      a.Parasites - b.Parasites,
		ExpiredDrops:   a.ExpiredDrops - b.ExpiredDrops,
		Published:      a.Published - b.Published,
		TableEvictions: a.TableEvictions - b.TableEvictions,
		NeighborsGCed:  a.NeighborsGCed - b.NeighborsGCed,
	}
}

// Each calls fn once per counter, in declaration order, with the
// counter's column name: the one vocabulary the simulator's series
// (proto_<name>) and a live node's metrics (repro_pubsub_<name>_total)
// share. A new counter must be added here too (the same test checks).
func (a Stats) Each(fn func(name string, v uint64)) {
	fn("heartbeats_sent", a.HeartbeatsSent)
	fn("idlists_sent", a.IDListsSent)
	fn("event_msgs_sent", a.EventMsgsSent)
	fn("events_sent", a.EventsSent)
	fn("events_received", a.EventsReceived)
	fn("delivered", a.Delivered)
	fn("duplicates", a.Duplicates)
	fn("parasites", a.Parasites)
	fn("expired_drops", a.ExpiredDrops)
	fn("published", a.Published)
	fn("table_evictions", a.TableEvictions)
	fn("neighbors_gced", a.NeighborsGCed)
}

// Disseminator is the surface the simulation runner (and any other
// host) needs from a dissemination protocol. All implementations are
// single-threaded: every entry point, including timer callbacks
// scheduled through the Scheduler, must be invoked serially.
type Disseminator interface {
	Subscribe(topic.Topic) error
	Unsubscribe(topic.Topic)
	Publish(topic.Topic, []byte, time.Duration) (event.ID, error)
	HandleMessage(event.Message) error
	Stats() Stats
	Stop()
}

// Env is the per-node environment the runner supplies to a protocol
// factory. Everything a protocol instance touches outside its own
// params comes through here, which is what keeps a simulation run a
// pure function of (Scenario, Seed).
type Env struct {
	// ID is the process identifier.
	ID event.NodeID
	// Sched provides time and timers.
	Sched Scheduler
	// Transport is the one-hop broadcast primitive.
	Transport Transport
	// Rand is the node's private RNG stream; protocols must draw all
	// randomness from it.
	Rand *rand.Rand
	// OnDeliver is invoked once per application delivery. Optional.
	OnDeliver func(event.Event)
	// Speed reports the node's current speed in m/s for protocols that
	// exploit it (the paper's tachometer optimization). Optional; nil
	// or a negative return means unknown.
	Speed func() float64
}
