// Package core implements the paper's frugal topic-based
// publish/subscribe protocol for mobile ad-hoc networks (Baehni, Chhabra,
// Guerraoui — Middleware 2005, Section 4).
//
// The protocol runs directly on a one-hop broadcast medium and goes
// through three phases:
//
//  1. Neighborhood detection: periodic heartbeats carry the node's
//     subscriptions and (optionally) its speed; nodes with overlapping
//     subscriptions exchange the identifiers of the valid events they
//     hold. The heartbeat period adapts to the average neighbor speed.
//  2. Dissemination: a node that knows a matching neighbor misses an
//     event broadcasts it after a back-off inversely proportional to the
//     number of events to send; overhearing the event for someone else
//     cancels one's own pending send.
//  3. Garbage collection: neighborhood entries expire after a multiple of
//     the heartbeat period; when the bounded event table is full, the
//     event minimizing val(e)/(fwd(e)+val(e)) is evicted (expired events
//     first).
//
// The protocol is transport-agnostic: it talks to the outside world only
// through the small Clock/Scheduler/Transport interfaces, so the same
// code runs on the discrete-event simulator (internal/netsim) and on real
// time (pubsub.Node; see ExampleNewNode).
//
// Concurrency contract: a Protocol instance is single-threaded. All entry
// points (Subscribe, Publish, HandleMessage, timer callbacks scheduled via
// the Scheduler) must be invoked serially. pubsub.Node serialises one for
// use from multiple goroutines.
package core

import (
	"repro/internal/proto"
)

// The protocol-facing interfaces and the shared counters live in
// internal/proto (the protocol layer's neutral ground, shared with the
// flooding/gossip baselines and the registry); these aliases keep the
// historical core-qualified names working for deployments and tests.

// Timer is a cancellable pending callback, as returned by Scheduler.After.
type Timer = proto.Timer

// Scheduler abstracts time for the protocol: the simulator provides
// virtual time, real deployments provide the wall clock.
type Scheduler = proto.Scheduler

// Transport is the one-hop broadcast primitive of the underlying MAC
// layer. Broadcast must not call back into the Protocol synchronously
// with a received message on a real concurrent transport; the simulator's
// in-order delivery is fine because everything stays on one logical
// thread.
type Transport = proto.Transport

// Stats counts protocol activity; all counters are cumulative since
// creation. Snapshot via Protocol.Stats.
type Stats = proto.Stats
