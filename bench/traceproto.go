package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/flood"
	"repro/internal/proto"
	"repro/internal/topic"
)

// The traced simulator runs swap the scenario's protocol for a wrapper
// registered under its own name. The wrapper has the inner protocol's
// params schema, builds the inner protocol with a wrapped environment
// and brackets every call across the protocol boundary with a span:
// into the protocol (HandleMessage, Publish, timer callbacks) and out
// of it (Transport.Broadcast into the MAC, Speed into mobility). It
// draws no randomness and changes no argument, so a traced run's
// Result.Fingerprint equals the untraced one.

const tracedPrefix = "bench-traced-"

// activeSimTracer receives the spans of the simulation in progress. The
// proto registry's factory signature has no room for per-run state, and
// the benchmark runs one traced simulation at a time on one goroutine.
var activeSimTracer *simTracer

func registerTraced(inner, layer string, schema proto.Params) {
	proto.RegisterProtocol(proto.Definition{
		Name:        tracedPrefix + inner,
		Description: "benchmark wrapper: " + inner + " with spans at the protocol boundary",
		Params:      schema,
		New: func(p proto.Params, env proto.Env) (proto.Disseminator, error) {
			tr := activeSimTracer
			if tr == nil || tr.layer != layer {
				return nil, fmt.Errorf("bench: %s%s built outside a traced run", tracedPrefix, inner)
			}
			def, ok := proto.LookupProtocol(inner)
			if !ok {
				return nil, fmt.Errorf("bench: protocol %q not registered", inner)
			}
			node := uint32(env.ID)
			env.Sched = tracedSched{inner: env.Sched, tr: tr, node: node}
			env.Transport = tracedTransport{inner: env.Transport, tr: tr, node: node}
			if speed := env.Speed; speed != nil {
				env.Speed = func() float64 {
					tr.begin(kindSpeed, node, event.ID{})
					v := speed()
					tr.end()
					return v
				}
			}
			d, err := def.New(p, env)
			if err != nil {
				return nil, err
			}
			return &tracedDisseminator{Disseminator: d, tr: tr, node: node}, nil
		},
	})
}

func init() {
	registerTraced(core.ProtocolName, "core", core.Tuning{})
	registerTraced(flood.SimpleName, "flood", flood.Tuning{})
}

type tracedDisseminator struct {
	proto.Disseminator
	tr   *simTracer
	node uint32
}

func (d *tracedDisseminator) HandleMessage(m event.Message) error {
	d.tr.begin(kindHandle, d.node, messageEvent(m))
	err := d.Disseminator.HandleMessage(m)
	d.tr.end()
	return err
}

func (d *tracedDisseminator) Publish(t topic.Topic, payload []byte, validity time.Duration) (event.ID, error) {
	d.tr.begin(kindPublish, d.node, event.ID{})
	id, err := d.Disseminator.Publish(t, payload, validity)
	d.tr.end()
	return id, err
}

type tracedSched struct {
	inner proto.Scheduler
	tr    *simTracer
	node  uint32
}

func (s tracedSched) Now() time.Duration { return s.inner.Now() }

func (s tracedSched) After(d time.Duration, fn func()) proto.Timer {
	return s.inner.After(d, func() {
		s.tr.begin(kindTimer, s.node, event.ID{})
		fn()
		s.tr.end()
	})
}

type tracedTransport struct {
	inner proto.Transport
	tr    *simTracer
	node  uint32
}

func (t tracedTransport) Broadcast(m event.Message) {
	t.tr.begin(kindBroadcast, t.node, messageEvent(m))
	t.inner.Broadcast(m)
	t.tr.end()
}

// messageEvent is the event a message carries, so the sampled spans of
// one event can be found by its id: the first event of a push, nothing
// for heartbeats and id lists.
func messageEvent(m event.Message) event.ID {
	if ev, ok := m.(event.Events); ok && len(ev.Events) > 0 {
		return ev.Events[0].ID
	}
	return event.ID{}
}
