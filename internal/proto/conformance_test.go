package proto_test

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topic"

	// Populate the registry with every built-in protocol: the suite is
	// table-driven over proto.Protocols(), so a new registration is
	// covered automatically once it is wired into proto/all.
	_ "repro/internal/proto/all"
)

// The conformance suite (modeled on internal/core's chaos tests) is the
// contract every registered protocol must honor, with its default
// params, under a hostile transport that drops, duplicates and reorders
// messages:
//
//   - safety: no panics, no event delivered twice by one node, no
//     deliveries outside the node's subscriptions (no parasite
//     deliveries), regardless of loss;
//   - stats: every counter is monotonically non-decreasing;
//   - progress: at moderate loss, at least some subscriber beyond the
//     publisher receives a published event (single-shot schemes cover
//     their connected wave; everyone retries or floods);
//   - determinism: identical seeds produce identical counters.

// confHarness wires N protocol instances to a chaos bus.
type confHarness struct {
	t     *testing.T
	eng   *sim.Engine
	ids   []event.NodeID
	nodes map[event.NodeID]proto.Disseminator
	deliv map[event.NodeID][]event.Event
}

// chaosBus drops, duplicates and delays every broadcast independently
// per receiver.
type chaosBus struct {
	h     *confHarness
	from  event.NodeID
	rng   *rand.Rand
	dropP float64
	dupP  float64
}

func (b *chaosBus) Broadcast(m event.Message) {
	for _, id := range b.h.ids {
		if id == b.from {
			continue
		}
		if b.rng.Float64() < b.dropP {
			continue
		}
		copies := 1
		if b.rng.Float64() < b.dupP {
			copies = 2
		}
		node := b.h.nodes[id]
		for c := 0; c < copies; c++ {
			delay := time.Millisecond + time.Duration(b.rng.Int63n(int64(200*time.Millisecond)))
			b.h.eng.After(delay, func() {
				if err := node.HandleMessage(m); err != nil {
					b.h.t.Errorf("node %v rejected %T: %v", id, m, err)
				}
			})
		}
	}
}

func newConfHarness(t *testing.T, def proto.Definition, seed int64, dropP, dupP float64) *confHarness {
	t.Helper()
	h := &confHarness{
		t:     t,
		eng:   sim.New(seed),
		nodes: make(map[event.NodeID]proto.Disseminator),
		deliv: make(map[event.NodeID][]event.Event),
	}
	const n = 6
	for id := event.NodeID(1); id <= n; id++ {
		id := id
		env := proto.Env{
			ID:        id,
			Sched:     proto.EngineScheduler{Eng: h.eng},
			Transport: &chaosBus{h: h, from: id, rng: rand.New(rand.NewSource(seed*31 + int64(id))), dropP: dropP, dupP: dupP},
			Rand:      rand.New(rand.NewSource(seed*97 + int64(id))),
			OnDeliver: func(ev event.Event) { h.deliv[id] = append(h.deliv[id], ev) },
		}
		d, err := def.New(def.Params, env)
		if err != nil {
			t.Fatalf("%s: factory with default params failed: %v", def.Name, err)
		}
		sub := ".t"
		if id == n {
			sub = ".other" // the parasite observer
		}
		if err := d.Subscribe(topic.MustParse(sub)); err != nil {
			t.Fatalf("%s: Subscribe failed: %v", def.Name, err)
		}
		h.nodes[id] = d
		h.ids = append(h.ids, id)
	}
	return h
}

// run executes the standard chaos scenario and returns the final
// per-node stats (in id order), checking monotonicity along the way.
func (h *confHarness) run() []proto.Stats {
	h.t.Helper()
	h.eng.RunUntil(sim.Seconds(5))
	for i := 0; i < 3; i++ {
		if _, err := h.nodes[1].Publish(topic.MustParse(".t"), nil, 10*time.Minute); err != nil {
			h.t.Fatalf("Publish failed: %v", err)
		}
	}
	prev := make([]proto.Stats, len(h.ids))
	for at := 10.0; at <= 150; at += 10 {
		h.eng.RunUntil(sim.Seconds(at))
		for i, id := range h.ids {
			cur := h.nodes[id].Stats()
			assertMonotonic(h.t, id, prev[i], cur)
			prev[i] = cur
		}
	}
	return prev
}

// assertMonotonic checks field-wise that b >= a, by reflection so new
// Stats counters are covered automatically.
func assertMonotonic(t *testing.T, id event.NodeID, a, b proto.Stats) {
	t.Helper()
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if vb.Field(i).Uint() < va.Field(i).Uint() {
			t.Fatalf("node %v: Stats.%s decreased: %d -> %d",
				id, va.Type().Field(i).Name, va.Field(i).Uint(), vb.Field(i).Uint())
		}
	}
}

func TestProtocolConformance(t *testing.T) {
	defs := proto.Protocols()
	if len(defs) < 7 {
		t.Fatalf("only %d protocols registered; the six historical ones plus gossip must be wired in", len(defs))
	}
	for _, def := range defs {
		def := def
		t.Run(def.Name, func(t *testing.T) {
			h := newConfHarness(t, def, 11, 0.3, 0.3)
			final := h.run()

			// Safety: nobody delivers an event twice.
			for id, evs := range h.deliv {
				seen := make(map[event.ID]bool)
				for _, ev := range evs {
					if seen[ev.ID] {
						t.Fatalf("node %v delivered %v twice under chaos", id, ev.ID)
					}
					seen[ev.ID] = true
				}
			}
			// Safety: the parasite observer (subscribed to .other)
			// never delivers the .t events.
			if got := len(h.deliv[6]); got != 0 {
				t.Fatalf("parasite observer delivered %d events", got)
			}
			// Progress: at 30%% loss, some subscriber beyond the
			// publisher must have received something.
			remote := 0
			for id := event.NodeID(2); id <= 5; id++ {
				remote += len(h.deliv[id])
			}
			if remote == 0 {
				t.Fatal("no remote deliveries at moderate loss")
			}
			// Determinism: same seed, same counters.
			h2 := newConfHarness(t, def, 11, 0.3, 0.3)
			final2 := h2.run()
			for i := range final {
				if final[i] != final2[i] {
					t.Fatalf("node %v stats differ across identical runs:\n%+v\n%+v",
						h.ids[i], final[i], final2[i])
				}
			}
			// Stop is permanent and safe to repeat.
			h.nodes[2].Stop()
			h.nodes[2].Stop()
			if err := h.nodes[2].HandleMessage(event.Heartbeat{From: 3}); err != nil {
				t.Fatalf("stopped protocol rejected a message: %v", err)
			}
		})
	}
}

// TestProtocolConformanceHeavyLoss runs the suite's safety half at 90%%
// loss: progress is not guaranteed, but invariants must hold and
// nothing may panic.
func TestProtocolConformanceHeavyLoss(t *testing.T) {
	for _, def := range proto.Protocols() {
		def := def
		t.Run(def.Name, func(t *testing.T) {
			h := newConfHarness(t, def, 23, 0.9, 0.5)
			h.run()
			for id, evs := range h.deliv {
				seen := make(map[event.ID]bool)
				for _, ev := range evs {
					if seen[ev.ID] {
						t.Fatalf("node %v delivered %v twice under heavy loss", id, ev.ID)
					}
					seen[ev.ID] = true
				}
			}
			if got := len(h.deliv[6]); got != 0 {
				t.Fatalf("parasite observer delivered %d events", got)
			}
		})
	}
}

// TestProtocolInputContract is the one statement of what every
// registered protocol does with bad or degenerate input, whatever its
// dissemination rule: the factory needs its environment, Publish and
// Subscribe validate their arguments and refuse a stopped instance, a
// node's own broadcast echoed back changes nothing, and a node that
// unsubscribed its last topic delivers nothing more.
func TestProtocolInputContract(t *testing.T) {
	tp := topic.MustParse(".t")
	for _, def := range proto.Protocols() {
		t.Run(def.Name, func(t *testing.T) {
			if _, err := def.New(def.Params, proto.Env{ID: 1}); err == nil {
				t.Error("factory accepted an environment without scheduler, transport and rand")
			}
			delivered := 0
			d, err := def.New(def.Params, proto.Env{
				ID:        1,
				Sched:     proto.EngineScheduler{Eng: sim.New(1)},
				Transport: nullTransport{},
				Rand:      rand.New(rand.NewSource(1)),
				OnDeliver: func(event.Event) { delivered++ },
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Subscribe(topic.Topic{}); err == nil {
				t.Error("Subscribe accepted the zero topic")
			}
			if err := d.Subscribe(tp); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Publish(topic.Topic{}, nil, time.Minute); err == nil {
				t.Error("Publish accepted the zero topic")
			}
			for _, validity := range []time.Duration{0, -time.Second} {
				if _, err := d.Publish(tp, nil, validity); err == nil {
					t.Errorf("Publish accepted validity %v", validity)
				}
			}

			incoming := func(from event.NodeID, lo uint64) event.Events {
				return event.Events{From: from, Events: []event.Event{{
					ID: event.ID{Lo: lo}, Topic: tp, Publisher: 2, Validity: time.Hour, Remaining: time.Hour,
				}}}
			}
			before := d.Stats()
			for _, m := range []event.Message{
				event.Heartbeat{From: 1, Subscriptions: []topic.Topic{tp}, Speed: -1},
				event.IDList{From: 1, IDs: []event.ID{{Lo: 7}}},
				incoming(1, 7),
			} {
				if err := d.HandleMessage(m); err != nil {
					t.Errorf("own %T rejected: %v", m, err)
				}
			}
			if after := d.Stats(); after != before {
				t.Errorf("own messages changed the counters:\n%+v\n%+v", before, after)
			}

			if err := d.HandleMessage(incoming(2, 8)); err != nil {
				t.Fatal(err)
			}
			if delivered != 1 {
				t.Fatalf("subscribed node delivered %d events, want 1", delivered)
			}
			d.Unsubscribe(tp)
			if err := d.HandleMessage(incoming(2, 9)); err != nil {
				t.Fatal(err)
			}
			if delivered != 1 {
				t.Errorf("node delivered after unsubscribing its last topic")
			}

			d.Stop()
			if _, err := d.Publish(tp, nil, time.Minute); err == nil {
				t.Error("stopped instance accepted Publish")
			}
			if err := d.Subscribe(tp); err == nil {
				t.Error("stopped instance accepted Subscribe")
			}
		})
	}
}

// TestSubscriptionChangeRecounts pins what each baseline's receive path
// counts when the subscription set changes between copies of one event:
// a copy is a parasite exactly while its topic is uncovered, whatever
// verdict an earlier copy on the same topic got. The keep-parasite
// baselines (simple flooding, the storm schemes) hold the event either
// way, so the copy after Unsubscribe is also a duplicate; the others
// drop it before the store is consulted.
func TestSubscriptionChangeRecounts(t *testing.T) {
	tp := topic.MustParse(".t")
	type counts struct{ delivered, parasites, duplicates uint64 }
	keep := [4]counts{{1, 0, 0}, {1, 1, 1}, {1, 1, 2}, {2, 1, 2}}
	drop := [4]counts{{1, 0, 0}, {1, 1, 0}, {1, 1, 1}, {2, 1, 1}}
	want := map[string][4]counts{
		"simple-flooding":              keep,
		"probabilistic-broadcast":      keep,
		"counter-based-broadcast":      keep,
		"interests-aware-flooding":     drop,
		"neighbors-interests-flooding": drop,
		"gossip-pushpull":              drop,
	}
	copyOf := func(lo uint64) event.Events {
		return event.Events{From: 2, Events: []event.Event{{
			ID: event.ID{Lo: lo}, Topic: tp, Publisher: 2, Validity: time.Hour, Remaining: time.Hour,
		}}}
	}
	seen := 0
	for _, def := range proto.Protocols() {
		if def.Name == core.ProtocolName {
			continue
		}
		seen++
		t.Run(def.Name, func(t *testing.T) {
			steps, ok := want[def.Name]
			if !ok {
				t.Fatalf("no expected counts for baseline %q", def.Name)
			}
			d, err := def.New(def.Params, proto.Env{
				ID:        1,
				Sched:     proto.EngineScheduler{Eng: sim.New(1)},
				Transport: nullTransport{},
				Rand:      rand.New(rand.NewSource(1)),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Subscribe(tp); err != nil {
				t.Fatal(err)
			}
			for i, step := range []func() error{
				// A first copy on the subscribed topic.
				func() error { return d.HandleMessage(copyOf(8)) },
				// The same event after the topic is dropped.
				func() error { d.Unsubscribe(tp); return d.HandleMessage(copyOf(8)) },
				// The same event once more after the topic is back.
				func() error {
					if err := d.Subscribe(tp); err != nil {
						return err
					}
					return d.HandleMessage(copyOf(8))
				},
				// A fresh event on the topic.
				func() error { return d.HandleMessage(copyOf(9)) },
			} {
				if err := step(); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				s := d.Stats()
				if got := (counts{s.Delivered, s.Parasites, s.Duplicates}); got != steps[i] {
					t.Errorf("step %d: delivered/parasites/duplicates = %v, want %v", i, got, steps[i])
				}
			}
		})
	}
	if seen != len(want) {
		t.Errorf("%d baselines registered, the table covers %d", seen, len(want))
	}
}
