package proto_test

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topic"

	_ "repro/internal/proto/all"
)

func TestRegistryCatalog(t *testing.T) {
	names := proto.ProtocolNames()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("ProtocolNames not sorted: %v", names)
	}
	if len(names) != len(proto.Protocols()) {
		t.Fatal("ProtocolNames and Protocols disagree")
	}
	for _, d := range proto.Protocols() {
		if d.Name == "" || d.Description == "" || d.Params == nil || d.New == nil {
			t.Fatalf("catalog metadata incomplete: %+v", d)
		}
	}
	if _, ok := proto.LookupProtocol("gossip-pushpull"); !ok {
		t.Fatal("gossip-pushpull not registered")
	}
	if _, ok := proto.LookupProtocol("nope"); ok {
		t.Fatal("LookupProtocol(nope) succeeded")
	}
}

func TestCheckParams(t *testing.T) {
	if err := proto.CheckParams("frugal", nil); err != nil {
		t.Fatalf("nil params rejected: %v", err)
	}
	if err := proto.CheckParams("frugal", core.Tuning{HBUpperBound: time.Second}); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	if err := proto.CheckParams("nope", nil); err == nil {
		t.Fatal("unknown name accepted")
	} else if !strings.Contains(err.Error(), "frugal") {
		t.Fatalf("unknown-name error does not list registered ids: %v", err)
	}
	if err := proto.CheckParams("simple-flooding", core.Tuning{}); err == nil {
		t.Fatal("mismatched params type accepted")
	}
	if err := proto.CheckParams("frugal", core.Tuning{HBDelay: -time.Second}); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestBuildUnknownAndMismatched(t *testing.T) {
	if _, err := proto.Build("nope", nil, proto.Env{}); err == nil {
		t.Fatal("Build(nope) succeeded")
	}
	if _, err := proto.Build("simple-flooding", core.Tuning{}, proto.Env{}); err == nil {
		t.Fatal("Build with mismatched params succeeded")
	}
}

func TestRegisterProtocolRejectsBadDefs(t *testing.T) {
	mustPanic := func(name string, d proto.Definition) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: RegisterProtocol did not panic", name)
			}
		}()
		proto.RegisterProtocol(d)
	}
	factory := func(proto.Params, proto.Env) (proto.Disseminator, error) { return nil, nil }
	// Duplicate of an existing registration: rejected before insertion,
	// so the registry the other tests see is untouched.
	mustPanic("duplicate", proto.Definition{
		Name: "frugal", Description: "dup", Params: core.Tuning{}, New: factory,
	})
	mustPanic("unnamed", proto.Definition{Description: "x", Params: core.Tuning{}, New: factory})
	mustPanic("no description", proto.Definition{Name: "x", Params: core.Tuning{}, New: factory})
	mustPanic("no factory", proto.Definition{Name: "x", Description: "x", Params: core.Tuning{}})
	mustPanic("no schema", proto.Definition{Name: "x", Description: "x", New: factory})
}

type nullTransport struct{}

func (nullTransport) Broadcast(event.Message) {}

// TestHandleMessageKnownNeighborAllocs pins the messages a node handles
// most, through the interface the registry hands out: the name lookup
// happens once per node at build time, and from a known neighbor a
// heartbeat that only refreshes its row, an id list that leaves nothing
// to send and a push of an event already stored allocate nothing (each
// message is boxed once here, as the transports' decoders do, so the
// caller's interface conversion is not charged to the handler).
func TestHandleMessageKnownNeighborAllocs(t *testing.T) {
	d, err := proto.Build("frugal", nil, proto.Env{
		ID:        1,
		Sched:     proto.EngineScheduler{Eng: sim.New(1)},
		Transport: nullTransport{},
		Rand:      rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	tp := topic.MustParse(".t")
	if err := d.Subscribe(tp); err != nil {
		t.Fatal(err)
	}
	ev := event.Event{ID: event.ID{Lo: 7}, Topic: tp, Publisher: 2, Validity: time.Hour, Remaining: time.Hour}
	msgs := []struct {
		what string
		m    event.Message
	}{
		// The sender's first heartbeat creates its neighbor row, its
		// first push stores the event: every later one changes nothing.
		{"heartbeat", event.Heartbeat{From: 2, Subscriptions: []topic.Topic{tp}, Speed: 10}},
		{"duplicate event push", event.Events{From: 2, Receivers: []event.NodeID{1, 3}, Events: []event.Event{ev}}},
		{"id list with nothing to send", event.IDList{From: 2, IDs: []event.ID{ev.ID}}},
	}
	for _, msg := range msgs {
		if err := d.HandleMessage(msg.m); err != nil {
			t.Fatal(err)
		}
	}
	for _, msg := range msgs {
		allocs := testing.AllocsPerRun(1000, func() {
			if err := d.HandleMessage(msg.m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s from a known neighbor allocates %.0f times, want 0", msg.what, allocs)
		}
	}
}
