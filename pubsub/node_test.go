package pubsub_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/pubsub"
)

// nullTransport drops every broadcast.
type nullTransport struct{}

func (nullTransport) Broadcast(pubsub.Message) {}

// push is an event message from node 2 carrying one fresh event on tp,
// boxed once as the transports' decoders box it.
func push(lo uint64, tp pubsub.Topic) pubsub.Message {
	ev := pubsub.Event{ID: pubsub.EventID{Lo: lo}, Topic: tp, Publisher: 2, Validity: time.Hour, Remaining: time.Hour}
	return event.Events{From: 2, Receivers: []pubsub.NodeID{1}, Events: []pubsub.Event{ev}}
}

// TestOnDeliverMayCallBack calls back into the delivering node from
// OnDeliver — Publish, Subscribe, Stats and Neighbors — on both paths
// that deliver: the publisher's own copy and a received push. A node
// that called OnDeliver under its lock would hang here, so failure is a
// timeout, and the hung node is deliberately never closed.
func TestOnDeliverMayCallBack(t *testing.T) {
	tp, other := pubsub.MustParseTopic(".t"), pubsub.MustParseTopic(".u")
	var n *pubsub.Node
	var calls atomic.Int32
	done := make(chan error, 4)
	n, err := pubsub.NewNode(pubsub.Config{ID: 1, OnDeliver: func(ev pubsub.Event) {
		// The first two deliveries call back into the node, every
		// later one only reports.
		if calls.Add(1) > 2 {
			done <- nil
			return
		}
		_, err := n.Publish(tp, []byte("from OnDeliver"), time.Minute)
		if err == nil {
			err = n.Subscribe(other)
		}
		_ = n.Stats()
		_ = n.Neighbors()
		done <- err
	}}, nullTransport{})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Subscribe(tp); err != nil {
		t.Fatal(err)
	}
	go func() {
		if _, err := n.Publish(tp, []byte("first"), time.Minute); err != nil {
			done <- err
		}
		if err := n.HandleMessage(push(7, tp)); err != nil {
			done <- err
		}
	}()
	for i := 0; i < 4; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("delivery %d never completed: a call back into the node from OnDeliver hangs", i+1)
		}
	}
	if st := n.Stats(); st.Published != 3 || st.Delivered != 4 {
		t.Fatalf("published %d, delivered %d; want 3 and 4", st.Published, st.Delivered)
	}
	n.Close()
}

// TestOnDeliverNeverOverlaps delivers at once from several HandleMessage
// goroutines and from Publish while 1 ms heartbeat timers take the same
// lock: OnDeliver must never run twice at a time, and every delivery
// must have run by the time the callers have returned.
func TestOnDeliverNeverOverlaps(t *testing.T) {
	const senders, perSender, publishes = 4, 50, 50
	tp := pubsub.MustParseTopic(".t")
	var inFlight, overlaps, delivered atomic.Int32
	n, err := pubsub.NewNode(pubsub.Config{
		ID: 1, HBDelay: time.Millisecond, HBLowerBound: time.Millisecond, HBUpperBound: time.Millisecond,
		OnDeliver: func(pubsub.Event) {
			if inFlight.Add(1) > 1 {
				overlaps.Add(1)
			}
			time.Sleep(10 * time.Microsecond) // widen the window
			delivered.Add(1)
			inFlight.Add(-1)
		},
	}, nullTransport{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Subscribe(tp); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := n.HandleMessage(push(uint64(s*perSender+i+1), tp)); err != nil {
					t.Error(err)
				}
			}
		}(s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < publishes; i++ {
			if _, err := n.Publish(tp, nil, time.Minute); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	if o := overlaps.Load(); o != 0 {
		t.Fatalf("%d OnDeliver calls started while another was running", o)
	}
	if got, want := delivered.Load(), int32(senders*perSender+publishes); got != want {
		t.Fatalf("%d deliveries ran by the time the callers returned, want %d", got, want)
	}
	if st := n.Stats(); st.HeartbeatsSent == 0 {
		t.Fatal("no heartbeat timer fired during the run")
	}
}

// TestNodeConcurrentUse publishes while a remote peer's heartbeats and
// id lists and a reader's Stats and Neighbors calls arrive concurrently,
// with the node's own heartbeat timers firing.
func TestNodeConcurrentUse(t *testing.T) {
	tp := pubsub.MustParseTopic(".t")
	n, err := pubsub.NewNode(pubsub.Config{ID: 1, HBDelay: 5 * time.Millisecond, HBUpperBound: 5 * time.Millisecond}, nullTransport{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Subscribe(tp); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := n.Publish(tp, nil, time.Minute); err != nil {
				t.Errorf("Publish: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = n.HandleMessage(event.Heartbeat{From: 2, Subscriptions: []pubsub.Topic{tp}, Speed: -1})
			_ = n.HandleMessage(event.IDList{From: 2})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			n.Stats()
			n.Neighbors()
		}
	}()
	wg.Wait()

	// Let a few heartbeat timers fire.
	time.Sleep(30 * time.Millisecond)
	if st := n.Stats(); st.Published != 50 {
		t.Fatalf("published = %d, want 50", st.Published)
	}
	if ids := n.Neighbors(); len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("neighbors = %v", ids)
	}
}

// TestNodeDelegation checks that Node reaches the protocol: an event is
// held once published, and unsubscribing an unknown topic is a no-op.
func TestNodeDelegation(t *testing.T) {
	n, err := pubsub.NewNode(pubsub.Config{ID: 7}, nullTransport{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	id, err := n.Publish(pubsub.MustParseTopic(".a"), []byte("x"), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !n.HasEvent(id) {
		t.Fatal("HasEvent false after Publish")
	}
	n.Unsubscribe(pubsub.MustParseTopic(".a")) // no-op, must not panic
}

// TestNodeHandleMessageAllocs pins what the lock and the delivery queue
// add to the protocol's receive path, with the flight recorder unarmed:
// nothing. From a known neighbor, a heartbeat that only refreshes its
// row, a duplicate push and an id list that leaves nothing to send
// allocate nothing through Node.HandleMessage (as through core, see
// proto's TestHandleMessageKnownNeighborAllocs), and a push that
// delivers allocates no more than the same push handed to a bare
// core.Protocol.
func TestNodeHandleMessageAllocs(t *testing.T) {
	tp := pubsub.MustParseTopic(".t")
	cfg := pubsub.Config{ID: 1, OnDeliver: func(pubsub.Event) {}}
	n, err := pubsub.NewNode(cfg, nullTransport{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	p, err := core.New(cfg, proto.EngineScheduler{Eng: sim.New(1)}, nullTransport{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []func(pubsub.Topic) error{n.Subscribe, p.Subscribe} {
		if err := sub(tp); err != nil {
			t.Fatal(err)
		}
	}
	msgs := []struct {
		what string
		m    pubsub.Message
	}{
		// The first heartbeat creates the neighbor row, the first push
		// stores the event: every later one changes nothing.
		{"heartbeat", event.Heartbeat{From: 2, Subscriptions: []pubsub.Topic{tp}, Speed: 10}},
		{"duplicate event push", push(1<<40, tp)},
		{"id list with nothing to send", event.IDList{From: 2, IDs: []pubsub.EventID{{Lo: 1 << 40}}}},
	}
	for _, handle := range []func(pubsub.Message) error{n.HandleMessage, p.HandleMessage} {
		for _, msg := range msgs {
			if err := handle(msg.m); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, msg := range msgs {
		allocs := testing.AllocsPerRun(1000, func() {
			if err := n.HandleMessage(msg.m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s from a known neighbor allocates %.0f times through Node, want 0", msg.what, allocs)
		}
	}

	// Fresh events, one per run plus AllocsPerRun's warm-up; a few
	// delivered beforehand fill the node's two queue arrays.
	const warm, runs = 4, 100
	delivering := func(handle func(pubsub.Message) error) float64 {
		fresh := make([]pubsub.Message, warm+runs+1)
		for i := range fresh {
			fresh[i] = push(uint64(i+1), tp)
		}
		for _, m := range fresh[:warm] {
			if err := handle(m); err != nil {
				t.Fatal(err)
			}
		}
		next := warm
		return testing.AllocsPerRun(runs, func() {
			if err := handle(fresh[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	viaNode, viaCore := delivering(n.HandleMessage), delivering(p.HandleMessage)
	t.Logf("a delivering push allocates %.0f times through Node, %.0f through core", viaNode, viaCore)
	if viaNode > viaCore {
		t.Errorf("a delivering push allocates %.0f times through Node, %.0f through core.Protocol", viaNode, viaCore)
	}
}

// TestOnDeliverPanicDoesNotWedge recovers a panicking OnDeliver at the
// Publish that ran it: the node must go on delivering afterwards.
func TestOnDeliverPanicDoesNotWedge(t *testing.T) {
	tp := pubsub.MustParseTopic(".t")
	var calls atomic.Int32
	n, err := pubsub.NewNode(pubsub.Config{ID: 1, OnDeliver: func(pubsub.Event) {
		if calls.Add(1) == 1 {
			panic("first delivery")
		}
	}}, nullTransport{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Subscribe(tp); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("OnDeliver's panic did not reach the Publish caller")
			}
		}()
		_, _ = n.Publish(tp, nil, time.Minute)
	}()
	if _, err := n.Publish(tp, nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("OnDeliver ran %d times, want 2: the node stopped delivering after a panic", got)
	}
}
