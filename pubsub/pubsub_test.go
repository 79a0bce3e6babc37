package pubsub_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/event"
	"repro/pubsub"
)

func TestParseTopicHelpers(t *testing.T) {
	tp, err := pubsub.ParseTopic("a.b")
	if err != nil || tp.String() != ".a.b" {
		t.Fatalf("ParseTopic = %v, %v", tp, err)
	}
	if _, err := pubsub.ParseTopic("a..b"); err == nil {
		t.Fatal("bad topic accepted")
	}
	if !pubsub.RootTopic().Contains(tp) {
		t.Fatal("root must contain everything")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseTopic should panic on bad input")
		}
	}()
	pubsub.MustParseTopic("..")
}

func TestMarshalRoundTripThroughFacade(t *testing.T) {
	hb := event.Heartbeat{From: 9, Speed: -1}
	back, err := pubsub.Unmarshal(pubsub.Marshal(hb))
	if err != nil {
		t.Fatal(err)
	}
	if back.Sender() != 9 {
		t.Fatalf("sender = %v", back.Sender())
	}
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := pubsub.NewNode(pubsub.Config{ID: 1}, nil); err == nil {
		t.Fatal("nil transport accepted")
	}
	if _, err := pubsub.NewUDPNode(pubsub.Config{ID: 1}, "256.0.0.1:bad", nil); err == nil {
		t.Fatal("bad listen address accepted")
	}
}

// chanTransport is a custom Transport for the NewNode path.
type chanTransport struct {
	mu    sync.Mutex
	peers []*pubsub.Node
}

func (c *chanTransport) Broadcast(m pubsub.Message) {
	c.mu.Lock()
	peers := append([]*pubsub.Node(nil), c.peers...)
	c.mu.Unlock()
	for _, p := range peers {
		p := p
		go func() { _ = p.HandleMessage(m) }()
	}
}

func TestCustomTransportNode(t *testing.T) {
	news := pubsub.MustParseTopic(".x")
	trA, trB := &chanTransport{}, &chanTransport{}

	got := make(chan pubsub.Event, 1)
	cfg := pubsub.Config{ID: 1, HBDelay: 50 * time.Millisecond, HBUpperBound: 50 * time.Millisecond}
	a, err := pubsub.NewNode(cfg, trA)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	cfgB := pubsub.Config{
		ID: 2, HBDelay: 50 * time.Millisecond, HBUpperBound: 50 * time.Millisecond,
		OnDeliver: func(ev pubsub.Event) {
			select {
			case got <- ev:
			default:
			}
		},
	}
	b, err := pubsub.NewNode(cfgB, trB)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	trA.peers = []*pubsub.Node{b}
	trB.peers = []*pubsub.Node{a}

	if err := a.Subscribe(news); err != nil {
		t.Fatal(err)
	}
	if err := b.Subscribe(news); err != nil {
		t.Fatal(err)
	}
	id, err := a.Publish(news, []byte("hi"), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-got:
		if ev.ID != id || string(ev.Payload) != "hi" {
			t.Fatalf("wrong event: %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delivery timed out on custom transport")
	}
	if !b.HasEvent(id) {
		t.Fatal("HasEvent false after delivery")
	}
	if b.Stats().Delivered != 1 {
		t.Fatalf("stats = %+v", b.Stats())
	}
	if a.LocalAddr() != "" {
		t.Fatal("custom transport should have no local addr")
	}
	if err := a.AddPeer("127.0.0.1:1"); err == nil {
		t.Fatal("AddPeer must fail on custom transports")
	}
}

// TestUDPNodeEndToEnd runs the full frugal protocol between three nodes
// over real UDP sockets on loopback: discovery via heartbeats, id
// exchange, event dissemination.
func TestUDPNodeEndToEnd(t *testing.T) {
	news := pubsub.MustParseTopic(".mesh")
	mk := func(id pubsub.NodeID, deliver func(pubsub.Event)) *pubsub.Node {
		// Zero tuning exercises the tuned constructor on the same
		// end-to-end path NewUDPNode takes.
		n, err := pubsub.NewUDPNodeTuned(pubsub.Config{
			ID:           id,
			HBDelay:      50 * time.Millisecond,
			HBUpperBound: 50 * time.Millisecond,
			OnDeliver:    deliver,
		}, "127.0.0.1:0", nil, pubsub.UDPTuning{})
		if err != nil {
			t.Skipf("UDP unavailable: %v", err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	got := make(chan pubsub.Event, 4)
	deliver := func(ev pubsub.Event) { got <- ev }
	a, b, c := mk(1, deliver), mk(2, deliver), mk(3, deliver)
	for _, x := range []*pubsub.Node{a, b, c} {
		for _, y := range []*pubsub.Node{a, b, c} {
			if err := x.AddPeer(y.LocalAddr()); err != nil {
				t.Fatal(err)
			}
		}
		if err := x.Subscribe(news); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(a.Neighbors()) == 2 && len(b.Neighbors()) == 2 && len(c.Neighbors()) == 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(a.Neighbors()) != 2 {
		t.Fatalf("discovery incomplete: %v", a.Neighbors())
	}

	// Three deliveries of the id Publish returned. A node delivers an
	// event once, so the publisher's own copy is among them.
	id, err := a.Publish(news, []byte("facade"), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		select {
		case ev := <-got:
			if ev.ID != id || string(ev.Payload) != "facade" {
				t.Fatalf("wrong event %v %q, published %v", ev.ID, ev.Payload, id)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("delivery timed out over UDP")
		}
	}
	// The transport counters are visible through the facade; the custom
	// transport path returns the zero value.
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && a.TransportStats().DatagramsSent == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if ts := a.TransportStats(); ts.DatagramsSent == 0 || ts.DecodeErrors != 0 {
		t.Fatalf("transport stats = %+v", ts)
	}
}

func TestCustomTransportStatsZero(t *testing.T) {
	n, err := pubsub.NewNode(pubsub.Config{ID: 5}, &chanTransport{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if ts := n.TransportStats(); ts != (pubsub.TransportStats{}) {
		t.Fatalf("custom transport stats = %+v, want zero", ts)
	}
}
