package pubsub_test

import (
	"testing"
	"time"

	"repro/pubsub"
)

func waitCond(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// mkDynNode builds a node with dynamic membership: seeds instead of a
// full roster, learning from datagram sources, and (optionally) the
// suspicion-window failure detector.
func mkDynNode(t *testing.T, id pubsub.NodeID, seeds []string, suspicion time.Duration, deliver func(pubsub.Event)) *pubsub.Node {
	t.Helper()
	n, err := pubsub.NewUDPNodeTuned(pubsub.Config{
		ID:           id,
		HBDelay:      50 * time.Millisecond,
		HBUpperBound: 50 * time.Millisecond,
		OnDeliver:    deliver,
	}, "127.0.0.1:0", seeds, pubsub.UDPTuning{
		LearnPeers: true,
		Suspicion:  suspicion,
	})
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// TestUDPNodeSeedJoinPropagates pins the deployment join story: no
// global roster, just a seed chain a<-b<-c. Heartbeats teach each
// transport its reverse edges (b learns a is there because a is b's
// seed... a learns b purely from b's datagrams, and likewise b learns
// c), the protocol neighborhood tables converge to the chain, and an
// event published at one end reaches the other end through the
// epidemic relay — two real-socket hops, no direct a<->c edge.
func TestUDPNodeSeedJoinPropagates(t *testing.T) {
	topic := pubsub.MustParseTopic(".mesh.join")
	gotA := make(chan pubsub.Event, 4)
	a := mkDynNode(t, 1, nil, 0, func(ev pubsub.Event) { gotA <- ev })
	b := mkDynNode(t, 2, []string{a.LocalAddr()}, 0, nil)
	c := mkDynNode(t, 3, []string{b.LocalAddr()}, 0, nil)
	for _, n := range []*pubsub.Node{a, b, c} {
		if err := n.Subscribe(topic); err != nil {
			t.Fatal(err)
		}
	}
	// Transport rosters converge to the symmetric chain closure.
	waitCond(t, func() bool {
		return len(a.Peers()) == 1 && len(b.Peers()) == 2 && len(c.Peers()) == 1
	}, "chain roster convergence (a:1 b:2 c:1)")
	if got := a.Peers()[0]; got != b.LocalAddr() {
		t.Fatalf("a learned %q, want b %q", got, b.LocalAddr())
	}
	if ts := a.TransportStats(); ts.PeersLearned != 1 {
		t.Fatalf("a.PeersLearned = %d, want 1", ts.PeersLearned)
	}
	// Protocol-level neighborhoods follow.
	waitCond(t, func() bool {
		return len(a.Neighbors()) == 1 && len(b.Neighbors()) == 2 && len(c.Neighbors()) == 1
	}, "protocol neighborhood convergence")
	// End-to-end: c's publication crosses the chain to a.
	if _, err := c.Publish(topic, []byte("via-chain"), time.Minute); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-gotA:
		if string(ev.Payload) != "via-chain" {
			t.Fatalf("wrong payload %q", ev.Payload)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("publication never crossed the seed chain")
	}
}

// TestUDPNodeSuspicionEvictsDeadPeer pins the leave story: a peer that
// stops heartbeating (here: closed) is evicted from the transport
// roster by the suspicion window, visible through Peers and the
// PeersEvicted counter, and the protocol neighborhood follows via its
// own timeout.
func TestUDPNodeSuspicionEvictsDeadPeer(t *testing.T) {
	a := mkDynNode(t, 1, nil, 500*time.Millisecond, nil)
	b := mkDynNode(t, 2, []string{a.LocalAddr()}, 500*time.Millisecond, nil)
	// Heartbeats (the failure detector's food) only flow from nodes
	// with at least one subscription.
	tp := pubsub.MustParseTopic(".mesh.evict")
	for _, n := range []*pubsub.Node{a, b} {
		if err := n.Subscribe(tp); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, func() bool { return len(a.Peers()) == 1 }, "a learns b")
	// Live peers heartbeat well inside the window: no spurious eviction.
	time.Sleep(time.Second)
	if ts := a.TransportStats(); ts.PeersEvicted != 0 {
		t.Fatalf("live peer evicted: %+v", ts)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool { return len(a.Peers()) == 0 }, "dead peer evicted from roster")
	if ts := a.TransportStats(); ts.PeersEvicted != 1 {
		t.Fatalf("a.PeersEvicted = %d, want 1", ts.PeersEvicted)
	}
}

// TestUDPNodeRemovePeer covers the explicit-leave facade: RemovePeer
// shrinks the roster and reports presence; custom-transport nodes
// answer false/nil.
func TestUDPNodeRemovePeer(t *testing.T) {
	a := mkDynNode(t, 1, nil, 0, nil)
	b := mkDynNode(t, 2, []string{a.LocalAddr()}, 0, nil)
	if err := b.Subscribe(pubsub.MustParseTopic(".mesh.rm")); err != nil {
		t.Fatal(err) // heartbeats (what a learns b from) need a subscription
	}
	waitCond(t, func() bool { return len(a.Peers()) == 1 }, "a learns b")
	addr := a.Peers()[0]
	// Stop b first so its heartbeats cannot re-teach a the address
	// between the two RemovePeer calls below.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // drain in-flight datagrams
	if !a.RemovePeer(addr) {
		t.Fatal("RemovePeer reported the learned peer absent")
	}
	if a.RemovePeer(addr) {
		t.Fatal("second RemovePeer reported the peer still present")
	}
}
