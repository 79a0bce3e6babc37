package transport

import (
	"net"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/event"
)

// TestUDPWildcardBindSelfFiltered is the regression test for the
// wildcard self-echo bug: a node bound to 0.0.0.0 never string-matches
// its concrete roster entry, so the old AddPeer filter let it broadcast
// to itself. The filter must match any local interface address carrying
// the bound port.
func TestUDPWildcardBindSelfFiltered(t *testing.T) {
	var c collect
	u, err := NewUDP(UDPConfig{Listen: "0.0.0.0:0", Handler: c.handle})
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	defer u.Close()
	u.Start()
	port := u.LocalAddr().(*net.UDPAddr).Port
	self := netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), uint16(port)).String()
	// The deployment roster names the node by a concrete address, not
	// by its wildcard bind string.
	if err := u.AddPeer(self); err != nil {
		t.Fatal(err)
	}
	if n := u.PeerCount(); n != 0 {
		t.Fatalf("concrete self address joined the roster of a wildcard bind (peers: %v)", u.Peers())
	}
	u.Broadcast(event.Heartbeat{From: 1})
	time.Sleep(50 * time.Millisecond)
	if c.count() != 0 {
		t.Fatal("wildcard-bound node received its own broadcast")
	}
	if s := u.Stats(); s.DatagramsSent != 0 {
		t.Fatalf("self peer not filtered: %d datagrams sent", s.DatagramsSent)
	}
	// The same address with a DIFFERENT port is a real peer.
	other := netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), uint16(port)+1).String()
	if err := u.AddPeer(other); err != nil {
		t.Fatal(err)
	}
	if n := u.PeerCount(); n != 1 {
		t.Fatalf("distinct-port loopback peer filtered as self (peers: %v)", u.Peers())
	}
}

// TestUDPShutdownDropConservation pins the shutdown accounting law on
// the send side: every broadcast is either sent to each peer or counted
// in Stats.Dropped — including messages still queued at Close and
// messages broadcast after Close.
func TestUDPShutdownDropConservation(t *testing.T) {
	const queue = 4
	// Writer deliberately not started: everything queues.
	u, err := newUDP(UDPConfig{
		Listen:  "127.0.0.1:0",
		Handler: func(event.Message) {},
	}, queue, false)
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	const total = queue + 3
	for i := 0; i < total; i++ {
		u.Broadcast(event.IDList{From: event.NodeID(i)})
	}
	if got := u.Stats().Dropped; got != total-queue {
		t.Fatalf("pre-close Dropped = %d, want %d (ring overflow)", got, total-queue)
	}
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}
	// The queue entries nothing ever drained are now accounted too.
	if got := u.Stats().Dropped; got != total {
		t.Fatalf("post-close Dropped = %d, want %d (queued entries discarded silently)", got, total)
	}
	// Broadcast after Close lands in a ring no writer will ever serve:
	// it must be counted immediately, not queued into a lie.
	u.Broadcast(event.IDList{From: 99})
	if got := u.Stats().Dropped; got != total+1 {
		t.Fatalf("post-close broadcast Dropped = %d, want %d", got, total+1)
	}
	if s := u.Stats(); s.DatagramsSent != 0 {
		t.Fatalf("writer-less transport sent %d datagrams", s.DatagramsSent)
	}
}

// TestUDPLiveCloseConservation races a live writer against Close and
// asserts the conservation law broadcasts == DatagramsSent/peers +
// Dropped regardless of where the shutdown lands (mid-batch messages
// swapped out of the ring but never offered to the socket must be
// counted as dropped, not lost).
func TestUDPLiveCloseConservation(t *testing.T) {
	for round := 0; round < 20; round++ {
		recv, err := NewUDP(UDPConfig{Listen: "127.0.0.1:0", Handler: func(event.Message) {}})
		if err != nil {
			t.Skipf("UDP unavailable: %v", err)
		}
		recv.Start()
		u, err := NewUDP(UDPConfig{
			Listen:  "127.0.0.1:0",
			Peers:   []string{recv.LocalAddr().String()},
			Handler: func(event.Message) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		const total = 64
		for i := 0; i < total; i++ {
			u.Broadcast(event.IDList{From: event.NodeID(i)})
		}
		u.Close()
		s := u.Stats()
		if s.SendErrors != 0 {
			t.Fatalf("round %d: unexpected send errors: %+v", round, s)
		}
		if s.DatagramsSent+s.Dropped != total {
			t.Fatalf("round %d: conservation broken: sent %d + dropped %d != %d broadcasts",
				round, s.DatagramsSent, s.Dropped, total)
		}
		recv.Close()
	}
}

// TestUDPReadLoopBackoff pins the hot-spin fix: a persistent
// non-ErrClosed read error must back off (capped) instead of spinning a
// core and flooding OnError. Killing the descriptor out from under the
// transport (without Close, so done stays open) makes every read fail
// forever.
func TestUDPReadLoopBackoff(t *testing.T) {
	var mu sync.Mutex
	var errCount int
	u, err := NewUDP(UDPConfig{
		Listen:  "127.0.0.1:0",
		Handler: func(event.Message) {},
		OnError: func(error) { mu.Lock(); errCount++; mu.Unlock() },
	})
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	u.Start()
	u.conn.Close() // not u.Close(): the read loop sees a "transient" error forever
	time.Sleep(300 * time.Millisecond)
	mu.Lock()
	n := errCount
	mu.Unlock()
	if n == 0 {
		t.Fatal("read error never reported")
	}
	// Doubling from 1ms capped at 100ms yields ~10 errors in 300ms; a
	// hot spin yields tens of thousands. Generous bound for slow CI.
	if n > 60 {
		t.Fatalf("read loop reported %d errors in 300ms: backoff not engaging", n)
	}
	u.Close()
}

// --- membership conformance suite ---

// TestUDPLearnPeers: a seed-based join. B knows A (seed); A starts with
// an empty roster and LearnPeers. B's first datagram teaches A about B,
// after which A's broadcasts reach B — the join propagated from one
// observed datagram source, no global roster.
func TestUDPLearnPeers(t *testing.T) {
	var ca, cb collect
	a, err := NewUDP(UDPConfig{Listen: "127.0.0.1:0", Handler: ca.handle, LearnPeers: true})
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	defer a.Close()
	a.Start()
	b, err := NewUDP(UDPConfig{
		Listen:  "127.0.0.1:0",
		Peers:   []string{a.LocalAddr().String()},
		Handler: cb.handle,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Start()
	if n := a.PeerCount(); n != 0 {
		t.Fatalf("a starts with %d peers, want 0", n)
	}
	b.Broadcast(event.Heartbeat{From: 2})
	waitFor(t, func() bool { return a.PeerCount() == 1 }, "a learns b from the datagram source")
	if s := a.Stats(); s.PeersLearned != 1 {
		t.Fatalf("PeersLearned = %d, want 1", s.PeersLearned)
	}
	if got, want := a.Peers()[0], b.LocalAddr().(*net.UDPAddr).AddrPort().String(); got != want {
		t.Fatalf("a learned %q, want %q", got, want)
	}
	a.Broadcast(event.Heartbeat{From: 1})
	waitFor(t, func() bool { return cb.count() == 1 }, "a's broadcast reaches the learned peer")
	// Repeat datagrams must not duplicate the roster entry.
	b.Broadcast(event.Heartbeat{From: 2})
	waitFor(t, func() bool { return ca.count() == 2 }, "second heartbeat at a")
	if n := a.PeerCount(); n != 1 {
		t.Fatalf("duplicate source grew the roster to %d", n)
	}
}

// TestUDPRemovePeer: an explicit leave. After RemovePeer the node sends
// nothing to the departed peer (observable deterministically through
// the sent counter against an empty roster).
func TestUDPRemovePeer(t *testing.T) {
	a, b, _, cb := newPair(t)
	addr := b.LocalAddr().String()
	a.Broadcast(event.IDList{From: 1})
	waitFor(t, func() bool { return cb.count() == 1 }, "pre-removal delivery")
	if !a.RemovePeer(addr) {
		t.Fatal("RemovePeer reported the peer absent")
	}
	if a.RemovePeer(addr) {
		t.Fatal("second RemovePeer reported the peer still present")
	}
	if n := a.PeerCount(); n != 0 {
		t.Fatalf("roster has %d peers after removal: %v", n, a.Peers())
	}
	sent := a.Stats().DatagramsSent
	a.Broadcast(event.IDList{From: 1})
	waitFor(t, func() bool { return a.Stats().Batches >= 2 }, "post-removal flush")
	if got := a.Stats().DatagramsSent; got != sent {
		t.Fatalf("broadcast after removal still sent datagrams (%d -> %d)", sent, got)
	}
}

// TestUDPSuspicionDeterministic drives the failure detector on a fake
// clock: no goroutines, no sleeps — eviction timing is exact. A peer is
// kept alive precisely as long as datagrams keep arriving inside the
// suspicion window and evicted on the first sweep past it; a rejoin via
// LearnPeers works after eviction. The roster is read after every step.
func TestUDPSuspicionDeterministic(t *testing.T) {
	u, err := newUDP(UDPConfig{
		Listen:     "127.0.0.1:0",
		Handler:    func(event.Message) {},
		LearnPeers: true,
		Suspicion:  time.Second,
	}, DefaultSendQueue, false) // no background loops: the test owns the clock and the sweeps
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	defer u.Close()
	var rosters []string
	snap := func() { rosters = append(rosters, "["+strings.Join(u.Peers(), " ")+"]") }
	t0 := time.Unix(1000, 0)
	now := t0
	u.now = func() time.Time { return now }
	peer := netip.MustParseAddrPort("127.0.0.9:4242")
	if err := u.AddPeer(peer.String()); err != nil {
		t.Fatal(err)
	}
	snap()
	// Inside the window: nothing to evict.
	now = t0.Add(900 * time.Millisecond)
	if n := u.sweepSilent(now); n != 0 {
		t.Fatalf("evicted %d peers inside the suspicion window", n)
	}
	snap()
	// A datagram from the peer refreshes its clock...
	now = t0.Add(950 * time.Millisecond)
	u.observeSource(peer)
	snap()
	// ...so a sweep past the ORIGINAL deadline keeps it.
	now = t0.Add(1800 * time.Millisecond)
	if n := u.sweepSilent(now); n != 0 {
		t.Fatalf("refreshed peer evicted (%d)", n)
	}
	snap()
	// Silence past the refreshed deadline evicts it.
	now = t0.Add(2 * time.Second)
	if n := u.sweepSilent(now); n != 1 {
		t.Fatalf("sweep at +2s evicted %d peers, want 1", n)
	}
	snap()
	if n := u.PeerCount(); n != 0 {
		t.Fatalf("roster still has %d peers after eviction", n)
	}
	if s := u.Stats(); s.PeersEvicted != 1 {
		t.Fatalf("PeersEvicted = %d, want 1", s.PeersEvicted)
	}
	// Rejoin: the next datagram from the evicted peer re-learns it.
	u.observeSource(peer)
	snap()
	if n := u.PeerCount(); n != 1 {
		t.Fatalf("evicted peer did not rejoin on its next datagram (%d peers)", n)
	}
	if s := u.Stats(); s.PeersLearned != 1 {
		t.Fatalf("PeersLearned = %d, want 1 (the rejoin)", s.PeersLearned)
	}
	p := "[" + peer.String() + "]"
	want := strings.Join([]string{p, p, p, p, "[]", p}, " ")
	if got := strings.Join(rosters, " "); got != want {
		t.Fatalf("roster sequence = %q, want %q", got, want)
	}
}

// TestUDPEvictionEndToEnd runs the live failure detector on real
// sockets: a learned peer that goes silent is evicted by the sweeper
// goroutine and stops receiving, then rejoins by sending again.
func TestUDPEvictionEndToEnd(t *testing.T) {
	a, err := NewUDP(UDPConfig{
		Listen:     "127.0.0.1:0",
		Handler:    func(event.Message) {},
		LearnPeers: true,
		Suspicion:  150 * time.Millisecond, // swept every 37.5 ms
	})
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	defer a.Close()
	a.Start()
	var cb collect
	b, err := NewUDP(UDPConfig{
		Listen:  "127.0.0.1:0",
		Peers:   []string{a.LocalAddr().String()},
		Handler: cb.handle,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Start()
	b.Broadcast(event.Heartbeat{From: 2})
	waitFor(t, func() bool { return a.PeerCount() == 1 }, "a learns b")
	// b goes silent; the suspicion window runs out.
	waitFor(t, func() bool { return a.PeerCount() == 0 }, "silent peer evicted")
	if s := a.Stats(); s.PeersEvicted != 1 {
		t.Fatalf("PeersEvicted = %d, want 1", s.PeersEvicted)
	}
	sent := a.Stats().DatagramsSent
	a.Broadcast(event.Heartbeat{From: 1})
	time.Sleep(50 * time.Millisecond)
	if got := a.Stats().DatagramsSent; got != sent {
		t.Fatalf("evicted peer still receives datagrams (%d -> %d)", sent, got)
	}
	// Rejoin: one datagram re-learns the peer and delivery resumes.
	b.Broadcast(event.Heartbeat{From: 2})
	waitFor(t, func() bool { return a.PeerCount() == 1 }, "b rejoins")
	if s := a.Stats(); s.PeersLearned != 2 {
		t.Fatalf("PeersLearned = %d, want 2", s.PeersLearned)
	}
	a.Broadcast(event.Heartbeat{From: 1})
	waitFor(t, func() bool { return cb.count() >= 1 }, "delivery resumes after rejoin")
}

// TestUDPLearnNeverSelf: with LearnPeers a node must not learn its own
// address from a datagram source (possible with crafted or reflected
// traffic).
func TestUDPLearnNeverSelf(t *testing.T) {
	u, err := NewUDP(UDPConfig{Listen: "127.0.0.1:0", Handler: func(event.Message) {}, LearnPeers: true})
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	defer u.Close()
	self := u.LocalAddr().(*net.UDPAddr).AddrPort()
	u.observeSource(netip.AddrPortFrom(self.Addr().Unmap(), self.Port()))
	if n := u.PeerCount(); n != 0 {
		t.Fatalf("node learned itself as a peer: %v", u.Peers())
	}
}

// TestUDPUndecodableSourceNotLearned: bytes that do not decode say
// nothing about a peer. Garbage from a fresh socket neither joins the
// roster nor counts as learned; a heartbeat from the same socket then
// does. Garbage from a known peer does not refresh its suspicion clock.
func TestUDPUndecodableSourceNotLearned(t *testing.T) {
	u, err := newUDP(UDPConfig{
		Listen:     "127.0.0.1:0",
		Handler:    func(event.Message) {},
		LearnPeers: true,
		Suspicion:  time.Second,
	}, DefaultSendQueue, false) // no sweeper: the test owns the clock
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	defer u.Close()
	t0 := time.Unix(1000, 0)
	var clock atomic.Int64 // read by the read goroutine
	clock.Store(t0.UnixNano())
	u.now = func() time.Time { return time.Unix(0, clock.Load()) }
	u.Start()

	stray, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer stray.Close()
	src := stray.LocalAddr().(*net.UDPAddr).AddrPort()
	send := func(b []byte) {
		t.Helper()
		if _, err := stray.WriteTo(b, u.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	garbage := []byte{0xff, 0x01, 0x02}
	heartbeat := event.Marshal(event.Heartbeat{From: 2})
	lastSeen := func() int64 {
		u.mu.RLock()
		defer u.mu.RUnlock()
		return u.peerIdx[src].lastSeen.Load()
	}

	send(garbage)
	waitFor(t, func() bool { return u.Stats().DecodeErrors == 1 }, "decode error")
	if n, s := u.PeerCount(), u.Stats(); n != 0 || s.PeersLearned != 0 {
		t.Fatalf("undecodable datagram taught the roster: %d peers, %d learned", n, s.PeersLearned)
	}

	send(heartbeat)
	waitFor(t, func() bool { return u.PeerCount() == 1 }, "heartbeat source learned")
	if s := u.Stats(); s.PeersLearned != 1 {
		t.Fatalf("PeersLearned = %d, want 1", s.PeersLearned)
	}
	if got := lastSeen(); got != t0.UnixNano() {
		t.Fatalf("learned peer lastSeen = %d, want %d", got, t0.UnixNano())
	}

	clock.Store(t0.Add(500 * time.Millisecond).UnixNano())
	send(garbage)
	waitFor(t, func() bool { return u.Stats().DecodeErrors == 2 }, "second decode error")
	if got := lastSeen(); got != t0.UnixNano() {
		t.Fatalf("garbage refreshed the peer's lastSeen to %d (was %d)", got, t0.UnixNano())
	}
	send(heartbeat)
	waitFor(t, func() bool { return u.Stats().DatagramsReceived == 2 }, "second heartbeat dispatched")
	if got, want := lastSeen(), t0.Add(500*time.Millisecond).UnixNano(); got != want {
		t.Fatalf("heartbeat did not refresh lastSeen: %d, want %d", got, want)
	}
}
