// Package transport provides real-network transports for the protocol.
//
// UDP emulates the one-hop broadcast primitive of a MANET MAC layer with
// UDP datagrams fanned out to a peer group — the standard way to
// run MANET protocols in LAN testbeds. pubsub.NewUDPNode wires it to a
// goroutine-safe protocol node on the wall clock, so the protocol runs
// unchanged on real sockets (see pubsub's ExampleNewUDPNode, and
// ExampleNewNode for the in-memory analogue).
//
// The send path is asynchronous (the "real-path contracts", see
// ARCHITECTURE.md): Broadcast marshals into a pooled ring slot and
// returns — a writer goroutine coalesces queued messages into
// per-flush batches and fans each one out to the peer group, so a slow
// peer or a saturated socket can never stall the protocol layer. The
// send ring drops the OLDEST entry on overflow (new information beats
// stale information in a soft-state protocol), counted in Stats;
// steady-state Broadcast performs zero heap allocations. The one
// receive queue is the kernel's socket buffer: the read goroutine
// decodes each datagram in place and calls the handler, and the kernel
// drops the NEWEST arrivals past a full buffer and counts them
// (Stats.RecvDropped). On Linux each flush batch is handed to the
// kernel in one sendmmsg call, runs of equal-size messages go to each
// peer as one UDP GSO segment train, and the read loop drains the
// socket with recvmmsg, taking a train the kernel coalesced (UDP GRO)
// apart again (see udp_mmsg_linux.go); the wire bytes and the
// datagrams handled are identical to the portable per-datagram path.
//
// Membership is dynamic when configured: the initial Peers act as
// seeds, the roster grows from observed datagram sources (LearnPeers),
// and a suspicion window evicts peers whose datagrams — the protocol's
// own heartbeats, in steady state — stop arriving (Suspicion). Only a
// datagram that decodes counts as a sign of life. With the zero config
// the transport behaves exactly like the static full-mesh roster of
// earlier revisions.
package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/event"
	"repro/internal/obs"
)

// maxDatagram bounds incoming datagrams; protocol messages are far
// smaller (a full 20-event push is ~9 kB).
const maxDatagram = 64 * 1024

// DefaultSendQueue is the send-ring capacity: when a Broadcast finds
// the ring full, the OLDEST queued message is dropped and Stats.Dropped
// incremented, so Broadcast never blocks on the network.
const DefaultSendQueue = 512

// recvBufferBytes is the SO_RCVBUF request. The kernel doubles it, up
// to net.core.rmem_max: 2 MB holds ~2 500 heartbeats (~830 bytes of
// buffer each), where the 212 992-byte default held ~250.
const recvBufferBytes = 1 << 20

// sockaddrBufSize holds a raw sockaddr_in or sockaddr_in6 for the
// batched-syscall path (28 bytes = sizeof sockaddr_in6).
const sockaddrBufSize = 28

// Read-loop backoff bounds: a persistent socket error (for example a
// forcibly closed descriptor, or an interface torn down under the
// process) must not hot-spin a core and flood OnError. Consecutive
// errors double the pause from readBackoffMin up to readBackoffMax; a
// successful read resets it.
const (
	readBackoffMin = time.Millisecond
	readBackoffMax = 100 * time.Millisecond
)

// UDPConfig configures a UDP transport.
type UDPConfig struct {
	// Listen is the local address to bind, e.g. "127.0.0.1:0".
	Listen string
	// Peers are the initial peer addresses; entries naming the local
	// socket are filtered out (see AddPeer). With LearnPeers they act
	// as join seeds rather than a full roster.
	Peers []string
	// Handler receives every decoded incoming message. It is called
	// from the transport's single read goroutine (serially), but a
	// protocol's timers and API callers run on others, so pass a
	// goroutine-safe entry point such as pubsub.Node's HandleMessage.
	// While it runs the socket is not read: arrivals queue in the
	// kernel's socket buffer, and beyond it are dropped and counted in
	// Stats.RecvDropped. Required.
	//
	// The handler is never invoked before Start is called: NewUDP only
	// binds the socket, so the caller can finish wiring the state the
	// handler closes over (typically the protocol instance) and then
	// Start the read loop. Datagrams arriving before Start queue in the
	// kernel buffer and are handed to the handler once Start runs.
	Handler func(event.Message)
	// OnError, when non-nil, receives decode and I/O errors. Transient
	// errors never stop the read loop.
	OnError func(error)
	// LearnPeers grows the roster dynamically: any decodable datagram
	// arriving from a source address not yet in the peer group joins
	// it (the configured Peers then act as seeds — a new node only
	// needs one reachable seed; everyone it heartbeats learns it from
	// the datagram source, no global roster required). Sources naming
	// the local socket are never learned.
	LearnPeers bool
	// Suspicion, when positive, arms heartbeat-driven failure
	// detection: a peer from which no decodable datagram has arrived
	// within the window is evicted from the roster (counted in
	// Stats.PeersEvicted). The protocol's periodic heartbeats keep
	// live peers refreshed, so the window should cover several
	// heartbeat periods. Combine with LearnPeers so an evicted peer
	// that comes back is re-learned from its next datagram. The check
	// runs every Suspicion/4, but no more often than every 10 ms.
	Suspicion time.Duration
}

// Stats are cumulative transport counters, safe to read concurrently.
type Stats struct {
	// DatagramsSent counts datagrams handed to the kernel, one per
	// (message, peer): a segment train counts each of its segments.
	DatagramsSent     uint64
	DatagramsReceived uint64
	DecodeErrors      uint64
	SendErrors        uint64
	// Dropped counts outbound messages evicted by send-ring overflow
	// (drop-oldest; the protocol tolerates loss by design) plus
	// messages still queued — or enqueued — after Close, which no
	// writer will ever drain. Broadcasts are conserved:
	// broadcasts == DatagramsSent/peers + Dropped when no send errors
	// occur.
	Dropped uint64
	// RecvDropped counts inbound datagrams the kernel dropped on a full
	// socket buffer, from its SO_RXQ_OVFL count (Linux batched path).
	// The kernel stamps that count on the next datagram it queues, so
	// RecvDropped is as fresh as the last datagram read. A segment train
	// that UDP GRO kept whole counts once if dropped whole. The portable
	// path has no such counter and reads 0.
	RecvDropped uint64
	// Batches counts writer flush passes; DatagramsSent/Batches is the
	// observed coalescing factor.
	Batches uint64
	// PeersLearned counts roster joins from observed datagram sources
	// (LearnPeers).
	PeersLearned uint64
	// PeersEvicted counts suspicion-window evictions (Suspicion).
	PeersEvicted uint64
	// MmsgSends counts sendmmsg syscalls on the Linux batched fast
	// path (0 elsewhere), whatever mix of plain datagrams and segment
	// trains each carried; DatagramsSent/MmsgSends is the syscall
	// batching factor.
	MmsgSends uint64
	// MmsgRecvs counts recvmmsg syscalls on the Linux batched fast
	// path (0 elsewhere).
	MmsgRecvs uint64
}

// Add returns a + b field by field. A new counter must be added here and
// in Sub (TestStatsAddSubCoverEveryField fails otherwise).
func (a Stats) Add(b Stats) Stats {
	return Stats{
		DatagramsSent:     a.DatagramsSent + b.DatagramsSent,
		DatagramsReceived: a.DatagramsReceived + b.DatagramsReceived,
		DecodeErrors:      a.DecodeErrors + b.DecodeErrors,
		SendErrors:        a.SendErrors + b.SendErrors,
		Dropped:           a.Dropped + b.Dropped,
		RecvDropped:       a.RecvDropped + b.RecvDropped,
		Batches:           a.Batches + b.Batches,
		PeersLearned:      a.PeersLearned + b.PeersLearned,
		PeersEvicted:      a.PeersEvicted + b.PeersEvicted,
		MmsgSends:         a.MmsgSends + b.MmsgSends,
		MmsgRecvs:         a.MmsgRecvs + b.MmsgRecvs,
	}
}

// Sub returns a - b field by field: the counters accumulated since the
// snapshot b.
func (a Stats) Sub(b Stats) Stats {
	return Stats{
		DatagramsSent:     a.DatagramsSent - b.DatagramsSent,
		DatagramsReceived: a.DatagramsReceived - b.DatagramsReceived,
		DecodeErrors:      a.DecodeErrors - b.DecodeErrors,
		SendErrors:        a.SendErrors - b.SendErrors,
		Dropped:           a.Dropped - b.Dropped,
		RecvDropped:       a.RecvDropped - b.RecvDropped,
		Batches:           a.Batches - b.Batches,
		PeersLearned:      a.PeersLearned - b.PeersLearned,
		PeersEvicted:      a.PeersEvicted - b.PeersEvicted,
		MmsgSends:         a.MmsgSends - b.MmsgSends,
		MmsgRecvs:         a.MmsgRecvs - b.MmsgRecvs,
	}
}

// ring is the send ring: a bounded FIFO of reusable byte buffers with
// drop-oldest overflow. Slot buffers are pooled: the writer swaps them
// out and back, never frees them, so a warm ring performs zero
// allocations per push.
type ring struct {
	mu    sync.Mutex
	slots [][]byte
	tail  int // oldest entry
	count int
}

// push returns the index of the slot to fill and whether the oldest
// entry was evicted to make room. Callers must hold mu and fill
// slots[i] (reusing its buffer from length 0) before unlocking.
func (r *ring) push() (i int, dropped bool) {
	if r.count == len(r.slots) {
		// Full: the write lands on the current tail slot, evicting the
		// oldest queued entry.
		i = r.tail
		r.tail = (r.tail + 1) % len(r.slots)
		return i, true
	}
	i = (r.tail + r.count) % len(r.slots)
	r.count++
	return i, false
}

// peerAddr caches both address forms of one peer: the value-type
// netip.AddrPort for the allocation-free portable path, and a
// pre-marshalled raw sockaddr for the batched-syscall path. lastSeen
// (unix nanos of the most recent datagram from this peer; the add time
// until then) feeds the suspicion-window failure detector.
type peerAddr struct {
	ap       netip.AddrPort
	raw      [sockaddrBufSize]byte
	rawLen   uint32
	lastSeen atomic.Int64
	learned  bool
}

// localFilter decides whether a roster address names this node's own
// socket. Matching by rendered-string equality breaks on wildcard
// binds: a node bound to 0.0.0.0:7946 never string-matches its concrete
// roster entry 10.0.0.1:7946 and ends up broadcasting to itself —
// double-counted receives and its own heartbeats fed back. The filter
// therefore matches on (port, local address set): for a wildcard bind
// the set is every local interface address, for a concrete bind it is
// that address alone; an unspecified peer address with the local port
// always matches.
type localFilter struct {
	port  uint16
	bound netip.Addr          // the bound address (may be unspecified)
	ips   map[netip.Addr]bool // local interface addresses (wildcard binds)
}

func newLocalFilter(local netip.AddrPort) localFilter {
	f := localFilter{port: local.Port(), bound: local.Addr().Unmap(), ips: map[netip.Addr]bool{}}
	if f.bound.IsUnspecified() {
		// Wildcard bind: the socket answers on every local interface
		// address, so all of them are "self". If the interface walk
		// fails we still have the unspecified match below; peers on
		// other hosts are unaffected either way.
		if addrs, err := net.InterfaceAddrs(); err == nil {
			for _, a := range addrs {
				if ipn, ok := a.(*net.IPNet); ok {
					if ip, ok := netip.AddrFromSlice(ipn.IP); ok {
						f.ips[ip.Unmap()] = true
					}
				}
			}
		}
	}
	return f
}

// matches reports whether ap names the local socket.
func (f localFilter) matches(ap netip.AddrPort) bool {
	if ap.Port() != f.port {
		return false
	}
	a := ap.Addr().Unmap()
	if a.IsUnspecified() {
		return true
	}
	if f.bound.IsUnspecified() {
		return f.ips[a]
	}
	return a == f.bound
}

// UDP is a peer-group broadcast transport. It implements core.Transport.
type UDP struct {
	conn    *net.UDPConn
	raw     syscall.RawConn
	handler func(event.Message)
	onError func(error)

	mu      sync.RWMutex
	peers   []*peerAddr
	peerIdx map[netip.AddrPort]*peerAddr

	filter     localFilter
	sock6      bool // bound socket is AF_INET6 (batched path maps v4 peers)
	learn      bool
	suspicion  time.Duration
	sweepEvery time.Duration
	trackSrc   bool // learn || suspicion > 0: observe datagram sources
	// now is the failure detector's clock; tests override it before
	// starting any loop to drive the suspicion window deterministically.
	now func() time.Time

	send     ring
	sendKick chan struct{}

	sent, received, decodeErrs, sendErrs atomic.Uint64
	dropped, recvDropped, batches        atomic.Uint64
	peersLearned, peersEvicted           atomic.Uint64
	mmsgSends, mmsgRecvs                 atomic.Uint64
	// mmsgOK gates the Linux batched-syscall path; it latches false
	// the first time the kernel (or a seccomp filter) rejects the
	// syscall, permanently falling back to the portable path.
	mmsgOK atomic.Bool
	// gsoOK gates segment trains on that path: set when the socket
	// accepts UDP_SEGMENT, latched false the first time the kernel
	// rejects a train as malformed.
	gsoOK atomic.Bool

	// mw is the writer goroutine's lazily-built sendmmsg state; only
	// writeLoop touches it.
	mw *mmsgWriter

	// handlerHist, when armed by RegisterMetrics, observes the
	// latency of every handler call.
	handlerHist atomic.Pointer[obs.Hist]
	// dropHook, when armed by SetDropHook, is called once per dropped
	// message, send or receive (flight-recorder feed; see pubsub.Node).
	dropHook atomic.Pointer[func()]

	startOnce sync.Once
	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

// NewUDP binds the listen address and resolves the peer group. The read
// loop does NOT run yet: call Start once the handler's dependencies are
// wired. Splitting construction from startup is what makes the handler
// contract race-free — with a constructor-started loop, a datagram could
// reach the handler before the caller had assigned the protocol instance
// the handler closes over. The writer goroutine DOES start here:
// broadcasts work without Start, exactly as before.
func NewUDP(cfg UDPConfig) (*UDP, error) {
	return newUDP(cfg, DefaultSendQueue, true)
}

// newUDP is NewUDP with the send-ring size a parameter and the writer
// (and suspicion sweeper) goroutines optional, so ring semantics and
// failure-detector timing are testable on a small ring without racing
// the drains.
func newUDP(cfg UDPConfig, sendQ int, startWriter bool) (*UDP, error) {
	if cfg.Handler == nil {
		return nil, errors.New("transport: nil Handler")
	}
	if cfg.Suspicion < 0 {
		return nil, fmt.Errorf("transport: negative suspicion window %v", cfg.Suspicion)
	}
	pc, err := net.ListenPacket("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.Listen, err)
	}
	conn := pc.(*net.UDPConn) // the "udp" network always yields one
	raw, err := conn.SyscallConn()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.Listen, err)
	}
	local := conn.LocalAddr().(*net.UDPAddr).AddrPort()
	u := &UDP{
		conn:       conn,
		raw:        raw,
		handler:    cfg.Handler,
		onError:    cfg.OnError,
		peerIdx:    map[netip.AddrPort]*peerAddr{},
		filter:     newLocalFilter(local),
		sock6:      local.Addr().Is6(),
		learn:      cfg.LearnPeers,
		suspicion:  cfg.Suspicion,
		sweepEvery: max(cfg.Suspicion/4, 10*time.Millisecond),
		trackSrc:   cfg.LearnPeers || cfg.Suspicion > 0,
		now:        time.Now,
		send:       ring{slots: make([][]byte, sendQ)},
		sendKick:   make(chan struct{}, 1),
		done:       make(chan struct{}),
	}
	u.mmsgOK.Store(true)
	u.gsoOK.Store(probeGSO(raw))
	// With UDP_GRO on, a read may return a whole segment train as one
	// buffer; a socket that refuses it reads one datagram per buffer.
	probeGRO(raw)
	// Size the one receive queue and have the kernel count its overflow
	// (best effort: a refusal keeps the default size, or counts none).
	conn.SetReadBuffer(recvBufferBytes)
	probeRxqOvfl(raw)
	for _, p := range cfg.Peers {
		if err := u.AddPeer(p); err != nil {
			conn.Close()
			return nil, err
		}
	}
	if startWriter {
		u.startWriter()
	}
	return u, nil
}

// startWriter launches the send-ring drain goroutine (and, with a
// suspicion window configured, the eviction sweeper). Registered on the
// WaitGroup before launch so Close's wg.Wait always covers them.
func (u *UDP) startWriter() {
	u.wg.Add(1)
	go u.writeLoop()
	if u.suspicion > 0 {
		u.wg.Add(1)
		go u.sweepLoop()
	}
}

// Start launches the read loop; incoming datagrams are decoded and
// handed to the configured Handler from here on. It is
// idempotent, safe to race with Close, and must be called before any
// message can be received; broadcasts work without it.
func (u *UDP) Start() {
	u.startOnce.Do(func() {
		// The mutex orders this against Close: after close(done) the
		// loop may not start (Close's wg.Wait must not race an Add), and
		// if it starts first, Close's conn.Close will stop it.
		u.mu.Lock()
		defer u.mu.Unlock()
		select {
		case <-u.done:
			return // already closed: nothing to start
		default:
		}
		u.wg.Add(1)
		go u.readLoop()
	})
}

// LocalAddr returns the bound address (useful with ":0" listens).
func (u *UDP) LocalAddr() net.Addr { return u.conn.LocalAddr() }

// AddPeer adds a peer address to the broadcast group. Addresses naming
// the local socket — by the bound address, by any local interface
// address under a wildcard bind, or by an unspecified address with the
// local port — are ignored, making it safe to pass the same full roster
// to every node regardless of how each one was bound.
func (u *UDP) AddPeer(addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("transport: peer %s: %w", addr, err)
	}
	// Unmap 4-in-6 addresses: ResolveUDPAddr hands back 16-byte IPv4
	// slices, and the mapped ::ffff:a.b.c.d form is rejected by IPv4
	// sockets on the WriteToUDPAddrPort fast path.
	ap := netip.AddrPortFrom(ua.AddrPort().Addr().Unmap(), uint16(ua.Port))
	if !u.filter.matches(ap) {
		u.addPeer(ap, false)
	}
	return nil
}

// addPeer inserts ap unless already present; learned marks roster
// growth from an observed datagram source.
func (u *UDP) addPeer(ap netip.AddrPort, learned bool) {
	p := &peerAddr{ap: ap, learned: learned}
	p.rawLen = u.fillSockaddr(ap, &p.raw)
	p.lastSeen.Store(u.now().UnixNano())
	u.mu.Lock()
	if _, dup := u.peerIdx[ap]; dup {
		u.mu.Unlock()
		return
	}
	u.peerIdx[ap] = p
	u.peers = append(u.peers, p)
	u.mu.Unlock()
	if learned {
		u.peersLearned.Add(1)
	}
}

// RemovePeer drops a peer address from the broadcast group, reporting
// whether it was present. In-flight batches may still reach the peer;
// no datagram is sent to it afterwards.
func (u *UDP) RemovePeer(addr string) bool {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return false
	}
	ap := netip.AddrPortFrom(ua.AddrPort().Addr().Unmap(), uint16(ua.Port))
	u.mu.Lock()
	p := u.peerIdx[ap]
	if p != nil {
		delete(u.peerIdx, ap)
		u.removeFromRoster(p)
	}
	u.mu.Unlock()
	return p != nil
}

// removeFromRoster rebuilds the peer slice without p. Callers hold
// u.mu. A fresh slice is allocated on purpose: sendBatch snapshots the
// slice header under RLock and then fans out unlocked, so the old
// backing array must stay intact.
func (u *UDP) removeFromRoster(p *peerAddr) {
	next := make([]*peerAddr, 0, len(u.peers)-1)
	for _, q := range u.peers {
		if q != p {
			next = append(next, q)
		}
	}
	u.peers = next
}

// Peers returns the current roster, sorted. Useful for inspecting
// dynamic membership; the snapshot is immediately stale under churn.
func (u *UDP) Peers() []string {
	u.mu.RLock()
	out := make([]string, len(u.peers))
	for i, p := range u.peers {
		out[i] = p.ap.String()
	}
	u.mu.RUnlock()
	sort.Strings(out)
	return out
}

// PeerCount returns the current roster size.
func (u *UDP) PeerCount() int {
	u.mu.RLock()
	defer u.mu.RUnlock()
	return len(u.peers)
}

// observeSource feeds the membership layer one datagram source: refresh
// the sender's suspicion clock, or — with LearnPeers — join it to the
// roster. Called from the read goroutine for every datagram that
// decodes, when tracking is on: bytes that are not a protocol message
// say nothing about a peer.
func (u *UDP) observeSource(src netip.AddrPort) {
	if !src.IsValid() {
		return
	}
	u.mu.RLock()
	p := u.peerIdx[src]
	u.mu.RUnlock()
	if p != nil {
		if u.suspicion > 0 {
			p.lastSeen.Store(u.now().UnixNano())
		}
		return
	}
	if !u.learn || u.filter.matches(src) {
		return
	}
	u.addPeer(src, true)
}

// sweepSilent evicts every peer whose last datagram is older than the
// suspicion window at the given instant, returning how many were
// evicted. The sweeper goroutine calls it on a ticker; tests call it
// directly with a fake clock.
func (u *UDP) sweepSilent(now time.Time) int {
	cut := now.Add(-u.suspicion).UnixNano()
	var evicted []*peerAddr
	u.mu.Lock()
	for _, p := range u.peers {
		if p.lastSeen.Load() < cut {
			evicted = append(evicted, p)
		}
	}
	for _, p := range evicted {
		delete(u.peerIdx, p.ap)
		u.removeFromRoster(p)
	}
	u.mu.Unlock()
	u.peersEvicted.Add(uint64(len(evicted)))
	return len(evicted)
}

// sweepLoop runs the suspicion-window failure detector.
func (u *UDP) sweepLoop() {
	defer u.wg.Done()
	t := time.NewTicker(u.sweepEvery)
	defer t.Stop()
	for {
		select {
		case <-u.done:
			return
		case <-t.C:
			u.sweepSilent(u.now())
		}
	}
}

// Broadcast implements core.Transport: marshal into a pooled ring slot
// and return. The writer goroutine fans the message out to every peer
// in its next flush batch; a full ring drops the oldest queued message
// (counted in Stats.Dropped) rather than blocking the protocol layer.
// After Close the message is counted as dropped immediately — nothing
// will ever drain the ring. Steady-state cost is zero heap allocations:
// the slot buffer is reused and AppendMarshal writes in place.
func (u *UDP) Broadcast(m event.Message) {
	u.send.mu.Lock()
	// The done check shares the ring mutex with Close's final drain, so
	// every broadcast is accounted exactly once: enqueued before the
	// drain (the drain counts it) or refused after (counted here).
	select {
	case <-u.done:
		u.send.mu.Unlock()
		u.dropped.Add(1)
		u.fireDropHook(1)
		return
	default:
	}
	i, droppedOldest := u.send.push()
	u.send.slots[i] = event.AppendMarshal(u.send.slots[i][:0], m)
	u.send.mu.Unlock()
	if droppedOldest {
		u.dropped.Add(1)
		u.fireDropHook(1)
	}
	select {
	case u.sendKick <- struct{}{}:
	default: // writer already signaled
	}
}

// writeLoop drains the send ring: wake on a kick, then swap the queued
// slot buffers into a local slab and fan each message out to the peer
// group — one sendmmsg per batch on Linux, one WriteTo per packet
// elsewhere. Broadcasts that queue while a batch is on the wire ride
// the next one. Messages swapped out but never handed to the socket on a
// shutdown mid-batch are counted as dropped, keeping the broadcast
// conservation law exact.
func (u *UDP) writeLoop() {
	defer u.wg.Done()
	batch := make([][]byte, len(u.send.slots))
	for {
		select {
		case <-u.done:
			return
		case <-u.sendKick:
		}
		for {
			select {
			case <-u.done:
				return
			default:
			}
			// Swap filled slots out, spare buffers in: Broadcast keeps
			// marshaling into the ring while this batch is on the wire.
			u.send.mu.Lock()
			n := 0
			for u.send.count > 0 {
				i := u.send.tail
				batch[n], u.send.slots[i] = u.send.slots[i], batch[n]
				u.send.tail = (u.send.tail + 1) % len(u.send.slots)
				u.send.count--
				n++
			}
			u.send.mu.Unlock()
			if n == 0 {
				break
			}
			if completed := u.sendBatch(batch[:n]); completed < n {
				// Shutdown mid-batch: the remaining messages were
				// swapped out of the ring but never offered to the
				// socket — account them like ring drops.
				u.dropped.Add(uint64(n - completed))
				return
			}
		}
	}
}

// sendBatch fans one coalesced slab of messages out to the peer group
// and returns how many messages were fully offered to the socket (all
// of them except on a shutdown mid-batch).
func (u *UDP) sendBatch(batch [][]byte) int {
	u.mu.RLock()
	peers := u.peers
	u.mu.RUnlock()
	if len(peers) == 0 {
		u.batches.Add(1)
		return len(batch)
	}
	handled, completed := u.sendBatchOS(batch, peers)
	if !handled {
		completed = u.sendBatchPortable(batch, peers)
	}
	if completed == len(batch) {
		u.batches.Add(1)
	}
	return completed
}

// sendBatchPortable is the per-packet fallback: one WriteToUDPAddrPort per
// (message, peer) pair. Returns the number of fully-offered messages.
func (u *UDP) sendBatchPortable(batch [][]byte, peers []*peerAddr) int {
	for mi, wire := range batch {
		for i := range peers {
			if _, err := u.conn.WriteToUDPAddrPort(wire, peers[i].ap); err != nil {
				if errors.Is(err, net.ErrClosed) {
					return mi // shutdown mid-batch: Close owns the socket now
				}
				u.sendErrs.Add(1)
				u.reportError(fmt.Errorf("transport: send to %s: %w", peers[i].ap, err))
				continue
			}
			u.sent.Add(1)
		}
	}
	return len(batch)
}

// Stats returns a snapshot of the counters.
func (u *UDP) Stats() Stats {
	return Stats{
		DatagramsSent:     u.sent.Load(),
		DatagramsReceived: u.received.Load(),
		DecodeErrors:      u.decodeErrs.Load(),
		SendErrors:        u.sendErrs.Load(),
		Dropped:           u.dropped.Load(),
		RecvDropped:       u.recvDropped.Load(),
		Batches:           u.batches.Load(),
		PeersLearned:      u.peersLearned.Load(),
		PeersEvicted:      u.peersEvicted.Load(),
		MmsgSends:         u.mmsgSends.Load(),
		MmsgRecvs:         u.mmsgRecvs.Load(),
	}
}

// Close stops the writer and (if started) the read and sweep loops,
// and releases the socket. Messages still in the send ring count in
// Stats.Dropped; datagrams left in the kernel's buffer go uncounted. It
// is idempotent and safe to race with Start and with in-flight
// Broadcasts/flushes.
func (u *UDP) Close() error {
	var err error
	u.closeOnce.Do(func() {
		u.mu.Lock()
		close(u.done)
		u.mu.Unlock()
		err = u.conn.Close() // also unblocks a writer stuck in WriteTo
		u.wg.Wait()
		// All loops have exited; whatever the send ring still holds
		// will never be sent. The ring mutex orders this drain against
		// concurrent Broadcasts (see Broadcast's done check).
		u.send.mu.Lock()
		n := u.send.count
		u.send.count, u.send.tail = 0, 0
		u.send.mu.Unlock()
		if n > 0 {
			u.dropped.Add(uint64(n))
			u.fireDropHook(n)
		}
	})
	return err
}

// fireDropHook runs the armed drop hook once per dropped message.
func (u *UDP) fireDropHook(n int) {
	fn := u.dropHook.Load()
	if fn == nil {
		return
	}
	for i := 0; i < n; i++ {
		(*fn)()
	}
}

// readLoop is the one receive path: it drains the socket (on Linux a
// recvmmsg batch per syscall) and dispatches each datagram, or each
// segment of a train GRO coalesced, straight from the read buffer;
// meanwhile arrivals queue in the kernel. Persistent errors back off
// exponentially (capped) instead of hot-spinning.
func (u *UDP) readLoop() {
	defer u.wg.Done()
	rb := u.newReadBatcher()
	defer rb.release()
	var backoff time.Duration
	for {
		if _, err := rb.read(); err != nil {
			select {
			case <-u.done:
				return // closed: expected
			default:
			}
			u.reportError(fmt.Errorf("transport: read: %w", err))
			if backoff == 0 {
				backoff = readBackoffMin
			} else if backoff < readBackoffMax {
				backoff *= 2
				if backoff > readBackoffMax {
					backoff = readBackoffMax
				}
			}
			select {
			case <-u.done:
				return
			case <-time.After(backoff):
			}
			continue
		}
		backoff = 0
		for data, src, ok := rb.next(); ok; data, src, ok = rb.next() {
			u.dispatch(data, src)
		}
	}
}

// readOne is the portable single-datagram read, also the fallback when
// the batched syscall path is unavailable.
func (u *UDP) readOne(buf []byte) (int, netip.AddrPort, error) {
	n, ap, err := u.conn.ReadFromUDPAddrPort(buf)
	return n, netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), err
}

// dispatch decodes one datagram and runs the handler on it. Unmarshal
// copies what it keeps, so the read buffer is reusable as soon as this
// returns. Only a datagram that decodes tells the membership layer
// about its source.
func (u *UDP) dispatch(data []byte, src netip.AddrPort) {
	msg, err := event.Unmarshal(data)
	if err != nil {
		u.decodeErrs.Add(1)
		u.reportError(fmt.Errorf("transport: decode %d bytes: %w", len(data), err))
		return
	}
	if u.trackSrc {
		u.observeSource(src)
	}
	u.received.Add(1)
	if h := u.handlerHist.Load(); h != nil {
		start := time.Now()
		u.handler(msg)
		h.Observe(time.Since(start).Seconds())
	} else {
		u.handler(msg)
	}
}

func (u *UDP) reportError(err error) {
	if u.onError != nil {
		u.onError(err)
	}
}
