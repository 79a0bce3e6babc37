//go:build linux && (amd64 || arm64)

package transport

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"

	"repro/internal/event"
)

// rawSink is a bare UDP socket that records every datagram payload it
// receives, bit-for-bit.
type rawSink struct {
	conn *net.UDPConn
	mu   sync.Mutex
	got  []string
}

func newRawSink(t *testing.T) *rawSink {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	s := &rawSink{conn: conn}
	t.Cleanup(func() { conn.Close() })
	go func() {
		buf := make([]byte, maxDatagram)
		for {
			n, _, err := conn.ReadFrom(buf)
			if err != nil {
				return
			}
			s.mu.Lock()
			s.got = append(s.got, string(buf[:n]))
			s.mu.Unlock()
		}
	}()
	return s
}

func (s *rawSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got)
}

// payloads returns the received datagrams as a sorted multiset.
func (s *rawSink) payloads() []string {
	s.mu.Lock()
	out := append([]string(nil), s.got...)
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

// mkBatch builds a batch of distinct variable-size payloads, sized to
// cross the mmsgChunk boundary against two peers.
func mkBatch(n int) [][]byte {
	batch := make([][]byte, n)
	for i := range batch {
		size := 1 + (i*37)%2048
		b := make([]byte, size)
		for j := range b {
			b[j] = byte(i + j)
		}
		b[0] = byte(i) // keep payloads pairwise distinct even at size 1
		batch[i] = b
	}
	return batch
}

// inOrder returns the received datagrams in arrival order.
func (s *rawSink) inOrder() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.got...)
}

// sendPath picks the writer path a test batch takes.
type sendPath int

const (
	pathPortable  sendPath = iota // one WriteTo per (message, peer)
	pathMmsg                      // sendmmsg, segment trains as the probe found them
	pathPlainMmsg                 // sendmmsg with segment trains latched off
)

// senderTo builds a writer-less transport whose roster is the sinks.
func senderTo(t *testing.T, sinks []*rawSink) (*UDP, []*peerAddr) {
	t.Helper()
	peerAddrs := make([]string, len(sinks))
	for i, s := range sinks {
		peerAddrs[i] = s.conn.LocalAddr().String()
	}
	u, err := newUDP(UDPConfig{
		Listen:  "127.0.0.1:0",
		Peers:   peerAddrs,
		Handler: func(event.Message) {},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { u.Close() })
	u.mu.RLock()
	peers := u.peers
	u.mu.RUnlock()
	if len(peers) != len(sinks) {
		t.Fatalf("roster has %d peers, want %d", len(peers), len(sinks))
	}
	return u, peers
}

// sendVia builds a writer-less transport aimed at the sinks and runs
// one batch through the given send path, returning the sender.
func sendVia(t *testing.T, sinks []*rawSink, batch [][]byte, path sendPath) *UDP {
	t.Helper()
	u, peers := senderTo(t, sinks)
	if path == pathPlainMmsg {
		u.gsoOK.Store(false)
	}
	if path != pathPortable {
		handled, completed := u.sendBatchOS(batch, peers)
		if !handled {
			t.Skip("sendmmsg unavailable in this environment")
		}
		if completed != len(batch) {
			t.Fatalf("sendBatchOS completed %d of %d messages", completed, len(batch))
		}
	} else {
		if completed := u.sendBatchPortable(batch, peers); completed != len(batch) {
			t.Fatalf("sendBatchPortable completed %d of %d messages", completed, len(batch))
		}
	}
	return u
}

// sameDatagrams waits until every sink holds msgs datagrams, then
// asserts each sink in got received byte for byte the multiset its
// counterpart in want did.
func sameDatagrams(t *testing.T, got, want []*rawSink, msgs int) {
	t.Helper()
	for i := range got {
		waitFor(t, func() bool { return got[i].count() == msgs }, fmt.Sprintf("sink %d full", i))
		waitFor(t, func() bool { return want[i].count() == msgs }, fmt.Sprintf("reference sink %d full", i))
	}
	for i := range got {
		g, w := got[i].payloads(), want[i].payloads()
		if len(g) != len(w) {
			t.Fatalf("sink %d: %d datagrams delivered, reference %d", i, len(g), len(w))
		}
		for j := range g {
			if g[j] != w[j] {
				t.Fatalf("sink %d datagram %d: bytes differ from the reference (%d vs %d bytes)",
					i, j, len(g[j]), len(w[j]))
			}
		}
	}
}

// TestMmsgPortableParity pins the bit-parity contract of the Linux
// batched-syscall path: for the same batch and peer group, sendmmsg
// puts exactly the same datagrams on the wire as the portable
// per-packet writer — same payload bytes, same per-peer multiset — it
// only changes the syscall count.
func TestMmsgPortableParity(t *testing.T) {
	const msgs = 40 // x2 peers = 80 entries: crosses the 64-entry chunk
	batch := mkBatch(msgs)

	mmsgSinks := []*rawSink{newRawSink(t), newRawSink(t)}
	mm := sendVia(t, mmsgSinks, batch, pathMmsg)
	portSinks := []*rawSink{newRawSink(t), newRawSink(t)}
	pp := sendVia(t, portSinks, batch, pathPortable)

	sameDatagrams(t, mmsgSinks, portSinks, msgs)

	ms, ps := mm.Stats(), pp.Stats()
	if ms.DatagramsSent != uint64(msgs*len(mmsgSinks)) || ms.DatagramsSent != ps.DatagramsSent {
		t.Fatalf("sent counters diverge: mmsg %d, portable %d", ms.DatagramsSent, ps.DatagramsSent)
	}
	// The whole point: 80 packets in a handful of syscalls.
	if ms.MmsgSends == 0 || ms.MmsgSends > 4 {
		t.Fatalf("MmsgSends = %d for %d packets, want 1..4", ms.MmsgSends, msgs*len(mmsgSinks))
	}
	if ps.MmsgSends != 0 {
		t.Fatalf("portable path counted %d mmsg syscalls", ps.MmsgSends)
	}
}

// TestMmsgEndToEndCounters asserts the batched path actually engages on
// a live exchange: the full protocol wire format travels through
// sendmmsg on the sender and recvmmsg on the receiver.
func TestMmsgEndToEndCounters(t *testing.T) {
	a, b, _, cb := newPair(t)
	if !a.mmsgOK.Load() {
		t.Skip("sendmmsg/recvmmsg unavailable in this environment")
	}
	const n = 20
	for i := 0; i < n; i++ {
		a.Broadcast(event.IDList{From: event.NodeID(i)})
	}
	waitFor(t, func() bool { return cb.count() == n }, "all messages at b")
	waitFor(t, func() bool { return a.Stats().MmsgSends > 0 }, "sendmmsg engaged at a")
	waitFor(t, func() bool { return b.Stats().MmsgRecvs > 0 }, "recvmmsg engaged at b")
	sa, sb := a.Stats(), b.Stats()
	if sa.MmsgSends > sa.DatagramsSent {
		t.Fatalf("more sendmmsg calls (%d) than datagrams (%d)", sa.MmsgSends, sa.DatagramsSent)
	}
	if sb.DatagramsReceived != n {
		t.Fatalf("b received %d datagrams, want %d", sb.DatagramsReceived, n)
	}
}

// TestMmsgCapabilityFallback: latching mmsgOK off must route both
// directions through the portable path with identical semantics.
func TestMmsgCapabilityFallback(t *testing.T) {
	a, b, _, cb := newPair(t)
	a.mmsgOK.Store(false)
	b.mmsgOK.Store(false)
	const n = 5
	for i := 0; i < n; i++ {
		a.Broadcast(event.IDList{From: event.NodeID(i)})
	}
	waitFor(t, func() bool { return cb.count() == n }, "messages via portable fallback")
	sa := a.Stats()
	if sa.MmsgSends != 0 {
		t.Fatalf("latched-off transport still made %d sendmmsg calls", sa.MmsgSends)
	}
	if sa.DatagramsSent != n {
		t.Fatalf("portable fallback sent %d datagrams, want %d", sa.DatagramsSent, n)
	}
	// b's read loop may have issued recvmmsg calls before the latch; the
	// delivered message count above is the semantic assertion.
}

// trainBatch is one flush batch that exercises every train boundary: a
// 14-byte run of 5, one 300-byte message, a run of 70 at 1257 bytes
// (past the 64-segment cap, and 140 entries against two peers on the
// plain path, past the 64-entry chunk) and one message too long to be a
// segment. Payloads are pairwise distinct.
func trainBatch() [][]byte {
	var batch [][]byte
	add := func(n, size int) {
		for i := 0; i < n; i++ {
			b := make([]byte, size)
			for j := range b {
				b[j] = byte(len(batch) + j)
			}
			b[0], b[1] = byte(len(batch)), byte(len(batch)>>8)
			batch = append(batch, b)
		}
	}
	add(5, 14)
	add(1, 300)
	add(70, 1257)
	add(1, gsoMaxSegment+1)
	return batch
}

// gsoSender is senderTo for tests that need segment trains: it skips
// where the kernel has no UDP GSO.
func gsoSender(t *testing.T, sinks []*rawSink) (*UDP, []*peerAddr) {
	t.Helper()
	u, peers := senderTo(t, sinks)
	if !u.mmsgOK.Load() || !u.gsoOK.Load() {
		t.Skip("UDP GSO unavailable in this environment")
	}
	return u, peers
}

// TestGSOTrainParity: segment trains put on the wire exactly what the
// portable per-datagram writer does, per sink byte for byte, and count
// one sent datagram per (message, peer).
func TestGSOTrainParity(t *testing.T) {
	batch := trainBatch()
	trainSinks := []*rawSink{newRawSink(t), newRawSink(t)}
	u, peers := gsoSender(t, trainSinks)
	if handled, completed := u.sendBatchOS(batch, peers); !handled || completed != len(batch) {
		t.Fatalf("sendBatchOS = (%v, %d), want (true, %d)", handled, completed, len(batch))
	}
	portSinks := []*rawSink{newRawSink(t), newRawSink(t)}
	pp := sendVia(t, portSinks, batch, pathPortable)
	sameDatagrams(t, trainSinks, portSinks, len(batch))

	ts, ps := u.Stats(), pp.Stats()
	want := uint64(len(batch) * len(trainSinks))
	if ts.DatagramsSent != want || ps.DatagramsSent != want {
		t.Fatalf("DatagramsSent: trains %d, portable %d, want %d", ts.DatagramsSent, ps.DatagramsSent, want)
	}
	if ts.SendErrors != 0 || !u.gsoOK.Load() {
		t.Fatalf("trains failed on a valid batch: %d send errors, gsoOK %v", ts.SendErrors, u.gsoOK.Load())
	}
	// 5 runs (the 1257-byte run splits at the 60 000-byte train cap)
	// to 2 peers: 10 entries, one syscall.
	if ts.MmsgSends != 1 {
		t.Fatalf("MmsgSends = %d, want 1", ts.MmsgSends)
	}
}

// TestGSOTrainsOffMatchPlain: with trains latched off the writer sends
// the mixed batch exactly as the plain sendmmsg path always has.
func TestGSOTrainsOffMatchPlain(t *testing.T) {
	batch := trainBatch()
	plainSinks := []*rawSink{newRawSink(t), newRawSink(t)}
	u := sendVia(t, plainSinks, batch, pathPlainMmsg)
	portSinks := []*rawSink{newRawSink(t), newRawSink(t)}
	sendVia(t, portSinks, batch, pathPortable)
	sameDatagrams(t, plainSinks, portSinks, len(batch))
	s := u.Stats()
	if s.DatagramsSent != uint64(2*len(batch)) {
		t.Fatalf("DatagramsSent = %d, want %d", s.DatagramsSent, 2*len(batch))
	}
	// 154 single-datagram entries: three 64-entry chunks.
	if s.MmsgSends != 3 {
		t.Fatalf("MmsgSends = %d, want 3 (one per 64-entry chunk)", s.MmsgSends)
	}
}

// TestGSOTrainOneSyscall: 40 equal messages to 2 peers leave as one
// train per peer in one sendmmsg call (80 plain entries took two), and
// each peer receives them in batch order.
func TestGSOTrainOneSyscall(t *testing.T) {
	const msgs = 40
	batch := make([][]byte, msgs)
	for i := range batch {
		batch[i] = []byte(fmt.Sprintf("equal-size message %03d", i))
	}
	sinks := []*rawSink{newRawSink(t), newRawSink(t)}
	u, peers := gsoSender(t, sinks)
	if handled, completed := u.sendBatchOS(batch, peers); !handled || completed != msgs {
		t.Fatalf("sendBatchOS = (%v, %d), want (true, %d)", handled, completed, msgs)
	}
	s := u.Stats()
	if s.MmsgSends != 1 || s.DatagramsSent != msgs*2 {
		t.Fatalf("MmsgSends %d, DatagramsSent %d; want 1 and %d", s.MmsgSends, s.DatagramsSent, msgs*2)
	}
	for i, sink := range sinks {
		waitFor(t, func() bool { return sink.count() == msgs }, fmt.Sprintf("sink %d full", i))
		for j, got := range sink.inOrder() {
			if got != string(batch[j]) {
				t.Fatalf("sink %d datagram %d is %q, want %q (batch order)", i, j, got, batch[j])
			}
		}
	}
}

// TestGSORejectedTrainResplit: a train the kernel refuses — built past
// every kernel's segment limit through the writer's own entry helper,
// as the first sendmmsg the socket ever makes — still delivers each
// segment exactly once, as single datagrams. Trains latch off; the
// batched path itself stays on.
func TestGSORejectedTrainResplit(t *testing.T) {
	const segs, size = 200, 14 // UDP_MAX_SEGMENTS is 64, or 128 on newer kernels
	batch := make([][]byte, segs)
	for i := range batch {
		batch[i] = []byte(fmt.Sprintf("seg-%010d", i))
		if len(batch[i]) != size {
			t.Fatalf("segment %d is %d bytes, want %d", i, len(batch[i]), size)
		}
	}
	sink := newRawSink(t)
	u, peers := gsoSender(t, []*rawSink{sink})
	u.mw = newMmsgWriter(len(u.send.slots))
	u.mw.load(batch)
	u.mw.put(0, peers[0], u.mw.iovs[:segs], size, segs)
	if done, status := u.flushChunk(1, 0); status != flushOK || done != segs {
		t.Fatalf("flushChunk = (%d, %v), want (%d, flushOK)", done, status, segs)
	}
	if u.gsoOK.Load() {
		t.Fatal("a rejected train left segment trains on")
	}
	if !u.mmsgOK.Load() {
		t.Fatal("a rejected train latched the batched path off")
	}
	s := u.Stats()
	if s.SendErrors != 0 || s.DatagramsSent != segs {
		t.Fatalf("SendErrors %d, DatagramsSent %d; want 0 and %d", s.SendErrors, s.DatagramsSent, segs)
	}
	waitFor(t, func() bool { return sink.count() == segs }, "every segment at the sink")
	got := sink.payloads()
	for i := range got {
		if want := fmt.Sprintf("seg-%010d", i); got[i] != want {
			t.Fatalf("datagram %d is %q, want %q (each segment exactly once)", i, got[i], want)
		}
	}
}

// TestGSOTrainLayout: entries go run-major, then peer, and a train's
// messages count as offered to every peer only once its last peer's
// entry has been — what the writer reports as sent when a close cuts a
// batch short. A socket closed before the flush reports nothing sent.
func TestGSOTrainLayout(t *testing.T) {
	batch := make([][]byte, 6)
	for i := range batch {
		batch[i] = make([]byte, 14)
		batch[i][0] = byte(i)
	}
	batch[5] = make([]byte, 300)
	sinks := []*rawSink{newRawSink(t), newRawSink(t), newRawSink(t)}
	u, peers := gsoSender(t, sinks)
	u.conn.Close()
	if handled, completed := u.sendBatchOS(batch, peers); !handled || completed != 0 {
		t.Fatalf("sendBatchOS on a closed socket = (%v, %d), want (true, 0)", handled, completed)
	}
	want := []struct{ peer, segs, done int }{
		{0, 5, 0}, {1, 5, 0}, {2, 5, 5}, // the 14-byte train to each peer
		{0, 1, 5}, {1, 1, 5}, {2, 1, 6}, // then the 300-byte message
	}
	for k, w := range want {
		if e := u.mw.ents[k]; e.who != peers[w.peer] || e.segs != w.segs || e.done != w.done {
			t.Fatalf("entry %d = (peer %s, %d segments, done %d), want (peer %s, %d, %d)",
				k, e.who.ap, e.segs, e.done, peers[w.peer].ap, w.segs, w.done)
		}
	}
	if s := u.Stats(); s.DatagramsSent != 0 || s.MmsgSends != 0 {
		t.Fatalf("closed socket counted %d datagrams in %d syscalls", s.DatagramsSent, s.MmsgSends)
	}
}
