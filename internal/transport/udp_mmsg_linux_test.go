//go:build linux && (amd64 || arm64)

package transport

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"

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
	return senderAt(t, peerAddrs)
}

// senderAt builds a writer-less transport whose roster is peerAddrs.
func senderAt(t *testing.T, peerAddrs []string) (*UDP, []*peerAddr) {
	t.Helper()
	u, err := newUDP(UDPConfig{
		Listen:  "127.0.0.1:0",
		Peers:   peerAddrs,
		Handler: func(event.Message) {},
	}, DefaultSendQueue, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { u.Close() })
	u.mu.RLock()
	peers := u.peers
	u.mu.RUnlock()
	if len(peers) != len(peerAddrs) {
		t.Fatalf("roster has %d peers, want %d", len(peers), len(peerAddrs))
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
// directions through the portable path with identical semantics. The
// portable read sees no control message, so the latch turns UDP GRO
// off too: segment trains from a GSO sender still arrive one datagram
// per message.
func TestMmsgCapabilityFallback(t *testing.T) {
	a, b, _, cb := newPair(t)
	a.fallBack()
	b.fallBack()
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
	trainsArriveSplit(t, b, cb)
}

// TestMmsgSendLatchTurnsGROOff: a capability errno on the socket's
// first sendmmsg (as from a seccomp filter) latches the portable path
// through the same fallBack as the read side, so UDP GRO goes off with
// it and segment trains sent to that socket still arrive one message
// per segment.
func TestMmsgSendLatchTurnsGROOff(t *testing.T) {
	var c collect
	sink := newRawSink(t)
	rx, err := newUDP(UDPConfig{
		Listen:  "127.0.0.1:0",
		Peers:   []string{sink.conn.LocalAddr().String()},
		Handler: c.handle,
	}, DefaultSendQueue, false)
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	defer rx.Close()
	if !rx.mmsgOK.Load() || !probeGRO(rx.raw) {
		t.Skip("UDP GRO unavailable in this environment")
	}
	rx.Start()
	rx.mw = newMmsgWriter(len(rx.send.slots))
	rx.mw.fn = func(uintptr) bool {
		rx.mw.errno = syscall.EPERM
		return true
	}
	rx.mu.RLock()
	peers := rx.peers
	rx.mu.RUnlock()
	if handled, _ := rx.sendBatchOS([][]byte{[]byte("x")}, peers); handled {
		t.Fatal("a first-ever EPERM from sendmmsg did not hand the batch to the portable path")
	}
	if rx.mmsgOK.Load() {
		t.Fatal("a first-ever EPERM from sendmmsg left the batched path on")
	}
	if groEnabled(t, rx) {
		t.Fatal("the send-side latch left UDP GRO on")
	}
	trainsArriveSplit(t, rx, &c)
}

// groEnabled reads UDP_GRO back from u's socket, skipping where the
// kernel cannot report it.
func groEnabled(t *testing.T, u *UDP) bool {
	t.Helper()
	var v int
	var gerr error
	if err := u.raw.Control(func(fd uintptr) {
		v, gerr = syscall.GetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO)
	}); err != nil || gerr != nil {
		t.Skipf("UDP_GRO unreadable: %v %v", err, gerr)
	}
	return v != 0
}

// trainsArriveSplit sends segment trains from a GSO sender to rx, whose
// batched path is latched off, and requires every segment to reach
// rx's handler c as its own message. One plain datagram goes first:
// rx's read loop may still be parked in a recvmmsg call from before
// the latch, and after it every read is portable.
func trainsArriveSplit(t *testing.T, rx *UDP, c *collect) {
	t.Helper()
	tx, peers := senderAt(t, []string{rx.LocalAddr().String()})
	skipWithoutGSO(t, tx)
	base := c.count()
	rs := rx.Stats()
	first := [][]byte{event.Marshal(event.IDList{From: 1000})}
	if handled, completed := tx.sendBatchOS(first, peers); !handled || completed != 1 {
		t.Fatalf("sendBatchOS = (%v, %d), want (true, 1)", handled, completed)
	}
	waitFor(t, func() bool { return c.count() == base+1 }, "the plain datagram")
	const trains, perTrain = 4, 40
	for k := 0; k < trains; k++ {
		batch := make([][]byte, perTrain)
		for i := range batch {
			batch[i] = event.Marshal(event.IDList{From: event.NodeID(k*perTrain + i)})
		}
		if handled, completed := tx.sendBatchOS(batch, peers); !handled || completed != perTrain {
			t.Fatalf("sendBatchOS = (%v, %d), want (true, %d)", handled, completed, perTrain)
		}
	}
	want := base + 1 + trains*perTrain
	waitFor(t, func() bool { return c.count() == want }, "every train segment as its own message")
	s := rx.Stats()
	if s.DecodeErrors != rs.DecodeErrors || s.DatagramsReceived-rs.DatagramsReceived != 1+trains*perTrain {
		t.Fatalf("portable reader: %d decode errors, %d received; want 0 and %d",
			s.DecodeErrors-rs.DecodeErrors, s.DatagramsReceived-rs.DatagramsReceived, 1+trains*perTrain)
	}
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
	skipWithoutGSO(t, u)
	return u, peers
}

func skipWithoutGSO(t *testing.T, u *UDP) {
	t.Helper()
	if !u.mmsgOK.Load() || !u.gsoOK.Load() {
		t.Skip("UDP GSO unavailable in this environment")
	}
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

// groReceiver builds a transport that nothing reads but the test,
// through the read loop's own batcher and split; gro picks whether UDP
// GRO stays on.
func groReceiver(t *testing.T, gro bool) (*UDP, *readBatcher) {
	t.Helper()
	u, err := newUDP(UDPConfig{Listen: "127.0.0.1:0", Handler: func(event.Message) {}}, DefaultSendQueue, false)
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	t.Cleanup(func() { u.Close() })
	if !u.mmsgOK.Load() || !probeGRO(u.raw) {
		t.Skip("UDP GRO unavailable in this environment")
	}
	if !gro && !setSockOpt(u.raw, syscall.IPPROTO_UDP, udpGRO, 0) {
		t.Fatal("UDP GRO would not turn off")
	}
	rb := u.newReadBatcher()
	t.Cleanup(rb.release)
	return u, rb
}

// readSplit reads until want datagrams have come out of rb, exactly
// as readLoop takes them, and returns their bytes in read order and how
// many buffers the reads returned.
func readSplit(t *testing.T, u *UDP, rb *readBatcher, want int) (got []string, bufs int) {
	t.Helper()
	u.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for len(got) < want {
		n, err := rb.read()
		if err != nil {
			t.Fatalf("read with %d of %d datagrams: %v", len(got), want, err)
		}
		for data, _, ok := rb.next(); ok; data, _, ok = rb.next() {
			got = append(got, string(data))
		}
		bufs += n
	}
	return got, bufs
}

func sorted(ss []string) []string {
	ss = append([]string(nil), ss...)
	sort.Strings(ss)
	return ss
}

// TestGROParity: a batch that mixes trains, plain datagrams and sizes
// reaches a GRO receiver as fewer buffers than datagrams, a receiver
// with GRO off as one buffer per datagram (as before GRO), and both
// split out byte for byte the sent datagrams.
func TestGROParity(t *testing.T) {
	batch := trainBatch()
	on, rbOn := groReceiver(t, true)
	off, rbOff := groReceiver(t, false)
	tx, peers := senderAt(t, []string{on.LocalAddr().String(), off.LocalAddr().String()})
	skipWithoutGSO(t, tx)
	if handled, completed := tx.sendBatchOS(batch, peers); !handled || completed != len(batch) {
		t.Fatalf("sendBatchOS = (%v, %d), want (true, %d)", handled, completed, len(batch))
	}
	gotOn, bufsOn := readSplit(t, on, rbOn, len(batch))
	gotOff, bufsOff := readSplit(t, off, rbOff, len(batch))
	want := make([]string, len(batch))
	for i, b := range batch {
		want[i] = string(b)
	}
	want = sorted(want)
	for name, got := range map[string][]string{"GRO on": gotOn, "GRO off": gotOff} {
		got = sorted(got)
		if len(got) != len(want) {
			t.Fatalf("%s: %d datagrams read, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: datagram %d differs from the sent one (%d vs %d bytes)", name, i, len(got[i]), len(want[i]))
			}
		}
	}
	if bufsOff != len(batch) {
		t.Fatalf("GRO off read %d buffers for %d datagrams", bufsOff, len(batch))
	}
	if bufsOn >= len(batch) {
		t.Skipf("the kernel split every train before the socket (%d buffers)", bufsOn)
	}
}

// TestGROShortLastSegment: a train whose last segment is shorter than
// the segment size — which this writer never sends, but another
// sender may — is split at the segment size, the short tail last. A
// plain datagram (no control message) goes first into the same slot,
// so the train finds the slot's control buffer reset.
func TestGROShortLastSegment(t *testing.T) {
	rx, rb := groReceiver(t, true)
	tx, peers := senderAt(t, []string{rx.LocalAddr().String()})
	skipWithoutGSO(t, tx)
	plain := [][]byte{[]byte("plain")}
	if handled, completed := tx.sendBatchOS(plain, peers); !handled || completed != 1 {
		t.Fatalf("sendBatchOS = (%v, %d), want (true, 1)", handled, completed)
	}
	if got, _ := readSplit(t, rx, rb, 1); got[0] != "plain" {
		t.Fatalf("plain datagram read as %q", got[0])
	}
	batch := [][]byte{[]byte("segment-0-14B."), []byte("segment-1-14B."), []byte("segment-2-14B."), []byte("tail-9-B.")}
	tx.mw.load(batch)
	tx.mw.put(0, peers[0], tx.mw.iovs[:len(batch)], 14, len(batch))
	if done, status := tx.flushChunk(1, 0); status != flushOK || done != len(batch) {
		t.Fatalf("flushChunk = (%d, %v), want (%d, flushOK)", done, status, len(batch))
	}
	got, _ := readSplit(t, rx, rb, len(batch))
	for i := range batch {
		if got[i] != string(batch[i]) {
			t.Fatalf("datagram %d is %q, want %q", i, got[i], batch[i])
		}
	}
}

// TestGROMalformedSegmentMidTrain: an undecodable segment in the middle
// of a coalesced train counts one decode error, and its neighbours are
// each handled and teach the roster their source once.
func TestGROMalformedSegmentMidTrain(t *testing.T) {
	var c collect
	rx, err := NewUDP(UDPConfig{Listen: "127.0.0.1:0", Handler: c.handle, LearnPeers: true})
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	defer rx.Close()
	if !probeGRO(rx.raw) {
		t.Skip("UDP GRO unavailable in this environment")
	}
	rx.Start()
	tx, peers := senderAt(t, []string{rx.LocalAddr().String()})
	skipWithoutGSO(t, tx)
	const segs, bad = 10, 4
	batch := make([][]byte, segs)
	for i := range batch {
		batch[i] = event.Marshal(event.IDList{From: event.NodeID(i)})
	}
	batch[bad] = make([]byte, len(batch[0]))
	batch[bad][0] = 0xff // no such message kind
	if handled, completed := tx.sendBatchOS(batch, peers); !handled || completed != segs {
		t.Fatalf("sendBatchOS = (%v, %d), want (true, %d)", handled, completed, segs)
	}
	waitFor(t, func() bool { return c.count() == segs-1 }, "every well-formed segment")
	waitFor(t, func() bool { return rx.Stats().DecodeErrors == 1 }, "one decode error")
	if s := rx.Stats(); s.DatagramsReceived != segs-1 || s.RecvDropped != 0 || s.PeersLearned != 1 {
		t.Fatalf("received %d, dropped %d, learned %d; want %d, 0, 1",
			s.DatagramsReceived, s.RecvDropped, s.PeersLearned, segs-1)
	}
	for i, m := range c.snapshot() {
		want := event.NodeID(i)
		if i >= bad {
			want++
		}
		if from := m.(event.IDList).From; from != want {
			t.Fatalf("message %d is from %d, want %d", i, from, want)
		}
	}
}

// TestGROReadSplitZeroAlloc pins the receive path's allocation
// contract: a warm read of a 10-segment train, the parse of its slot's
// control messages and the split into datagrams allocate nothing (nor
// does the warm sendmmsg that puts the train on the wire). The socket
// overflows first, so every train read afterwards carries the kernel's
// drop count beside its segment size: two control messages, and a
// reader that parsed only the first would miss the split.
func TestGROReadSplitZeroAlloc(t *testing.T) {
	rx, rb := groReceiver(t, true)
	if !probeRxqOvfl(rx.raw) {
		t.Skip("the kernel refuses SO_RXQ_OVFL")
	}
	tx, peers := senderAt(t, []string{rx.LocalAddr().String()})
	skipWithoutGSO(t, tx)
	batch := make([][]byte, 10)
	for i := range batch {
		batch[i] = event.Marshal(event.Heartbeat{From: event.NodeID(i)})
	}
	var bufs, segs int
	round := func() {
		tx.sendBatchOS(batch, peers)
		n, err := rb.read()
		if err != nil {
			panic(err)
		}
		for _, _, ok := rb.next(); ok; _, _, ok = rb.next() {
			segs++
		}
		bufs += n
	}
	round()
	if bufs != 1 || segs != len(batch) {
		t.Skipf("the kernel split a train before the socket: %d buffers for %d segments", bufs, segs)
	}
	// Overflow the unread socket with a multiple of what its buffer can
	// hold (every queued train costs well over 512 bytes), drain it,
	// and read one train more: the kernel stamps its drop count on it.
	for range 2 * rcvBuf(t, rx) / 512 {
		tx.sendBatchOS(batch, peers)
	}
	for {
		rx.conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		if _, err := rb.read(); err != nil {
			break
		}
	}
	rx.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	bufs, segs = 0, 0
	round()
	dropped := rx.Stats().RecvDropped
	if dropped == 0 || uint64(rb.drops) != dropped {
		t.Fatalf("RecvDropped %d, kernel count %d after an overflow; want equal and > 0", dropped, rb.drops)
	}
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("read + split of a warm train allocated %.1f times/op, want 0", n)
	}
	if want := 102 * len(batch); bufs != 102 || segs != want {
		t.Fatalf("%d buffers split into %d datagrams, want 102 and %d", bufs, segs, want)
	}
	if got := rx.Stats().RecvDropped; got != dropped {
		t.Fatalf("RecvDropped moved %d → %d with no new drop", dropped, got)
	}
}

// rcvBuf reads u's effective receive buffer size, SO_RCVBUF.
func rcvBuf(t *testing.T, u *UDP) int {
	t.Helper()
	var v int
	var gerr error
	if err := u.raw.Control(func(fd uintptr) {
		v, gerr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	}); err != nil || gerr != nil {
		t.Fatalf("SO_RCVBUF unreadable: %v %v", err, gerr)
	}
	return v
}

// TestRecvControlMessagesInPlace: a slot's control buffer may carry a
// UDP_GRO segment size and an SO_RXQ_OVFL drop count in either order,
// or either alone. parse reads each in place, counts how far the drop
// count grew (in uint32, so across its wrap) into RecvDropped and the
// drop hook, and allocates nothing.
func TestRecvControlMessagesInPlace(t *testing.T) {
	u, err := newUDP(UDPConfig{Listen: "127.0.0.1:0", Handler: func(event.Message) {}}, DefaultSendQueue, false)
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	defer u.Close()
	var hooked int
	u.SetDropHook(func() { hooked++ })
	rb := u.newReadBatcher()
	defer rb.release()
	gro := cmsg4{val: 14}
	gro.hdr.Level, gro.hdr.Type = syscall.IPPROTO_UDP, udpGRO
	ovfl := func(total uint32) cmsg4 {
		c := cmsg4{val: total}
		c.hdr.Level, c.hdr.Type = syscall.SOL_SOCKET, syscall.SO_RXQ_OVFL
		return c
	}
	const n = 140 // a 10-segment train of 14-byte heartbeats
	for _, c := range []struct {
		name    string
		from    uint32 // the count last read
		msgs    []cmsg4
		segs    int
		dropped uint64 // the growth counted
	}{
		{"none", 0, nil, n, 0},
		{"GRO only", 0, []cmsg4{gro}, 14, 0},
		{"overflow, then GRO", 0, []cmsg4{ovfl(5), gro}, 14, 5},
		{"GRO, then overflow", 5, []cmsg4{gro, ovfl(12)}, 14, 7},
		{"overflow only", 12, []cmsg4{ovfl(20)}, n, 8},
		{"count unchanged", 20, []cmsg4{ovfl(20), gro}, 14, 0},
		{"count wraps", 1<<32 - 3, []cmsg4{gro, ovfl(4)}, 14, 7},
	} {
		rb.drops = c.from
		before, hooks := u.Stats().RecvDropped, hooked
		rb.ctrl[0] = [2]cmsg4{}
		for j, m := range c.msgs {
			m.hdr.SetLen(syscall.CmsgLen(4))
			rb.ctrl[0][j] = m
		}
		rb.hdrs[0].n = n
		rb.hdrs[0].hdr.Namelen = 0
		rb.hdrs[0].hdr.SetControllen(len(c.msgs) * int(unsafe.Sizeof(cmsg4{})))
		rb.parse(0)
		if rb.segs[0] != c.segs {
			t.Errorf("%s: %d-byte segments, want %d", c.name, rb.segs[0], c.segs)
		}
		if got := u.Stats().RecvDropped - before; got != c.dropped || hooked-hooks != int(c.dropped) {
			t.Errorf("%s: counted %d drops and ran the hook %d times, want %d", c.name, got, hooked-hooks, c.dropped)
		}
	}
	// Both messages, the count growing by one per read.
	rb.ctrl[0] = [2]cmsg4{ovfl(0), gro}
	for j := range rb.ctrl[0] {
		rb.ctrl[0][j].hdr.SetLen(syscall.CmsgLen(4))
	}
	rb.hdrs[0].hdr.SetControllen(int(unsafe.Sizeof(rb.ctrl[0])))
	rb.drops = 0
	before := u.Stats().RecvDropped
	allocs := testing.AllocsPerRun(100, func() {
		rb.ctrl[0][0].val++
		rb.parse(0)
	})
	if allocs != 0 {
		t.Fatalf("parsing two control messages allocated %.1f times/op, want 0", allocs)
	}
	if got := u.Stats().RecvDropped - before; got != uint64(rb.ctrl[0][0].val) || rb.segs[0] != 14 {
		t.Fatalf("counted %d drops over %d reads, segment size %d; want %d and 14", got, rb.ctrl[0][0].val, rb.segs[0], rb.ctrl[0][0].val)
	}
}

// TestUDPRecvOverflowConservation pins the receive-side law with the
// kernel's socket buffer as the one receive queue. A receiver whose
// handler sleeps is flooded with twice what its buffer can hold; once
// the handler is released and a trailing datagram has brought the
// kernel's final drop count, every datagram sent was handled, counted
// dropped or counted undecodable, exactly, and some were dropped. The
// flood goes as plain datagrams: a segment train that UDP GRO kept
// whole and the kernel dropped counts once (see Stats.RecvDropped).
func TestUDPRecvOverflowConservation(t *testing.T) {
	const blocker, marker = 1 << 20, 1 << 21
	entered, release := make(chan struct{}), make(chan struct{})
	var markerSeen atomic.Bool
	var hooked atomic.Uint64
	rx, err := NewUDP(UDPConfig{
		Listen: "127.0.0.1:0",
		Handler: func(m event.Message) {
			switch m.(event.Heartbeat).From {
			case blocker:
				close(entered)
				<-release
			case marker:
				markerSeen.Store(true)
			}
		},
	})
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	defer rx.Close()
	if !probeRxqOvfl(rx.raw) {
		t.Skip("the kernel refuses SO_RXQ_OVFL")
	}
	rx.SetDropHook(func() { hooked.Add(1) })
	rx.Start()
	tx, peers := senderAt(t, []string{rx.LocalAddr().String()})
	tx.gsoOK.Store(false)
	send := func(froms ...int) {
		batch := make([][]byte, len(froms))
		for i, f := range froms {
			batch[i] = event.Marshal(event.Heartbeat{From: event.NodeID(f)})
		}
		if handled, completed := tx.sendBatchOS(batch, peers); !handled || completed != len(batch) {
			t.Fatalf("sendBatchOS = (%v, %d), want (true, %d)", handled, completed, len(batch))
		}
	}
	send(blocker)
	<-entered
	// A queued heartbeat costs the buffer ~830 bytes, so it holds fewer
	// than rcvBuf/512: the flood overflows it by more than its size.
	flood := 2 * rcvBuf(t, rx) / 512
	chunk := make([]int, mmsgChunk)
	for sent := 0; sent < flood; sent += len(chunk) {
		for i := range chunk {
			chunk[i] = sent + i
		}
		send(chunk...)
	}
	close(release)
	// The marker may itself meet a full buffer; resend until one is
	// handled. Nothing follows it, so its count is the final one.
	waitFor(t, func() bool {
		if markerSeen.Load() {
			return true
		}
		send(marker)
		return false
	}, "a trailing datagram handled")
	sent := tx.Stats().DatagramsSent
	waitFor(t, func() bool {
		s := rx.Stats()
		return s.DatagramsReceived+s.RecvDropped+s.DecodeErrors == sent
	}, "every datagram handled or counted")
	s := rx.Stats()
	if s.RecvDropped == 0 || s.DecodeErrors != 0 {
		t.Fatalf("sent %d: received %d, dropped %d, undecodable %d; want some dropped and none undecodable",
			sent, s.DatagramsReceived, s.RecvDropped, s.DecodeErrors)
	}
	if hooked.Load() != s.RecvDropped {
		t.Fatalf("drop hook ran %d times for %d drops", hooked.Load(), s.RecvDropped)
	}
	t.Logf("sent %d: handled %d, dropped %d", sent, s.DatagramsReceived, s.RecvDropped)
}
