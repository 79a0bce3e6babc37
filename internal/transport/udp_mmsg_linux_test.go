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

// sendVia builds a writer-less transport aimed at the sinks and runs
// one batch through the given send path, returning the sender.
func sendVia(t *testing.T, sinks []*rawSink, batch [][]byte, mmsg bool) *UDP {
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
	if mmsg {
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

// TestMmsgPortableParity pins the bit-parity contract of the Linux
// batched-syscall path: for the same batch and peer group, sendmmsg
// puts exactly the same datagrams on the wire as the portable
// per-packet writer — same payload bytes, same per-peer multiset — it
// only changes the syscall count.
func TestMmsgPortableParity(t *testing.T) {
	const msgs = 40 // x2 peers = 80 entries: crosses the 64-entry chunk
	batch := mkBatch(msgs)

	mmsgSinks := []*rawSink{newRawSink(t), newRawSink(t)}
	mm := sendVia(t, mmsgSinks, batch, true)
	portSinks := []*rawSink{newRawSink(t), newRawSink(t)}
	pp := sendVia(t, portSinks, batch, false)

	for i := range mmsgSinks {
		i := i
		waitFor(t, func() bool { return mmsgSinks[i].count() == msgs }, fmt.Sprintf("mmsg sink %d full", i))
		waitFor(t, func() bool { return portSinks[i].count() == msgs }, fmt.Sprintf("portable sink %d full", i))
	}
	for i := range mmsgSinks {
		got, want := mmsgSinks[i].payloads(), portSinks[i].payloads()
		if len(got) != len(want) {
			t.Fatalf("sink %d: mmsg delivered %d datagrams, portable %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("sink %d datagram %d: mmsg bytes differ from portable (%d vs %d bytes)",
					i, j, len(got[j]), len(want[j]))
			}
		}
	}

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
