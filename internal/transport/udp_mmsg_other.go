//go:build !linux || !(amd64 || arm64)

// Portable stand-ins for the Linux batched-syscall fast path (see
// udp_mmsg_linux.go): sends go one WriteTo per packet, reads one
// datagram per syscall. Wire bytes and the datagrams handled are
// identical; the syscall count differs, and no kernel drop count is
// read, so Stats.RecvDropped stays 0.

package transport

import (
	"net/netip"
	"syscall"
)

// mmsgWriter is unused off the Linux batched path; the field on UDP
// stays nil.
type mmsgWriter struct{}

// sendBatchOS reports the batched fast path unavailable; sendBatch runs
// the portable per-packet fallback.
func (u *UDP) sendBatchOS(batch [][]byte, peers []*peerAddr) (handled bool, completed int) {
	return false, 0
}

// fillSockaddr is a no-op: raw sockaddrs are only consumed by the
// batched syscall path.
func (u *UDP) fillSockaddr(ap netip.AddrPort, buf *[sockaddrBufSize]byte) uint32 {
	return 0
}

// readBatcher is the single-datagram portable reader.
type readBatcher struct {
	u   *UDP
	buf []byte
	n   int // bytes in buf; -1 once next has returned them
	src netip.AddrPort
}

func (u *UDP) newReadBatcher() *readBatcher {
	return &readBatcher{u: u, buf: make([]byte, maxDatagram), n: -1}
}

func (rb *readBatcher) read() (int, error) {
	n, src, err := rb.u.readOne(rb.buf)
	if err != nil {
		return 0, err
	}
	rb.n, rb.src = n, src
	return 1, nil
}

// release frees nothing: the buffer is heap.
func (rb *readBatcher) release() {}

// next returns the datagram of the last read once.
func (rb *readBatcher) next() ([]byte, netip.AddrPort, bool) {
	if rb.n < 0 {
		return nil, netip.AddrPort{}, false
	}
	data := rb.buf[:rb.n]
	rb.n = -1
	return data, rb.src, true
}

// probeGSO reports segment trains unavailable: they exist only on the
// Linux batched path.
func probeGSO(syscall.RawConn) bool { return false }

// probeGRO reports coalesced receives unavailable: every read is one
// datagram.
func probeGRO(syscall.RawConn) bool { return false }

// probeRxqOvfl reports the kernel's drop count unavailable: the
// portable read takes no control messages.
func probeRxqOvfl(syscall.RawConn) bool { return false }
