//go:build !linux || !(amd64 || arm64)

// Portable stand-ins for the Linux batched-syscall fast path (see
// udp_mmsg_linux.go): sends go one WriteTo per packet, reads one
// datagram per syscall. Semantics and wire bytes are identical — only
// the syscall count differs.

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
	n   int
	src netip.AddrPort
}

func (u *UDP) newReadBatcher() *readBatcher {
	return &readBatcher{u: u, buf: make([]byte, maxDatagram)}
}

func (rb *readBatcher) read() (int, error) {
	n, src, err := rb.u.readOne(rb.buf)
	if err != nil {
		return 0, err
	}
	rb.n, rb.src = n, src
	return 1, nil
}

func (rb *readBatcher) datagram(int) ([]byte, int, netip.AddrPort) {
	return rb.buf[:rb.n], rb.n, rb.src
}

// probeGSO reports segment trains unavailable: they exist only on the
// Linux batched path.
func probeGSO(syscall.RawConn) bool { return false }

// probeGRO reports coalesced receives unavailable: every read is one
// datagram.
func probeGRO(syscall.RawConn) bool { return false }
