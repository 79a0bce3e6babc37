//go:build linux && (amd64 || arm64)

// Linux batched-syscall fast path: the writer's per-flush batch goes to
// the kernel in sendmmsg calls (one syscall for up to mmsgChunk
// packets) and the read loop drains the socket with recvmmsg. The wire
// bytes are identical to the portable per-datagram path — only the
// syscall count changes (see TestMmsgPortableParity). Raw
// syscall.Syscall6 against stdlib constants keeps the module
// dependency-free; the shape follows the classic x/net
// Sendmmsg/Recvmmsg wrappers. Both directions integrate with the
// runtime poller through syscall.RawConn: MSG_DONTWAIT plus
// return-false-on-EAGAIN parks the goroutine on the poller instead of
// spinning, so Close and deadlines keep working. The first
// capability-type errno (ENOSYS from an old kernel, EPERM from a
// seccomp filter, ...) before any success latches mmsgOK=false and the
// transport falls back to the portable path for good.

package transport

import (
	"fmt"
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// mmsgChunk bounds the entries handed to one sendmmsg call; the kernel
// caps vlen at UIO_MAXIOV (1024), and 64 keeps the writer's fixed
// scratch arrays small while still amortizing syscall cost ~64x.
const mmsgChunk = 64

// recvSlots is the recvmmsg batch width: one syscall can drain up to
// this many queued datagrams.
const recvSlots = 16

// mmsghdr mirrors struct mmsghdr. Go's natural field alignment
// reproduces the C layout (msg_len plus trailing padding to the
// pointer-aligned stride), so an array of these is a valid msgvec.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32 // msg_len: bytes sent/received for this entry (kernel-written)
}

// fillSockaddr pre-marshals ap as a raw sockaddr for the batched path,
// returning its length. A v4 destination on an AF_INET6 (dual-stack)
// socket is written in its v4-mapped form, matching what the net
// package does internally for WriteToUDPAddrPort.
func (u *UDP) fillSockaddr(ap netip.AddrPort, buf *[sockaddrBufSize]byte) uint32 {
	a := ap.Addr()
	if !u.sock6 && a.Is4() {
		// sockaddr_in: family, big-endian port, 4-byte addr, zero pad.
		*buf = [sockaddrBufSize]byte{}
		*(*uint16)(unsafe.Pointer(&buf[0])) = syscall.AF_INET
		buf[2] = byte(ap.Port() >> 8)
		buf[3] = byte(ap.Port())
		a4 := a.As4()
		copy(buf[4:8], a4[:])
		return syscall.SizeofSockaddrInet4
	}
	// sockaddr_in6: family, big-endian port, flowinfo, 16-byte addr
	// (v4-mapped when the destination is v4), scope id.
	*buf = [sockaddrBufSize]byte{}
	*(*uint16)(unsafe.Pointer(&buf[0])) = syscall.AF_INET6
	buf[2] = byte(ap.Port() >> 8)
	buf[3] = byte(ap.Port())
	a16 := a.As16()
	copy(buf[8:24], a16[:])
	if z := a.Zone(); z != "" {
		if ifi, err := net.InterfaceByName(z); err == nil {
			*(*uint32)(unsafe.Pointer(&buf[24])) = uint32(ifi.Index)
		}
	}
	return syscall.SizeofSockaddrInet6
}

// sockaddrToAddrPort decodes a kernel-written raw sockaddr (4-in-6
// sources unmapped, like readOne).
func sockaddrToAddrPort(name []byte) netip.AddrPort {
	if len(name) < 8 {
		return netip.AddrPort{}
	}
	port := uint16(name[2])<<8 | uint16(name[3])
	switch *(*uint16)(unsafe.Pointer(&name[0])) {
	case syscall.AF_INET:
		var a4 [4]byte
		copy(a4[:], name[4:8])
		return netip.AddrPortFrom(netip.AddrFrom4(a4), port)
	case syscall.AF_INET6:
		if len(name) < 24 {
			return netip.AddrPort{}
		}
		var a16 [16]byte
		copy(a16[:], name[8:24])
		return netip.AddrPortFrom(netip.AddrFrom16(a16).Unmap(), port)
	}
	return netip.AddrPort{}
}

// isMmsgUnsupported classifies errnos that mean "this syscall will
// never work here" — old kernel (ENOSYS), seccomp policy (EPERM), or a
// stack that rejects the vectored form outright (EOPNOTSUPP/EINVAL).
// Only consulted before the first success; afterwards the same errnos
// are treated as per-destination failures.
func isMmsgUnsupported(errno syscall.Errno) bool {
	switch errno {
	case syscall.ENOSYS, syscall.EPERM, syscall.EOPNOTSUPP, syscall.EINVAL:
		return true
	}
	return false
}

// mmsgWriter is the writer goroutine's sendmmsg scratch state: one
// chunk of mmsghdrs/iovecs plus the owning peer of each entry for
// error attribution. Allocated once, lazily, by the writer — Broadcast
// stays zero-alloc.
type mmsgWriter struct {
	hdrs [mmsgChunk]mmsghdr
	iovs [mmsgChunk]syscall.Iovec
	who  [mmsgChunk]*peerAddr
	// off/k (arguments) and sent/errno (results) cross the poller
	// callback through fields, so fn is built once here instead of a
	// fresh closure per syscall — the flush path allocates nothing.
	off, k, sent int
	errno        syscall.Errno
	fn           func(fd uintptr) bool
}

func newMmsgWriter() *mmsgWriter {
	mw := &mmsgWriter{}
	mw.fn = func(fd uintptr) bool {
		r, _, e := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&mw.hdrs[mw.off])), uintptr(mw.k-mw.off),
			syscall.MSG_DONTWAIT, 0, 0)
		if e == syscall.EAGAIN {
			return false // park on the poller until writable
		}
		mw.sent, mw.errno = int(r), e
		return true
	}
	return mw
}

type flushStatus int

const (
	flushOK       flushStatus = iota
	flushClosed               // socket gone mid-chunk (Close)
	flushFellBack             // syscall unsupported; caller re-offers portably
)

// sendBatchOS fans the batch out via sendmmsg. handled=false means the
// fast path is latched off and nothing was sent — the caller runs the
// portable path. Entries are laid out
// msg-major (every peer of message 0, then message 1, ...), so on an
// early close the fully-offered message count is offered/len(peers).
func (u *UDP) sendBatchOS(batch [][]byte, peers []*peerAddr) (handled bool, completed int) {
	if !u.mmsgOK.Load() {
		return false, 0
	}
	if u.mw == nil {
		u.mw = newMmsgWriter()
	}
	mw := u.mw
	offered, k := 0, 0
	for _, wire := range batch {
		for _, p := range peers {
			mw.iovs[k] = syscall.Iovec{Base: unsafe.SliceData(wire), Len: uint64(len(wire))}
			mw.hdrs[k].hdr = syscall.Msghdr{
				Name:    &p.raw[0],
				Namelen: p.rawLen,
				Iov:     &mw.iovs[k],
				Iovlen:  1,
			}
			mw.who[k] = p
			k++
			if k == mmsgChunk {
				done, status := u.flushChunk(k)
				offered += done
				k = 0
				switch status {
				case flushFellBack:
					return false, 0
				case flushClosed:
					return true, offered / len(peers)
				}
			}
		}
	}
	if k > 0 {
		done, status := u.flushChunk(k)
		offered += done
		switch status {
		case flushFellBack:
			return false, 0
		case flushClosed:
			return true, offered / len(peers)
		}
	}
	return true, len(batch)
}

// flushChunk hands mw.hdrs[:k] to the kernel, retrying partial sends
// until every entry has been offered. A head-entry error is counted and
// skipped (mirroring the portable path's per-packet error handling); a
// capability errno before any sendmmsg has ever succeeded on this
// socket latches the portable path instead.
func (u *UDP) flushChunk(k int) (offered int, status flushStatus) {
	mw := u.mw
	mw.k, mw.off = k, 0
	for mw.off < k {
		mw.sent, mw.errno = 0, 0
		werr := u.raw.Write(mw.fn)
		if werr != nil {
			// RawConn.Write fails only when the socket is closed.
			return mw.off, flushClosed
		}
		if mw.errno != 0 {
			if mw.errno == syscall.EINTR {
				continue
			}
			if u.mmsgSends.Load() == 0 && isMmsgUnsupported(mw.errno) {
				u.mmsgOK.Store(false)
				return 0, flushFellBack
			}
			// sendmmsg reports an error by failing the FIRST entry;
			// count it, skip it, keep draining the rest.
			u.sendErrs.Add(1)
			u.reportError(fmt.Errorf("transport: sendmmsg to %s: %w", mw.who[mw.off].ap, error(mw.errno)))
			mw.off++
			continue
		}
		if mw.sent <= 0 {
			// Defensive: zero-progress success would loop forever.
			u.sendErrs.Add(1)
			mw.off++
			continue
		}
		u.mmsgSends.Add(1)
		u.sent.Add(uint64(mw.sent))
		mw.off += mw.sent
	}
	return k, flushOK
}

// readBatcher drains the socket with recvmmsg: up to recvSlots queued
// datagrams (with their source addresses) per syscall. When the
// batched path is unavailable it degrades to the portable single-read.
type readBatcher struct {
	u     *UDP
	bufs  [recvSlots][]byte
	names [recvSlots][sockaddrBufSize]byte
	iovs  [recvSlots]syscall.Iovec
	hdrs  [recvSlots]mmsghdr
	lens  [recvSlots]int
	srcs  [recvSlots]netip.AddrPort
	// got/errno carry the syscall result out of the pre-allocated
	// poller callback fn — no closure allocation per read.
	got   int
	errno syscall.Errno
	fn    func(fd uintptr) bool
}

func (u *UDP) newReadBatcher() *readBatcher {
	rb := &readBatcher{u: u}
	for i := range rb.bufs {
		rb.bufs[i] = make([]byte, maxDatagram)
		rb.iovs[i] = syscall.Iovec{Base: &rb.bufs[i][0], Len: maxDatagram}
		rb.hdrs[i].hdr = syscall.Msghdr{
			Name:   &rb.names[i][0],
			Iov:    &rb.iovs[i],
			Iovlen: 1,
		}
	}
	rb.fn = func(fd uintptr) bool {
		r, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
			uintptr(unsafe.Pointer(&rb.hdrs[0])), recvSlots,
			syscall.MSG_DONTWAIT, 0, 0)
		if e == syscall.EAGAIN {
			return false // park on the poller until readable
		}
		rb.got, rb.errno = int(r), e
		return true
	}
	return rb
}

// read blocks until at least one datagram arrives, returning how many
// slots were filled.
func (rb *readBatcher) read() (int, error) {
	u := rb.u
	for {
		if !u.mmsgOK.Load() {
			n, src, err := u.readOne(rb.bufs[0])
			if err != nil {
				return 0, err
			}
			rb.lens[0], rb.srcs[0] = n, src
			return 1, nil
		}
		for i := range rb.hdrs {
			// Namelen is kernel-written per call; reset it.
			rb.hdrs[i].hdr.Namelen = sockaddrBufSize
		}
		rb.got, rb.errno = 0, 0
		rerr := u.raw.Read(rb.fn)
		if rerr != nil {
			return 0, rerr
		}
		if rb.errno != 0 {
			if rb.errno == syscall.EINTR {
				continue
			}
			if u.mmsgRecvs.Load() == 0 && isMmsgUnsupported(rb.errno) {
				u.mmsgOK.Store(false)
				continue // retry on the portable path
			}
			return 0, rb.errno
		}
		u.mmsgRecvs.Add(1)
		for i := 0; i < rb.got; i++ {
			rb.lens[i] = int(rb.hdrs[i].n)
			rb.srcs[i] = sockaddrToAddrPort(rb.names[i][:rb.hdrs[i].hdr.Namelen])
		}
		return rb.got, nil
	}
}

// datagram returns slot i of the last read. The buffer is valid until
// the next read call; ingest copies it into the dispatch ring.
func (rb *readBatcher) datagram(i int) ([]byte, netip.AddrPort) {
	return rb.bufs[i][:rb.lens[i]], rb.srcs[i]
}
