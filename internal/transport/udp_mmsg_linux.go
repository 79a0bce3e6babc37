//go:build linux && (amd64 || arm64)

// Linux batched-syscall fast path: the writer's per-flush batch goes to
// the kernel in sendmmsg calls (one syscall for up to mmsgChunk
// entries) and the read loop drains the socket with recvmmsg. Where
// the kernel supports UDP GSO (UDP_SEGMENT, Linux 4.18+), each run of
// consecutive equal-length messages goes to each peer as one entry —
// a segment train. A socket with UDP GRO on (UDP_GRO, Linux 5.0+) may
// read a whole train as one buffer, its segment size in a control
// message, which the read loop splits back into datagrams. Either way
// each receiver handles what the portable per-datagram path gives;
// only the syscall, stack-walk and buffer counts change (see
// TestMmsgPortableParity, TestGSOTrainParity, TestGROParity). Raw
// syscall.Syscall6 against stdlib constants keeps the module
// dependency-free; the shape follows the classic x/net
// Sendmmsg/Recvmmsg wrappers. Both directions integrate with the
// runtime poller through syscall.RawConn: MSG_DONTWAIT plus
// return-false-on-EAGAIN parks the goroutine on the poller instead of
// spinning, so Close and deadlines keep working. The first
// capability-type errno (ENOSYS from an old kernel, EPERM from a
// seccomp filter, ...) before any success latches mmsgOK=false and the
// transport falls back to the portable path for good, turning GRO off
// first: the portable read sees no control message. Trains have their
// own latch, gsoOK: set by a setsockopt probe at construction, cleared
// for good when the kernel rejects a train as malformed. GRO is turned
// on at construction and off only by that fallback. SO_RXQ_OVFL is
// on too: once the socket's receive buffer has overflowed, every
// datagram read carries the kernel's cumulative drop count in a second
// control message, which the read loop turns into Stats.RecvDropped.

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

// Segment-train limits.
const (
	// udpSegment and udpGRO are UDP_SEGMENT and UDP_GRO (linux/udp.h),
	// which the frozen syscall package lacks; their level SOL_UDP equals
	// IPPROTO_UDP.
	udpSegment = 103
	udpGRO     = 104
	// gsoMaxSegment is the longest message sent as a segment: a
	// 1500-byte MTU less the IPv6 and UDP headers. A segment longer
	// than the route MTU makes the kernel fail the train with EINVAL;
	// longer messages go as single datagrams, and IP fragments them.
	gsoMaxSegment = 1500 - 40 - 8
	// gsoMaxSegs caps the segments in one train: every GSO-capable
	// kernel accepts 64.
	gsoMaxSegs = 64
	// gsoMaxBytes keeps a whole train under the 64 KiB datagram limit.
	gsoMaxBytes = 60000
)

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

// setSockOpt sets an integer socket option, reporting whether the
// socket took it.
func setSockOpt(raw syscall.RawConn, level, opt, v int) bool {
	var serr error
	if err := raw.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), level, opt, v)
	}); err != nil {
		return false
	}
	return serr == nil
}

// probeGSO reports whether the socket accepts UDP_SEGMENT. A kernel
// without UDP GSO answers ENOPROTOOPT; one that ignored the control
// message instead would put a whole train on the wire as one datagram,
// so trains are never sent without this check passing.
func probeGSO(raw syscall.RawConn) bool { return setSockOpt(raw, syscall.IPPROTO_UDP, udpSegment, 0) }

// probeGRO turns UDP_GRO on, reporting whether the socket took it;
// without it the kernel splits every train into its segments.
func probeGRO(raw syscall.RawConn) bool { return setSockOpt(raw, syscall.IPPROTO_UDP, udpGRO, 1) }

// probeRxqOvfl turns SO_RXQ_OVFL on, reporting whether the socket took
// it: once a datagram has been dropped, the kernel stamps its
// cumulative drop count on every datagram it queues.
func probeRxqOvfl(raw syscall.RawConn) bool {
	return setSockOpt(raw, syscall.SOL_SOCKET, syscall.SO_RXQ_OVFL, 1)
}

// fallBack latches the portable path for good. GRO goes off first:
// readOne sees no control message, so it must never get a train.
func (u *UDP) fallBack() {
	setSockOpt(u.raw, syscall.IPPROTO_UDP, udpGRO, 0)
	u.mmsgOK.Store(false)
}

// isTrainRejected classifies the errnos with which the kernel refuses
// a segment train as such — a segment over the route MTU or past the
// segment limit (EINVAL), a socket that cannot offload (EIO), a train
// over the datagram limit (EMSGSIZE). Any of them latches trains off
// for the socket's life.
func isTrainRejected(errno syscall.Errno) bool {
	switch errno {
	case syscall.EINVAL, syscall.EIO, syscall.EMSGSIZE:
		return true
	}
	return false
}

// trainLen returns how many messages from the head of msgs go to each
// peer as one segment train: the run of equal wire lengths, capped by
// gsoMaxSegs and gsoMaxBytes. It is 1 — a plain datagram — when the
// head message is too long to be a segment.
func trainLen(msgs [][]byte) int {
	size := len(msgs[0])
	if size == 0 || size > gsoMaxSegment {
		return 1
	}
	limit := min(len(msgs), gsoMaxSegs, gsoMaxBytes/size)
	n := 1
	for n < limit && len(msgs[n]) == size {
		n++
	}
	return n
}

// gsoCmsg is one UDP_SEGMENT control message: the header and its
// uint16 segment size, padded to CMSG_SPACE(2).
type gsoCmsg struct {
	hdr  syscall.Cmsghdr
	size uint16
	_    [6]byte
}

// mmsgEntry is what the writer keeps beside each mmsghdr: the peer it
// goes to (error attribution), the datagrams it carries (1, or a
// train's segment count) and how many batch messages have been offered
// to every peer once it has been.
type mmsgEntry struct {
	who  *peerAddr
	segs int
	done int
}

// mmsgWriter is the writer goroutine's sendmmsg scratch state, built
// once, lazily, by the writer — Broadcast stays zero-alloc and the
// flush path allocates nothing.
type mmsgWriter struct {
	hdrs [mmsgChunk]mmsghdr
	ents [mmsgChunk]mmsgEntry
	ctrl [mmsgChunk]gsoCmsg
	// iovs holds one iovec per send-ring slot, for the batch message
	// in that position. Every peer's entry for a message or train
	// points into it, so a train costs no copy.
	iovs []syscall.Iovec
	// split/splitEnts re-offer a failed train one segment per entry.
	split     [gsoMaxSegs]mmsghdr
	splitEnts [gsoMaxSegs]mmsgEntry
	// vec/vlen (arguments) and sent/errno (results) cross the poller
	// callback through fields, so fn is built once here instead of a
	// fresh closure per syscall.
	vec   *mmsghdr
	vlen  int
	sent  int
	errno syscall.Errno
	fn    func(fd uintptr) bool
}

func newMmsgWriter(batchCap int) *mmsgWriter {
	mw := &mmsgWriter{iovs: make([]syscall.Iovec, batchCap)}
	mw.fn = func(fd uintptr) bool {
		r, _, e := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(mw.vec)), uintptr(mw.vlen),
			syscall.MSG_DONTWAIT, 0, 0)
		if e == syscall.EAGAIN {
			return false // park on the poller until writable
		}
		mw.sent, mw.errno = int(r), e
		return true
	}
	return mw
}

// load points one iovec at each batch message. A batch never holds
// more messages than the send ring has slots.
func (mw *mmsgWriter) load(batch [][]byte) {
	for i, wire := range batch {
		mw.iovs[i] = syscall.Iovec{Base: unsafe.SliceData(wire), Len: uint64(len(wire))}
	}
}

// put fills entry k: the messages behind iovs, each size bytes long, to
// p — a plain datagram for one iovec, a segment train for several.
// done is the number of batch messages offered to every peer once this
// entry has been.
func (mw *mmsgWriter) put(k int, p *peerAddr, iovs []syscall.Iovec, size, done int) {
	h := &mw.hdrs[k].hdr
	*h = syscall.Msghdr{Name: &p.raw[0], Namelen: p.rawLen, Iov: &iovs[0], Iovlen: uint64(len(iovs))}
	if len(iovs) > 1 {
		c := &mw.ctrl[k]
		c.hdr.Level, c.hdr.Type = syscall.IPPROTO_UDP, udpSegment
		c.hdr.SetLen(syscall.CmsgLen(2))
		c.size = uint16(size)
		h.Control = (*byte)(unsafe.Pointer(c))
		h.SetControllen(int(unsafe.Sizeof(*c)))
	}
	mw.ents[k] = mmsgEntry{who: p, segs: len(iovs), done: done}
}

type flushStatus int

const (
	flushOK       flushStatus = iota
	flushClosed               // socket gone mid-chunk (Close)
	flushFellBack             // syscall unsupported; caller re-offers portably
)

// sendBatchOS fans the batch out via sendmmsg. handled=false means the
// fast path is latched off and nothing was sent — the caller runs the
// portable path. Entries are laid out run-major, then peer: every
// peer's entry for one train (or single message), then the next, so
// each peer receives its datagrams in batch order. completed counts
// the messages offered to every peer; an early close leaves at most
// the current train partly offered, and the writer counts it dropped.
func (u *UDP) sendBatchOS(batch [][]byte, peers []*peerAddr) (handled bool, completed int) {
	if !u.mmsgOK.Load() {
		return false, 0
	}
	if u.mw == nil {
		u.mw = newMmsgWriter(len(u.send.slots))
	}
	mw := u.mw
	mw.load(batch)
	done, k := 0, 0
	var status flushStatus
	for i := 0; i < len(batch); {
		n := 1
		if u.gsoOK.Load() {
			n = trainLen(batch[i:])
		}
		for j, p := range peers {
			end := i
			if j == len(peers)-1 {
				end = i + n
			}
			mw.put(k, p, mw.iovs[i:i+n], len(batch[i]), end)
			if k++; k == mmsgChunk {
				if done, status = u.flushChunk(k, done); status != flushOK {
					return status == flushClosed, done
				}
				k = 0
			}
		}
		i += n
	}
	if k > 0 {
		if done, status = u.flushChunk(k, done); status != flushOK {
			return status == flushClosed, done
		}
	}
	return true, len(batch)
}

// flushChunk offers mw.hdrs[:k] and returns the batch messages offered
// to every peer so far (done before this chunk, more after it).
func (u *UDP) flushChunk(k, done int) (int, flushStatus) {
	mw := u.mw
	offered, status := u.offer(mw.hdrs[:k], mw.ents[:k])
	if offered > 0 {
		done = mw.ents[offered-1].done
	}
	return done, status
}

// offer hands vec to the kernel, retrying partial sends until every
// entry has been offered. sendmmsg reports an error by failing the
// FIRST entry. A failed plain entry is counted and skipped (mirroring
// the portable path's per-packet error handling), unless it is a
// capability errno before any sendmmsg has ever succeeded on this
// socket, which latches the portable path instead. A failed train is
// re-offered one segment per entry, so delivery and SendErrors match
// the plain path; if the kernel rejected it as a train, trains latch
// off.
func (u *UDP) offer(vec []mmsghdr, ents []mmsgEntry) (offered int, status flushStatus) {
	mw := u.mw
	for offered < len(vec) {
		mw.vec, mw.vlen = &vec[offered], len(vec)-offered
		mw.sent, mw.errno = 0, 0
		if u.raw.Write(mw.fn) != nil {
			// RawConn.Write fails only when the socket is closed.
			return offered, flushClosed
		}
		switch e := ents[offered]; {
		case mw.errno == syscall.EINTR:
		case mw.errno != 0 && e.segs > 1:
			if isTrainRejected(mw.errno) {
				u.gsoOK.Store(false)
			}
			if status := u.resplit(&vec[offered].hdr, e.who); status != flushOK {
				return offered, status
			}
			offered++
		case mw.errno != 0:
			if u.mmsgSends.Load() == 0 && isMmsgUnsupported(mw.errno) {
				u.fallBack()
				return 0, flushFellBack
			}
			u.sendErrs.Add(1)
			u.reportError(fmt.Errorf("transport: sendmmsg to %s: %w", e.who.ap, error(mw.errno)))
			offered++
		case mw.sent <= 0:
			// Defensive: zero-progress success would loop forever.
			u.sendErrs.Add(1)
			offered++
		default:
			u.mmsgSends.Add(1)
			var dgrams uint64
			for _, e := range ents[offered : offered+mw.sent] {
				dgrams += uint64(e.segs)
			}
			u.sent.Add(dgrams)
			offered += mw.sent
		}
	}
	return offered, flushOK
}

// resplit re-offers the failed train h to p one segment per entry, as
// the plain path would have sent it.
func (u *UDP) resplit(h *syscall.Msghdr, p *peerAddr) flushStatus {
	mw := u.mw
	iovs := unsafe.Slice(h.Iov, h.Iovlen)
	for len(iovs) > 0 {
		n := min(len(iovs), len(mw.split))
		for j := range n {
			mw.split[j].hdr = syscall.Msghdr{Name: h.Name, Namelen: h.Namelen, Iov: &iovs[j], Iovlen: 1}
			mw.splitEnts[j] = mmsgEntry{who: p, segs: 1}
		}
		if _, status := u.offer(mw.split[:n], mw.splitEnts[:n]); status != flushOK {
			return status
		}
		iovs = iovs[n:]
	}
	return flushOK
}

// cmsg4 is the room for one control message with a 4-byte payload,
// padded to CMSG_SPACE(4): UDP_GRO's int segment size or SO_RXQ_OVFL's
// uint32 drop count.
type cmsg4 struct {
	hdr syscall.Cmsghdr
	val uint32
	_   [4]byte
}

// readBatcher drains the socket with recvmmsg: up to recvSlots queued
// buffers (with their source addresses) per syscall. When the batched
// path is unavailable it degrades to the portable single-read.
type readBatcher struct {
	u *UDP
	// mem backs bufs: one anonymous mapping, or heap where mmap fails.
	mem    []byte
	mapped bool
	bufs   [recvSlots][]byte
	names  [recvSlots][sockaddrBufSize]byte
	// ctrl holds each slot's control messages: a UDP_GRO segment size
	// and an SO_RXQ_OVFL drop count can arrive together, in either
	// order.
	ctrl [recvSlots][2]cmsg4
	iovs [recvSlots]syscall.Iovec
	hdrs [recvSlots]mmsghdr
	segs [recvSlots]int
	srcs [recvSlots]netip.AddrPort
	// drops is the socket's cumulative drop count as last read.
	drops uint32
	// cur and off walk the last read's datagrams for next: the slot,
	// and the offset of the next segment in it.
	cur, off int
	// got/errno carry the syscall result out of the pre-allocated
	// poller callback fn — no closure allocation per read.
	got   int
	errno syscall.Errno
	fn    func(fd uintptr) bool
}

func (u *UDP) newReadBatcher() *readBatcher {
	rb := &readBatcher{u: u}
	// One anonymous mapping, off the Go heap: the kernel backs only the
	// pages reads touch, and the collector never paces on the megabyte.
	mem, err := syscall.Mmap(-1, 0, recvSlots*maxDatagram,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if rb.mapped = err == nil; !rb.mapped {
		mem = make([]byte, recvSlots*maxDatagram)
	}
	rb.mem = mem
	for i := range rb.bufs {
		rb.bufs[i] = mem[i*maxDatagram : (i+1)*maxDatagram]
		rb.iovs[i] = syscall.Iovec{Base: &rb.bufs[i][0], Len: maxDatagram}
		rb.hdrs[i].hdr = syscall.Msghdr{
			Name:    &rb.names[i][0],
			Iov:     &rb.iovs[i],
			Iovlen:  1,
			Control: (*byte)(unsafe.Pointer(&rb.ctrl[i])),
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

// release unmaps the slots. No read's bytes may be held past it:
// dispatch hands the handler decoded copies.
func (rb *readBatcher) release() {
	if rb.mapped {
		syscall.Munmap(rb.mem)
		rb.mapped = false
	}
}

// read blocks until at least one buffer arrives, returning how many
// slots were filled.
func (rb *readBatcher) read() (int, error) {
	u := rb.u
	rb.got, rb.cur, rb.off = 0, 0, 0
	for {
		if !u.mmsgOK.Load() {
			n, src, err := u.readOne(rb.bufs[0])
			if err != nil {
				return 0, err
			}
			rb.hdrs[0].n, rb.segs[0], rb.srcs[0] = uint32(n), n, src
			rb.got = 1
			return 1, nil
		}
		for i := range rb.hdrs {
			// Namelen and Controllen are kernel-written per call.
			rb.hdrs[i].hdr.Namelen = sockaddrBufSize
			rb.hdrs[i].hdr.SetControllen(int(unsafe.Sizeof(rb.ctrl[i])))
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
				u.fallBack()
				continue // retry on the portable path
			}
			return 0, rb.errno
		}
		u.mmsgRecvs.Add(1)
		for i := 0; i < rb.got; i++ {
			rb.parse(i)
		}
		return rb.got, nil
	}
}

// parse takes slot i of the last recvmmsg apart: its segment size, its
// source, and the control messages a socket with UDP_GRO and
// SO_RXQ_OVFL on can carry, read in place
// (syscall.ParseSocketControlMessage allocates). Each fills one
// CMSG_SPACE(4) entry; anything else ends the walk.
func (rb *readBatcher) parse(i int) {
	h := &rb.hdrs[i].hdr
	rb.segs[i] = int(rb.hdrs[i].n)
	for j := range rb.ctrl[i] {
		c := &rb.ctrl[i][j]
		if h.Controllen < uint64(j*int(unsafe.Sizeof(*c))+syscall.CmsgLen(4)) ||
			c.hdr.Len != uint64(syscall.CmsgLen(4)) {
			break
		}
		switch {
		case c.hdr.Level == syscall.IPPROTO_UDP && c.hdr.Type == udpGRO && int32(c.val) > 0:
			rb.segs[i] = int(int32(c.val))
		case c.hdr.Level == syscall.SOL_SOCKET && c.hdr.Type == syscall.SO_RXQ_OVFL:
			rb.countDrops(c.val)
		}
	}
	rb.srcs[i] = sockaddrToAddrPort(rb.names[i][:h.Namelen])
}

// countDrops takes the socket's cumulative drop count from an
// SO_RXQ_OVFL message and counts what it grew by since the last one.
// The count is a uint32 that wraps, and so does the difference.
func (rb *readBatcher) countDrops(total uint32) {
	d := total - rb.drops
	if d == 0 {
		return
	}
	rb.drops = total
	rb.u.recvDropped.Add(uint64(d))
	rb.u.fireDropHook(int(d))
}

// next returns the next datagram of the last read and its source: a
// buffer as read, or one segment of a train GRO coalesced, split at the
// segment size (the last segment may be shorter). ok is false once
// every datagram has been returned. The bytes are valid until the next
// read.
func (rb *readBatcher) next() (data []byte, src netip.AddrPort, ok bool) {
	if rb.cur >= rb.got { // got is -1 after a failed syscall
		return nil, src, false
	}
	i := rb.cur
	data = rb.bufs[i][rb.off:rb.hdrs[i].n]
	if seg := rb.segs[i]; len(data) > seg {
		data = data[:seg]
		rb.off += seg
	} else {
		rb.cur, rb.off = i+1, 0
	}
	return data, rb.srcs[i], true
}
