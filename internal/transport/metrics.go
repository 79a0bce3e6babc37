// Transport observability: the counters UDP already keeps as atomics are
// exposed through the obs registry as scrape-time funcs, so the hot path
// pays nothing it was not already paying. Registration additionally arms
// a handler-latency histogram in the read loop — the one instrument
// that is not free, costing one time.Now pair and a short mutex hold per
// handled message, which is why it only runs once RegisterMetrics has
// been called. See ARCHITECTURE.md "Observability contracts".

package transport

import "repro/internal/obs"

// QueueDepths returns the send ring's current occupancy, and 0 for
// recv: the one receive queue is the kernel's socket buffer, which is
// not sampled (Stats.RecvDropped counts its overflow). Safe to call
// from any goroutine.
func (u *UDP) QueueDepths() (send, recv int) {
	u.send.mu.Lock()
	send = u.send.count
	u.send.mu.Unlock()
	return send, 0
}

// SetDropHook arranges for fn to run once per dropped message: a
// send-ring eviction, on the Broadcast caller, or a datagram the kernel
// reports dropped (Stats.RecvDropped), on the socket read goroutine. It
// must be fast and must not call back into the transport. One hook at most; pubsub.Node's flight recorder
// is the intended consumer.
func (u *UDP) SetDropHook(fn func()) {
	if fn == nil {
		u.dropHook.Store(nil)
		return
	}
	u.dropHook.Store(&fn)
}

// RegisterMetrics exposes the transport's cumulative counters and live
// queue depths on reg (labels identify the instance, typically
// node="<id>") and arms the per-message handler-latency histogram.
// Scrapes read the same atomics Stats reads; nothing is sampled or
// cached.
func (u *UDP) RegisterMetrics(reg *obs.Registry, labels ...string) {
	reg.CounterFunc("repro_transport_datagrams_sent_total",
		"UDP datagrams written to the peer group", u.sent.Load, labels...)
	reg.CounterFunc("repro_transport_datagrams_received_total",
		"UDP datagrams decoded and dispatched to the handler", u.received.Load, labels...)
	reg.CounterFunc("repro_transport_decode_errors_total",
		"incoming datagrams that failed to unmarshal", u.decodeErrs.Load, labels...)
	reg.CounterFunc("repro_transport_send_errors_total",
		"socket write errors (excluding shutdown)", u.sendErrs.Load, labels...)
	reg.CounterFunc("repro_transport_send_drops_total",
		"outbound messages evicted by send-ring overflow (drop-oldest)", u.dropped.Load, labels...)
	reg.CounterFunc("repro_transport_recv_drops_total",
		"inbound datagrams the kernel dropped on a full socket buffer (SO_RXQ_OVFL; 0 off the Linux batched path)", u.recvDropped.Load, labels...)
	reg.CounterFunc("repro_transport_batches_total",
		"writer flush passes; datagrams_sent/batches is the coalescing factor", u.batches.Load, labels...)
	reg.CounterFunc("repro_transport_peers_learned_total",
		"roster joins learned from observed datagram sources (LearnPeers)", u.peersLearned.Load, labels...)
	reg.CounterFunc("repro_transport_peers_evicted_total",
		"roster evictions by the suspicion-window failure detector", u.peersEvicted.Load, labels...)
	reg.CounterFunc("repro_transport_mmsg_sends_total",
		"sendmmsg syscalls on the Linux batched path (0 elsewhere)", u.mmsgSends.Load, labels...)
	reg.CounterFunc("repro_transport_mmsg_recvs_total",
		"recvmmsg syscalls on the Linux batched path (0 elsewhere)", u.mmsgRecvs.Load, labels...)
	reg.GaugeFunc("repro_transport_peers",
		"current broadcast-roster size", func() float64 {
			return float64(u.PeerCount())
		}, labels...)
	reg.GaugeFunc("repro_transport_send_queue_depth",
		"messages currently queued in the send ring", func() float64 {
			s, _ := u.QueueDepths()
			return float64(s)
		}, labels...)
	u.handlerHist.Store(reg.Histogram("repro_transport_handler_seconds",
		"latency of each handler call", labels...))
}
