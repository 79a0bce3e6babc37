// Package trace records message-level timelines — every broadcast,
// reception, publication and application delivery — in one bounded,
// goroutine-safe Ring. The same ring serves both substrates: a
// simulation run's cmd/frugalsim -trace and a live node's flight
// recorder (pubsub.Node.StartFlightRecorder). Timelines are for
// debugging; they are not part of the measured experiment path.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sync"

	"repro/internal/event"
	"repro/internal/sim"
)

// Op is the traced operation.
type Op uint8

const (
	// OpSend is a MAC broadcast leaving a node.
	OpSend Op = iota + 1
	// OpReceive is a frame arriving at a node.
	OpReceive
	// OpDeliver is an application delivery.
	OpDeliver
	// OpPublish is a local publication.
	OpPublish
	// OpDrop is a message lost to a bounded queue on the real path (a
	// send-ring eviction, or a datagram the kernel dropped on a full
	// socket buffer); unused by the simulator.
	OpDrop
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpSend:
		return "send"
	case OpReceive:
		return "recv"
	case OpDeliver:
		return "deliver"
	case OpPublish:
		return "publish"
	case OpDrop:
		return "drop"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Record is one timeline entry.
type Record struct {
	At   sim.Time
	Node event.NodeID
	Op   Op
	// Msg is the message kind for send/receive records.
	Msg event.Kind
	// Event identifies the event for deliver/publish records.
	Event event.ID
	// Bytes is the accounted size for send records.
	Bytes int
}

// Ring is the one timeline buffer: a goroutine-safe, fixed-capacity
// ring of the most recent Records, O(1) per Add. The simulator's -trace
// feeds it from one goroutine (the mutex is then uncontended); on the
// real path publishes, transport loops and timer callbacks race into it
// as a node's flight recorder (see pubsub.Node.StartFlightRecorder).
type Ring struct {
	mu    sync.Mutex
	buf   []Record
	next  int    // slot the next record lands in
	total uint64 // records ever added
}

// NewRing returns a ring retaining the last capacity records.
// It panics on a non-positive capacity.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic(fmt.Sprintf("trace: NewRing capacity %d", capacity))
	}
	return &Ring{buf: make([]Record, 0, capacity)}
}

// Add records one entry, overwriting the oldest beyond capacity.
func (r *Ring) Add(rec Record) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, rec)
	} else {
		r.buf[r.next] = rec
	}
	if r.next++; r.next == cap(r.buf) {
		r.next = 0
	}
	r.total++
	r.mu.Unlock()
}

// Total returns how many records were ever added.
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// snapshot copies the retained records, oldest first, and the total
// under one lock hold, so the two agree even while writers run.
func (r *Ring) snapshot() ([]Record, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Record, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...) // empty until the ring is full
	out = append(out, r.buf[:r.next]...)
	return out, r.total
}

// WriteText renders the retained records, oldest first, one per line,
// followed by a note counting the older records the ring overwrote.
func (r *Ring) WriteText(w io.Writer) error {
	recs, total := r.snapshot()
	bw := bufio.NewWriter(w)
	for _, rec := range recs {
		writeRecord(bw, rec)
	}
	if dropped := total - uint64(len(recs)); dropped > 0 {
		fmt.Fprintf(bw, "(%d older records dropped)\n", dropped)
	}
	return bw.Flush() // the first write error sticks and surfaces here
}

// writeRecord renders one timeline entry.
func writeRecord(w io.Writer, r Record) {
	switch r.Op {
	case OpSend:
		fmt.Fprintf(w, "%9s  %-4v %-7s %-9s %dB\n",
			r.At, r.Node, r.Op, r.Msg, r.Bytes)
	case OpReceive, OpDrop:
		fmt.Fprintf(w, "%9s  %-4v %-7s %-9s\n",
			r.At, r.Node, r.Op, r.Msg)
	default:
		fmt.Fprintf(w, "%9s  %-4v %-7s event %s\n",
			r.At, r.Node, r.Op, shortID(r.Event))
	}
}

func shortID(id event.ID) string {
	s := id.String()
	return s[:8]
}
