// Package trace records message-level timelines of simulation runs:
// every broadcast, reception and application delivery, with bounded
// memory. Timelines feed the cmd/frugalsim -trace flag and debugging
// sessions; they are not part of the measured experiment path.
package trace

import (
	"fmt"
	"io"

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
	// OpDrop is a message lost to a bounded queue on the real path
	// (transport send/recv ring overflow); unused by the simulator.
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

// Trace is a bounded in-memory timeline. When the capacity is exceeded,
// the oldest records are dropped (and counted). The zero value is
// unbounded; use New for a ring. Trace is not safe for concurrent use —
// the simulator is single-threaded.
type Trace struct {
	cap     int
	records []Record
	dropped uint64
}

// New returns a trace keeping at most capacity records (0 = unbounded).
func New(capacity int) *Trace {
	return &Trace{cap: capacity}
}

// Add appends a record, evicting the oldest beyond capacity.
func (t *Trace) Add(r Record) {
	if t.cap > 0 && len(t.records) >= t.cap {
		n := copy(t.records, t.records[1:])
		t.records = t.records[:n]
		t.dropped++
	}
	t.records = append(t.records, r)
}

// Len returns the number of retained records.
func (t *Trace) Len() int { return len(t.records) }

// Dropped returns how many records were evicted by the ring.
func (t *Trace) Dropped() uint64 { return t.dropped }

// Records returns the retained records in chronological order. The
// returned slice is owned by the trace; copy before mutating.
func (t *Trace) Records() []Record { return t.records }

// writeRecord renders one timeline entry (shared by Trace and Ring).
func writeRecord(w io.Writer, r Record) error {
	var err error
	switch r.Op {
	case OpSend:
		_, err = fmt.Fprintf(w, "%9s  %-4v %-7s %-9s %dB\n",
			r.At, r.Node, r.Op, r.Msg, r.Bytes)
	case OpReceive, OpDrop:
		_, err = fmt.Fprintf(w, "%9s  %-4v %-7s %-9s\n",
			r.At, r.Node, r.Op, r.Msg)
	default:
		_, err = fmt.Fprintf(w, "%9s  %-4v %-7s event %s\n",
			r.At, r.Node, r.Op, shortID(r.Event))
	}
	return err
}

// WriteText renders the timeline, one record per line.
func (t *Trace) WriteText(w io.Writer) error {
	for _, r := range t.records {
		if err := writeRecord(w, r); err != nil {
			return err
		}
	}
	if t.dropped > 0 {
		if _, err := fmt.Fprintf(w, "(%d older records dropped)\n", t.dropped); err != nil {
			return err
		}
	}
	return nil
}

func shortID(id event.ID) string {
	s := id.String()
	return s[:8]
}
