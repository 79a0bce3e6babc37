package event

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/topic"
)

// The binary wire format is a compact, versionless encoding intended for
// real transports (see pubsub's ExampleNewNode). Bandwidth *accounting* in the
// experiments uses SizeModel instead, so that the figures match the
// paper's fixed message sizes rather than our encoding overhead.

// ErrTruncated is returned when a buffer ends before a complete message.
var ErrTruncated = errors.New("event: truncated message")

// ErrUnknownKind is returned for an unrecognized message discriminator.
var ErrUnknownKind = errors.New("event: unknown message kind")

// ErrTrailing is returned when bytes follow a complete message.
var ErrTrailing = errors.New("event: trailing bytes")

// Marshal encodes m into a fresh buffer.
func Marshal(m Message) []byte { return AppendMarshal(nil, m) }

// AppendMarshal encodes m appended to dst and returns the extended
// buffer, exactly as append(dst, Marshal(m)...) would — byte for byte
// (pinned by FuzzAppendMarshalParity) — but without the intermediate
// allocation. It is the real-transport fast path: callers that reuse
// dst across messages (transport.UDP's send ring) marshal with zero
// steady-state allocations once the buffer has grown to its working
// size.
func AppendMarshal(dst []byte, m Message) []byte {
	b := dst
	switch v := m.(type) {
	case Heartbeat:
		b = append(b, byte(KindHeartbeat))
		b = binary.BigEndian.AppendUint32(b, uint32(v.From))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.Speed))
		b = binary.AppendUvarint(b, uint64(len(v.Subscriptions)))
		for _, t := range v.Subscriptions {
			b = appendString(b, t.String())
		}
	case IDList:
		b = append(b, byte(KindIDList))
		b = binary.BigEndian.AppendUint32(b, uint32(v.From))
		b = binary.AppendUvarint(b, uint64(len(v.IDs)))
		for _, id := range v.IDs {
			b = binary.BigEndian.AppendUint64(b, id.Hi)
			b = binary.BigEndian.AppendUint64(b, id.Lo)
		}
	case Events:
		b = append(b, byte(KindEvents))
		b = binary.BigEndian.AppendUint32(b, uint32(v.From))
		b = binary.AppendUvarint(b, uint64(len(v.Receivers)))
		for _, r := range v.Receivers {
			b = binary.BigEndian.AppendUint32(b, uint32(r))
		}
		b = binary.AppendUvarint(b, uint64(len(v.Events)))
		for _, ev := range v.Events {
			b = AppendEvent(b, ev)
		}
	default:
		panic(fmt.Sprintf("event: cannot marshal %T", m))
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendEvent encodes one event in the Events-message element layout,
// appended to b. It is the append-style building block under
// AppendMarshal, exported for callers that frame events themselves.
func AppendEvent(b []byte, ev Event) []byte {
	b = binary.BigEndian.AppendUint64(b, ev.ID.Hi)
	b = binary.BigEndian.AppendUint64(b, ev.ID.Lo)
	b = appendString(b, ev.Topic.String())
	b = binary.BigEndian.AppendUint32(b, uint32(ev.Publisher))
	b = binary.BigEndian.AppendUint64(b, uint64(ev.Validity))
	b = binary.BigEndian.AppendUint64(b, uint64(ev.Remaining))
	b = binary.AppendUvarint(b, uint64(len(ev.Payload)))
	return append(b, ev.Payload...)
}

// Unmarshal decodes a message produced by Marshal. The buffer must hold
// exactly one message: bytes after it (a datagram with trailing
// garbage, or several messages read as one buffer) are an error, not
// silently dropped.
func Unmarshal(b []byte) (Message, error) {
	d := decoder{b: b}
	var m Message
	switch kind := Kind(d.u8()); kind {
	case KindHeartbeat:
		h := Heartbeat{From: NodeID(d.u32()), Speed: math.Float64frombits(d.u64())}
		n := d.uvarint()
		for i := uint64(0); i < n && d.err == nil; i++ {
			t, err := topic.Parse(d.str())
			if err != nil {
				return nil, fmt.Errorf("event: heartbeat topic: %w", err)
			}
			h.Subscriptions = append(h.Subscriptions, t)
		}
		m = h
	case KindIDList:
		l := IDList{From: NodeID(d.u32())}
		n := d.uvarint()
		for i := uint64(0); i < n && d.err == nil; i++ {
			l.IDs = append(l.IDs, ID{Hi: d.u64(), Lo: d.u64()})
		}
		m = l
	case KindEvents:
		e := Events{From: NodeID(d.u32())}
		nr := d.uvarint()
		for i := uint64(0); i < nr && d.err == nil; i++ {
			e.Receivers = append(e.Receivers, NodeID(d.u32()))
		}
		ne := d.uvarint()
		for i := uint64(0); i < ne && d.err == nil; i++ {
			ev, err := d.event()
			if err != nil {
				return nil, err
			}
			e.Events = append(e.Events, ev)
		}
		m = e
	default:
		if d.err != nil {
			return nil, d.err
		}
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, kind)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after a %v", ErrTrailing, len(d.b), m.Kind())
	}
	return m, nil
}

type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrTruncated
	}
}

func (d *decoder) u8() byte {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil || uint64(len(d.b)) < n {
		d.fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) event() (Event, error) {
	ev := Event{ID: ID{Hi: d.u64(), Lo: d.u64()}}
	ts := d.str()
	if d.err != nil {
		return Event{}, d.err
	}
	t, err := topic.Parse(ts)
	if err != nil {
		return Event{}, fmt.Errorf("event: event topic: %w", err)
	}
	ev.Topic = t
	ev.Publisher = NodeID(d.u32())
	ev.Validity = time.Duration(d.u64())
	ev.Remaining = time.Duration(d.u64())
	n := d.uvarint()
	if d.err != nil || uint64(len(d.b)) < n {
		d.fail()
		return Event{}, d.err
	}
	if n > 0 {
		ev.Payload = append([]byte(nil), d.b[:n]...)
		d.b = d.b[n:]
	}
	return ev, d.err
}
