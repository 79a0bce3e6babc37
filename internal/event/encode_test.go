package event

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/topic"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	b := Marshal(m)
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal(%v): %v", m.Kind(), err)
	}
	return got
}

func TestHeartbeatRoundTrip(t *testing.T) {
	h := Heartbeat{
		From:          42,
		Subscriptions: []topic.Topic{topic.MustParse(".a.b"), topic.MustParse(".c")},
		Speed:         12.5,
	}
	got := roundTrip(t, h)
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("got %+v, want %+v", got, h)
	}
}

func TestHeartbeatUnknownSpeed(t *testing.T) {
	h := Heartbeat{From: 1, Speed: -1}
	got := roundTrip(t, h).(Heartbeat)
	if got.Speed != -1 {
		t.Fatalf("speed = %v", got.Speed)
	}
	if got.Subscriptions != nil {
		t.Fatalf("subscriptions = %v, want nil", got.Subscriptions)
	}
}

func TestIDListRoundTrip(t *testing.T) {
	l := IDList{From: 7, IDs: []ID{{1, 2}, {0xffffffffffffffff, 0}}}
	got := roundTrip(t, l)
	if !reflect.DeepEqual(got, l) {
		t.Fatalf("got %+v, want %+v", got, l)
	}
}

func TestEventsRoundTrip(t *testing.T) {
	e := Events{
		From:      9,
		Receivers: []NodeID{1, 2, 3},
		Events: []Event{
			{
				ID:        ID{5, 6},
				Topic:     topic.MustParse(".t0.t1"),
				Publisher: 9,
				Payload:   []byte("parking spot 14 is free"),
				Validity:  3 * time.Minute,
				Remaining: 90 * time.Second,
			},
			{
				ID:       ID{7, 8},
				Topic:    topic.Root(),
				Validity: time.Second,
			},
		},
	}
	got := roundTrip(t, e)
	if !reflect.DeepEqual(got, e) {
		t.Fatalf("got %+v, want %+v", got, e)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	tests := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"unknown kind", []byte{0xee}, ErrUnknownKind},
		{"truncated heartbeat", []byte{byte(KindHeartbeat), 0, 0}, ErrTruncated},
		{"truncated idlist", Marshal(IDList{From: 1, IDs: []ID{{1, 2}}})[:10], ErrTruncated},
		{"one trailing byte", append(Marshal(Heartbeat{From: 1}), 0), ErrTrailing},
		{"two messages concatenated", append(Marshal(IDList{From: 1, IDs: []ID{{1, 2}}}), Marshal(Heartbeat{From: 2})...), ErrTrailing},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Unmarshal(tt.b)
			if !errors.Is(err, tt.want) {
				t.Fatalf("err = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestUnmarshalEveryTruncation(t *testing.T) {
	// Any strict prefix of a valid encoding must fail cleanly, never
	// panic or succeed.
	full := Marshal(Events{
		From:      3,
		Receivers: []NodeID{8},
		Events: []Event{{
			ID:       ID{1, 2},
			Topic:    topic.MustParse(".x.y"),
			Payload:  []byte{1, 2, 3},
			Validity: time.Minute,
		}},
	})
	for n := 0; n < len(full); n++ {
		if _, err := Unmarshal(full[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(full))
		}
	}
}

func TestMarshalUnsupportedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	type fake struct{ Heartbeat }
	Marshal(fake{}) // not one of the three concrete types
}

// TestAppendMarshalParity pins the pooled encoder against the legacy
// one: for every seed message, AppendMarshal(dst, m) must extend dst by
// exactly Marshal(m), preserve dst's existing bytes, and reuse dst's
// capacity when it suffices.
func TestAppendMarshalParity(t *testing.T) {
	for i, m := range fuzzSeedMessages() {
		legacy := Marshal(m)
		// Fresh buffer.
		if got := AppendMarshal(nil, m); !reflect.DeepEqual(got, legacy) {
			t.Fatalf("seed %d: AppendMarshal(nil) = %x, want %x", i, got, legacy)
		}
		// Non-empty prefix survives and the suffix matches.
		prefix := []byte{0xDE, 0xAD, byte(i)}
		got := AppendMarshal(append([]byte(nil), prefix...), m)
		if !reflect.DeepEqual(got[:len(prefix)], prefix) {
			t.Fatalf("seed %d: prefix clobbered: %x", i, got[:len(prefix)])
		}
		if !reflect.DeepEqual(got[len(prefix):], legacy) {
			t.Fatalf("seed %d: suffix = %x, want %x", i, got[len(prefix):], legacy)
		}
		// A warm buffer with enough capacity is reused, not reallocated.
		warm := make([]byte, 0, 2*len(legacy)+16)
		out := AppendMarshal(warm, m)
		if &out[0] != &warm[:1][0] {
			t.Fatalf("seed %d: AppendMarshal reallocated despite sufficient capacity", i)
		}
	}
}

// TestAppendMarshalZeroAlloc pins the pooled-codec contract directly:
// marshaling into a buffer that has reached its working size performs
// zero allocations.
func TestAppendMarshalZeroAlloc(t *testing.T) {
	msgs := fuzzSeedMessages()
	buf := make([]byte, 0, 16*1024)
	if n := testing.AllocsPerRun(100, func() {
		for _, m := range msgs {
			buf = AppendMarshal(buf[:0], m)
		}
	}); n != 0 {
		t.Fatalf("AppendMarshal into a warm buffer allocated %.1f times/op, want 0", n)
	}
}

// TestAppendEventParity pins the exported event-element encoder against
// the slice the full Events encoding embeds.
func TestAppendEventParity(t *testing.T) {
	ev := Event{
		ID:        ID{3, 4},
		Topic:     topic.MustParse(".p.q"),
		Publisher: 7,
		Payload:   []byte("x"),
		Validity:  time.Minute,
		Remaining: time.Second,
	}
	whole := Marshal(Events{From: 7, Events: []Event{ev}})
	elem := AppendEvent(nil, ev)
	// The element is the tail of the single-event message encoding.
	if tail := whole[len(whole)-len(elem):]; !reflect.DeepEqual(tail, elem) {
		t.Fatalf("AppendEvent = %x, want message tail %x", elem, tail)
	}
}

// Property: random messages round-trip exactly.
func TestRoundTripProperty(t *testing.T) {
	topics := []topic.Topic{
		topic.MustParse(".a"), topic.MustParse(".a.b"),
		topic.MustParse(".c.d.e"), topic.Root(),
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var m Message
		switch r.Intn(3) {
		case 0:
			h := Heartbeat{From: NodeID(r.Uint32()), Speed: float64(r.Intn(50))}
			for i := 0; i < r.Intn(4); i++ {
				h.Subscriptions = append(h.Subscriptions, topics[r.Intn(len(topics))])
			}
			m = h
		case 1:
			l := IDList{From: NodeID(r.Uint32())}
			for i := 0; i < r.Intn(10); i++ {
				l.IDs = append(l.IDs, NewID(r))
			}
			m = l
		default:
			e := Events{From: NodeID(r.Uint32())}
			for i := 0; i < r.Intn(4); i++ {
				e.Receivers = append(e.Receivers, NodeID(r.Uint32()))
			}
			for i := 0; i < r.Intn(3); i++ {
				p := make([]byte, r.Intn(64))
				r.Read(p)
				var pl []byte
				if len(p) > 0 {
					pl = p
				}
				e.Events = append(e.Events, Event{
					ID:        NewID(r),
					Topic:     topics[r.Intn(len(topics))],
					Publisher: NodeID(r.Uint32()),
					Payload:   pl,
					Validity:  time.Duration(r.Int63n(int64(time.Hour))),
					Remaining: time.Duration(r.Int63n(int64(time.Hour))),
				})
			}
			m = e
		}
		got, err := Unmarshal(Marshal(m))
		return err == nil && reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Unmarshal never panics and never silently succeeds on random
// garbage that does not start with a valid kind byte.
func TestUnmarshalRandomBytesRobust(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 5000; i++ {
		b := make([]byte, r.Intn(200))
		r.Read(b)
		msg, err := Unmarshal(b) // must not panic
		if err == nil && msg == nil {
			t.Fatal("nil message without error")
		}
	}
}

// Property: flipping any single byte of a valid encoding either fails or
// decodes to a well-formed message — never panics.
func TestUnmarshalBitFlipRobust(t *testing.T) {
	base := Marshal(Events{
		From:      3,
		Receivers: []NodeID{8, 9},
		Events: []Event{{
			ID:       ID{1, 2},
			Topic:    topic.MustParse(".x.y"),
			Payload:  []byte{1, 2, 3, 4},
			Validity: time.Minute,
		}},
	})
	for i := range base {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), base...)
			mut[i] ^= flip
			_, _ = Unmarshal(mut) // must not panic
		}
	}
}
