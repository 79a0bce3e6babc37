package event

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/topic"
)

// fuzzSeedMessages returns one well-formed message per wire kind plus
// edge shapes (empty lists, zero ids, payloadless and payload-heavy
// events); their encodings seed the fuzz corpus alongside the raw
// seeds checked in under testdata/fuzz.
func fuzzSeedMessages() []Message {
	rng := rand.New(rand.NewSource(42))
	return []Message{
		Heartbeat{From: 0},
		Heartbeat{From: 7, Speed: 13.25, Subscriptions: []topic.Topic{
			topic.MustParse(".a"),
			topic.MustParse(".grenoble.conferences.middleware"),
		}},
		IDList{From: 1},
		IDList{From: 3, IDs: []ID{{Hi: 1, Lo: 2}, {}, NewID(rng)}},
		Events{From: 2},
		Events{
			From:      9,
			Receivers: []NodeID{1, 2, 5},
			Events: []Event{{
				ID:        NewID(rng),
				Topic:     topic.MustParse(".app.news.sport"),
				Publisher: 9,
				Payload:   bytes.Repeat([]byte{0xAB}, 400),
				Validity:  time.Minute,
				Remaining: 30 * time.Second,
			}, {
				ID:    NewID(rng),
				Topic: topic.Root(),
			}},
		},
	}
}

// FuzzMessageRoundTrip pins the wire format against the decoder: any
// input that Unmarshal accepts must survive a Marshal/Unmarshal round
// trip unchanged, re-encoding must be a fixed point, and the same input
// with one more byte appended must be rejected (a buffer holds exactly
// one message) — while arbitrary junk must fail cleanly (error, never a
// panic or a hang).
func FuzzMessageRoundTrip(f *testing.F) {
	for _, m := range fuzzSeedMessages() {
		f.Add(Marshal(m))
	}
	// Truncations and corruptions of a valid encoding probe the error
	// paths the happy-path tests never reach.
	wire := Marshal(fuzzSeedMessages()[5])
	for cut := 0; cut < len(wire); cut += 7 {
		f.Add(wire[:cut])
	}
	f.Add([]byte{0xFF})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return // rejected input: only the absence of a panic matters
		}
		if _, err := Unmarshal(append(data[:len(data):len(data)], 0)); !errors.Is(err, ErrTrailing) {
			t.Fatalf("%T with one trailing byte: err = %v, want ErrTrailing", m, err)
		}
		enc := Marshal(m)
		m2, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("re-decode of freshly encoded %T failed: %v", m, err)
		}
		if !sameMessage(m, m2) {
			t.Fatalf("round trip changed the message:\n before %#v\n after  %#v", m, m2)
		}
		if enc2 := Marshal(m2); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point:\n first  %x\n second %x", enc, enc2)
		}
	})
}

// sameMessage is reflect.DeepEqual, except that a Heartbeat's Speed
// compares by bit pattern: DeepEqual never equates a NaN with itself,
// and the bits also tell a changed NaN payload, or -0 from +0, apart.
func sameMessage(a, b Message) bool {
	ha, okA := a.(Heartbeat)
	hb, okB := b.(Heartbeat)
	if !okA || !okB {
		return reflect.DeepEqual(a, b)
	}
	if math.Float64bits(ha.Speed) != math.Float64bits(hb.Speed) {
		return false
	}
	ha.Speed, hb.Speed = 0, 0
	return reflect.DeepEqual(ha, hb)
}

// FuzzAppendMarshalParity differential-tests the pooled append-style
// encoder against the legacy allocating one: for any decodable input,
// AppendMarshal must produce wire bytes identical to Marshal — from a
// nil buffer, appended after an arbitrary prefix, and into a reused
// buffer — so the transport's pooled fast path can never diverge from
// the canonical encoding.
func FuzzAppendMarshalParity(f *testing.F) {
	for _, m := range fuzzSeedMessages() {
		f.Add(Marshal(m), []byte(nil))
	}
	f.Add(Marshal(fuzzSeedMessages()[1]), []byte{0x00})
	f.Add(Marshal(fuzzSeedMessages()[5]), bytes.Repeat([]byte{0x5A}, 64))
	f.Fuzz(func(t *testing.T, data, prefix []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return // not a message: nothing to encode
		}
		legacy := Marshal(m)
		if got := AppendMarshal(nil, m); !bytes.Equal(got, legacy) {
			t.Fatalf("AppendMarshal(nil) diverged:\n pooled %x\n legacy %x", got, legacy)
		}
		got := AppendMarshal(append([]byte(nil), prefix...), m)
		if !bytes.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("AppendMarshal clobbered its prefix: %x", got[:len(prefix)])
		}
		if !bytes.Equal(got[len(prefix):], legacy) {
			t.Fatalf("AppendMarshal after prefix diverged:\n pooled %x\n legacy %x", got[len(prefix):], legacy)
		}
		// Reuse: a second marshal into the same truncated buffer must be
		// byte-identical too (the send ring's steady state).
		if again := AppendMarshal(got[:0], m); !bytes.Equal(again, legacy) {
			t.Fatalf("AppendMarshal into a reused buffer diverged:\n pooled %x\n legacy %x", again, legacy)
		}
	})
}

// FuzzEventRoundTrip drives the nested event codec directly with
// arbitrary field values, including hostile payload sizes.
func FuzzEventRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(2), ".a.b", uint32(3), int64(time.Minute), int64(time.Second), []byte("payload"))
	f.Add(uint64(0), uint64(0), ".", uint32(0), int64(0), int64(0), []byte{})
	f.Fuzz(func(t *testing.T, hi, lo uint64, tp string, pub uint32, validity, remaining int64, payload []byte) {
		parsed, err := topic.Parse(tp)
		if err != nil {
			return
		}
		in := Events{From: NodeID(pub), Events: []Event{{
			ID:        ID{Hi: hi, Lo: lo},
			Topic:     parsed,
			Publisher: NodeID(pub),
			Validity:  time.Duration(validity),
			Remaining: time.Duration(remaining),
			Payload:   payload,
		}}}
		if len(payload) == 0 {
			in.Events[0].Payload = nil // decoder normalizes empty to nil
		}
		out, err := Unmarshal(Marshal(in))
		if err != nil {
			t.Fatalf("decode of valid event failed: %v", err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("event round trip changed:\n before %#v\n after  %#v", in, out)
		}
	})
}
