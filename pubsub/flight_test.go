package pubsub

import (
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/topic"
)

type nullTransport struct{}

func (nullTransport) Broadcast(Message) {}

// TestArmedBroadcastAllocs pins the armed flight recorder's send record
// at zero allocations once warm: the size it records comes from
// marshalling into the node's reused buffer, and it is the wire size.
func TestArmedBroadcastAllocs(t *testing.T) {
	n, err := NewNode(Config{ID: 1}, nullTransport{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.StartFlightRecorder(64)
	tp := topic.MustParse(".t")
	var m Message = event.Events{From: 1, Receivers: []NodeID{2, 3}, Events: []Event{{
		ID: EventID{Lo: 7}, Topic: tp, Publisher: 1, Payload: make([]byte, 1200), Validity: time.Hour, Remaining: time.Hour,
	}}}
	f := flightTransport{n: n, tr: nullTransport{}}
	broadcast := func() { n.do(func() { f.Broadcast(m) }) }
	broadcast()
	if allocs := testing.AllocsPerRun(100, broadcast); allocs != 0 {
		t.Errorf("armed Broadcast allocates %.0f times, want 0", allocs)
	}
	recs := n.flight.Load().Records()
	if got, want := recs[len(recs)-1].Bytes, len(event.Marshal(m)); got != want {
		t.Fatalf("send record says %d bytes, the wire format has %d", got, want)
	}
}
