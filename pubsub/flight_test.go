package pubsub

import (
	"fmt"
	"strings"
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
	// The newest timeline line, above the ring's "(N older records
	// dropped)" note, is the send record: "<at> <node> send <kind> <n>B".
	var text strings.Builder
	if err := n.flight.Load().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(text.String(), "\n"), "\n")
	fields := strings.Fields(lines[len(lines)-2])
	if got, want := fields[len(fields)-1], fmt.Sprintf("%dB", len(event.Marshal(m))); got != want {
		t.Fatalf("send record says %s, the wire format has %s", got, want)
	}
}
