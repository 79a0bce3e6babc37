package pubsub_test

import (
	"strings"
	"testing"
	"time"

	"repro/pubsub"
)

// TestNodeMetricsAndFlight runs a two-node UDP mesh with metrics and
// flight recorders armed: the registry must expose the protocol and
// transport series for both nodes in valid Prometheus text, and the
// publisher's flight recorder must hold publish/send records while the
// subscriber's holds receive/deliver records.
func TestNodeMetricsAndFlight(t *testing.T) {
	topic := pubsub.MustParseTopic(".obs")
	got := make(chan pubsub.Event, 4)
	mk := func(id pubsub.NodeID, deliver func(pubsub.Event)) *pubsub.Node {
		n, err := pubsub.NewUDPNode(pubsub.Config{
			ID:           id,
			HBDelay:      50 * time.Millisecond,
			HBUpperBound: 50 * time.Millisecond,
			OnDeliver:    deliver,
		}, "127.0.0.1:0", nil)
		if err != nil {
			t.Skipf("UDP unavailable: %v", err)
		}
		t.Cleanup(func() { n.Close() })
		n.StartFlightRecorder(128)
		return n
	}
	a := mk(1, nil)
	b := mk(2, func(ev pubsub.Event) { got <- ev })
	reg := pubsub.NewMetricsRegistry()
	a.RegisterMetrics(reg)
	b.RegisterMetrics(reg)

	for _, x := range []*pubsub.Node{a, b} {
		for _, y := range []*pubsub.Node{a, b} {
			if err := x.AddPeer(y.LocalAddr()); err != nil {
				t.Fatal(err)
			}
		}
		if err := x.Subscribe(topic); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(a.Neighbors()) == 1 && len(b.Neighbors()) == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := a.Publish(topic, []byte("observed"), time.Minute); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("delivery timed out")
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`repro_pubsub_published_total{node="1"} 1`,
		`repro_pubsub_delivered_total{node="2"} 1`,
		`repro_transport_datagrams_sent_total{node="1"}`,
		`repro_transport_handler_seconds_count{node="2"}`,
		`repro_pubsub_neighbors{node="1"} 1`,
		`# TYPE repro_transport_send_queue_depth gauge`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The twelve protocol counters are a published vocabulary: the CI
	// smoke and dashboards read them by name.
	for _, name := range []string{
		"heartbeats_sent", "idlists_sent", "event_msgs_sent", "events_sent",
		"events_received", "delivered", "duplicates", "parasites",
		"expired_drops", "published", "table_evictions", "neighbors_gced",
	} {
		if want := "# TYPE repro_pubsub_" + name + "_total counter"; !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if got := strings.Count(out, "# TYPE repro_pubsub_"); got != 14 {
		t.Errorf("%d repro_pubsub_ series, want the 12 counters, neighbors and flight_records_total", got)
	}

	// Flight recorders: publisher saw the publish and at least one send;
	// subscriber saw a receive and the delivery.
	var fa, fb strings.Builder
	if err := a.WriteFlight(&fa); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteFlight(&fb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"publish", "send"} {
		if !strings.Contains(fa.String(), want) {
			t.Errorf("publisher flight missing %q:\n%s", want, fa.String())
		}
	}
	for _, want := range []string{"recv", "deliver"} {
		if !strings.Contains(fb.String(), want) {
			t.Errorf("subscriber flight missing %q:\n%s", want, fb.String())
		}
	}
}

// TestWriteFlightUnarmed pins the error contract: dumping before
// StartFlightRecorder fails instead of rendering an empty timeline.
func TestWriteFlightUnarmed(t *testing.T) {
	n, err := pubsub.NewNode(pubsub.Config{ID: 9}, nopTransport{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.WriteFlight(&strings.Builder{}); err == nil {
		t.Fatal("WriteFlight without a recorder must error")
	}
}

type nopTransport struct{}

func (nopTransport) Broadcast(pubsub.Message) {}
