package transport

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/event"
	"repro/internal/obs"
)

// TestRegisterMetricsAndDropHook pins the scrape bridge: ring overflow
// shows up both through the drop hook (flight-recorder feed) and as
// repro_transport_send_drops_total in the exposition, and queue depths
// read the live ring occupancy.
func TestRegisterMetricsAndDropHook(t *testing.T) {
	var hooked atomic.Int64
	u, err := newUDP(UDPConfig{
		Listen:  "127.0.0.1:0",
		Handler: func(event.Message) {},
	}, 2, false) // no writer: queued messages stay put
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	defer u.Close()
	u.SetDropHook(func() { hooked.Add(1) })
	reg := obs.NewRegistry()
	u.RegisterMetrics(reg, "node", "7")

	hb := event.Heartbeat{From: 1}
	for i := 0; i < 3; i++ {
		u.Broadcast(hb)
	}
	if got := u.Stats().Dropped; got != 1 {
		t.Fatalf("Dropped = %d, want 1", got)
	}
	if got := hooked.Load(); got != 1 {
		t.Fatalf("drop hook ran %d times, want 1", got)
	}
	if s, r := u.QueueDepths(); s != 2 || r != 0 {
		t.Fatalf("QueueDepths = (%d, %d), want (2, 0)", s, r)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`repro_transport_send_drops_total{node="7"} 1`,
		`repro_transport_send_queue_depth{node="7"} 2`,
		`repro_transport_recv_drops_total{node="7"} 0`,
		`# TYPE repro_transport_handler_seconds summary`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}
