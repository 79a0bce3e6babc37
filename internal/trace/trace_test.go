package trace

import (
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/sim"
)

func rec(at float64, node event.NodeID, op Op) Record {
	return Record{At: sim.Seconds(at), Node: node, Op: op, Msg: event.KindHeartbeat}
}

func TestOpString(t *testing.T) {
	tests := []struct {
		op   Op
		want string
	}{
		{OpSend, "send"},
		{OpReceive, "recv"},
		{OpDeliver, "deliver"},
		{OpPublish, "publish"},
		{Op(42), "op(42)"},
	}
	for _, tt := range tests {
		if got := tt.op.String(); got != tt.want {
			t.Errorf("Op(%d) = %q, want %q", tt.op, got, tt.want)
		}
	}
}

func TestUnboundedTrace(t *testing.T) {
	var tr Trace // zero value: unbounded
	for i := 0; i < 100; i++ {
		tr.Add(rec(float64(i), 1, OpSend))
	}
	if tr.Len() != 100 || tr.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
}

func TestRingEviction(t *testing.T) {
	tr := New(3)
	for i := 0; i < 5; i++ {
		tr.Add(rec(float64(i), event.NodeID(i), OpSend))
	}
	if tr.Len() != 3 {
		t.Fatalf("len = %d, want 3", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
	rs := tr.Records()
	if rs[0].Node != 2 || rs[2].Node != 4 {
		t.Fatalf("wrong survivors: %v..%v", rs[0].Node, rs[2].Node)
	}
}

func TestWriteText(t *testing.T) {
	tr := New(2)
	tr.Add(Record{At: sim.Seconds(1.5), Node: 3, Op: OpSend, Msg: event.KindIDList, Bytes: 24})
	tr.Add(Record{At: sim.Seconds(2), Node: 4, Op: OpDeliver, Event: event.ID{Hi: 0xabcd}})
	tr.Add(Record{At: sim.Seconds(3), Node: 4, Op: OpReceive, Msg: event.KindEvents})
	var b strings.Builder
	if err := tr.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "deliver") || !strings.Contains(out, "recv") {
		t.Fatalf("missing ops:\n%s", out)
	}
	if !strings.Contains(out, "older records dropped") {
		t.Fatalf("missing drop note:\n%s", out)
	}
	if strings.Contains(out, "send") {
		t.Fatal("evicted record still rendered")
	}
}
