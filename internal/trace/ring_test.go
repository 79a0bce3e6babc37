package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/event"
	"repro/internal/sim"
)

// records returns the retained records, oldest first.
func records(r *Ring) []Record {
	recs, _ := r.snapshot()
	return recs
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
		{OpDrop, "drop"},
		{Op(42), "op(42)"},
	}
	for _, tt := range tests {
		if got := tt.op.String(); got != tt.want {
			t.Errorf("Op(%d) = %q, want %q", tt.op, got, tt.want)
		}
	}
}

// TestRingEviction pins the counts: a ring retains at most capacity
// records, and Total minus the retained count is what it overwrote.
func TestRingEviction(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Add(Record{At: sim.Time(i), Node: event.NodeID(i), Op: OpSend, Msg: event.KindHeartbeat})
		if got, want := len(records(r)), min(i+1, 3); got != want {
			t.Fatalf("after %d adds: retained %d, want %d", i+1, got, want)
		}
	}
	rs := records(r)
	if dropped := r.Total() - uint64(len(rs)); dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	if rs[0].Node != 2 || rs[2].Node != 4 {
		t.Fatalf("wrong survivors: %v..%v", rs[0].Node, rs[2].Node)
	}
}

// TestRingWrap pins eviction order: a full ring keeps the newest
// capacity records, oldest first, and counts every record ever added.
func TestRingWrap(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Add(Record{At: sim.Time(i), Node: event.NodeID(i), Op: OpPublish})
	}
	recs := records(r)
	if len(recs) != 3 {
		t.Fatalf("len = %d, want 3", len(recs))
	}
	for i, want := range []event.NodeID{2, 3, 4} {
		if recs[i].Node != want || recs[i].At != sim.Time(want) {
			t.Fatalf("recs[%d] = node %v at %v, want node %v", i, recs[i].Node, recs[i].At, want)
		}
	}
	if r.Total() != 5 {
		t.Fatalf("Total = %d, want 5", r.Total())
	}
}

// TestWriteText pins what a dump leaves out: an overwritten record is
// not rendered, and the dropped note says records were lost.
func TestWriteText(t *testing.T) {
	r := NewRing(2)
	r.Add(Record{At: sim.Seconds(1.5), Node: 3, Op: OpSend, Msg: event.KindIDList, Bytes: 24})
	r.Add(Record{At: sim.Seconds(2), Node: 4, Op: OpDeliver, Event: event.ID{Hi: 0xabcd}})
	r.Add(Record{At: sim.Seconds(3), Node: 4, Op: OpReceive, Msg: event.KindEvents})
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "deliver") || !strings.Contains(out, "recv") {
		t.Fatalf("missing ops:\n%s", out)
	}
	if !strings.Contains(out, "(1 older records dropped)") {
		t.Fatalf("missing drop note:\n%s", out)
	}
	if strings.Contains(out, "send") {
		t.Fatal("evicted record still rendered")
	}
}

// TestRingWriteText pins the dump format: the surviving records oldest
// first, one per line in each op's layout, then the dropped-records note.
func TestRingWriteText(t *testing.T) {
	r := NewRing(3)
	r.Add(Record{At: sim.Seconds(1), Node: 2, Op: OpPublish, Event: event.ID{Hi: 0x1234}})
	r.Add(Record{At: sim.Seconds(1.5), Node: 3, Op: OpSend, Msg: event.KindIDList, Bytes: 24})
	r.Add(Record{At: sim.Seconds(2), Node: 4, Op: OpDeliver, Event: event.ID{Hi: 0xabcd}})
	r.Add(Record{At: sim.Seconds(3), Node: 4, Op: OpReceive, Msg: event.KindEvents})
	r.Add(Record{At: sim.Seconds(4), Node: 5, Op: OpDrop, Msg: event.KindEvents})
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("dump has %d lines, want 3 records and the note:\n%s", len(lines), b.String())
	}
	for i, want := range []string{"deliver event", "recv", "drop", "(2 older records dropped)"} {
		if !strings.Contains(lines[i], want) {
			t.Fatalf("line %d = %q, want it to contain %q", i, lines[i], want)
		}
	}
	if strings.Contains(b.String(), "publish") || strings.Contains(b.String(), "send") {
		t.Fatalf("evicted record still rendered:\n%s", b.String())
	}
}

// TestRingConcurrent exercises Add/Records under the race detector.
func TestRingConcurrent(t *testing.T) {
	r := NewRing(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Add(Record{Op: OpReceive})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = records(r)
		}
	}()
	wg.Wait()
	if r.Total() != 2000 {
		t.Fatalf("Total = %d, want 2000", r.Total())
	}
	if got := len(records(r)); got != 64 {
		t.Fatalf("retained %d, want 64", got)
	}
}

// TestRingWriteTextUnderAdd dumps a ring while a writer keeps adding
// numbered records. Each dump must be one consistent snapshot: the
// records it prints plus the dropped count it reports add up to the
// number of the newest record printed, never more.
func TestRingWriteTextUnderAdd(t *testing.T) {
	const capacity, adds = 8, 20000
	r := NewRing(capacity)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= adds; i++ {
			r.Add(Record{Op: OpSend, Msg: event.KindHeartbeat, Bytes: i})
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
		if lines[0] == "" {
			continue // nothing added yet
		}
		var dropped, newest int
		recs := lines
		if last := lines[len(lines)-1]; strings.HasPrefix(last, "(") {
			if _, err := fmt.Sscanf(last, "(%d older records dropped)", &dropped); err != nil {
				t.Fatalf("bad note %q: %v", last, err)
			}
			recs = lines[:len(lines)-1]
		}
		if len(recs) == 0 {
			t.Fatalf("dump reports %d dropped but prints no records", dropped)
		}
		f := strings.Fields(recs[len(recs)-1])
		if _, err := fmt.Sscanf(f[len(f)-1], "%dB", &newest); err != nil {
			t.Fatalf("bad record %q: %v", recs[len(recs)-1], err)
		}
		if dropped+len(recs) != newest {
			t.Fatalf("dump shows %d records up to #%d but reports %d dropped", len(recs), newest, dropped)
		}
	}
}
