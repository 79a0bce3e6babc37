package netsim

import (
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/sim"
)

// TestLedgerScoring pins the ledger's rules on scripted sequences of
// one event ID: each step either registers a publication (validity
// 10 s) or delivers at a node. want lists each publication's in-time
// deliveries and eligibility; lat is the latency sample count.
func TestLedgerScoring(t *testing.T) {
	type step struct {
		pub   bool // register a publication by node instead of delivering
		node  event.NodeID
		at    float64 // seconds
		first bool    // Deliver's verdict
	}
	type score struct{ inTime, eligible int }
	all := []int{0, 1, 2, 3}
	cases := []struct {
		name  string
		subs  []int
		steps []step
		want  []score
		lat   int
	}{
		{
			// The sockets produce this order: Publish puts the event on
			// the wire before it returns the ID.
			name: "a delivery that beats registration counts once",
			subs: all,
			steps: []step{
				{node: 2, at: 1, first: true},
				{node: 2, at: 1},
				{pub: true, node: 1},
				{node: 3, at: 2, first: true},
			},
			want: []score{{2, 3}},
			lat:  2,
		},
		{
			name: "a re-delivery by a recovered node counts once",
			subs: all,
			steps: []step{
				{pub: true, node: 0},
				{node: 2, at: 1, first: true},
				{node: 2, at: 5},
			},
			want: []score{{1, 3}},
			lat:  1,
		},
		{
			// Node 2 re-issues node 1's ID: the second cell starts from
			// every delivery so far except its own publisher's.
			name: "an aliased re-publication scores both cells against the union",
			subs: all,
			steps: []step{
				{pub: true, node: 1},
				{node: 1, first: true},
				{node: 2, at: 1, first: true},
				{pub: true, node: 2, at: 3},
				{node: 3, at: 4, first: true},
				{node: 0, at: 12, first: true}, // in time for the second only
			},
			want: []score{{2, 3}, {3, 3}},
			lat:  3,
		},
		{
			name: "a delivery after the deadline is not in time",
			subs: all,
			steps: []step{
				{pub: true, node: 0},
				{node: 1, at: 10, first: true},
				{node: 2, at: 10.5, first: true},
			},
			want: []score{{1, 3}},
			lat:  1,
		},
		{
			// With every node subscribed, the latency samples are exactly
			// the in-time first deliveries by nodes other than the
			// publisher; a non-subscriber is never eligible.
			name: "latency counts the in-time non-publisher deliveries",
			subs: []int{0, 1, 2},
			steps: []step{
				{pub: true, node: 3},
				{node: 3, first: true},
				{node: 0, at: 1, first: true},
				{node: 1, at: 2, first: true},
				{node: 2, at: 11, first: true},
			},
			want: []score{{2, 3}},
			lat:  2,
		},
	}
	id := event.ID{Lo: 7}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLedger(4, tc.subs, false)
			for i, s := range tc.steps {
				at := sim.Seconds(s.at)
				if s.pub {
					l.register(PublishedEvent{ID: id, Publisher: s.node, At: at, Validity: 10 * time.Second})
				} else if got := l.Deliver(id, s.node, at); got != s.first {
					t.Fatalf("step %d: Deliver = %v, want %v", i, got, s.first)
				}
			}
			out := l.Outcomes()
			if len(out) != len(tc.want) {
				t.Fatalf("%d outcomes, want %d", len(out), len(tc.want))
			}
			sumIn, sumElig := 0, 0
			for i, o := range out {
				if (score{o.DeliveredInTime, o.Eligible}) != tc.want[i] {
					t.Errorf("publication %d: %d/%d, want %d/%d", i, o.DeliveredInTime, o.Eligible, tc.want[i].inTime, tc.want[i].eligible)
				}
				sumIn += o.DeliveredInTime
				sumElig += o.Eligible
			}
			if pubs, in, elig := l.Totals(); pubs != len(out) || in != sumIn || elig != sumElig {
				t.Errorf("Totals = %d, %d, %d; outcomes sum to %d, %d, %d", pubs, in, elig, len(out), sumIn, sumElig)
			}
			if lat := l.Latency(); lat.N() != tc.lat {
				t.Errorf("%d latency samples, want %d", lat.N(), tc.lat)
			}
			if len(l.pending) != 0 {
				t.Errorf("pending not drained: %v", l.pending)
			}
		})
	}
}
