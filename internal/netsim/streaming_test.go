package netsim

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestStreamingDeliveryAllocFlat pins the megacity memory contract of
// the delivery hot path: folding a first delivery into its event's
// cell allocates nothing, at any roster size. Without DeliveryLog the
// per-delivery cost is a bitset write plus counter updates — no record
// append, no map growth — so result memory cannot scale with
// deliveries.
func TestStreamingDeliveryAllocFlat(t *testing.T) {
	for _, n := range []int{64, 8192} {
		subs := make([]int, n)
		for i := range subs {
			subs[i] = i
		}
		r := &runner{eng: sim.New(1), led: NewLedger(n, subs, false)}
		ev := event.Event{ID: event.NewID(rand.New(rand.NewSource(3)))}
		r.led.register(PublishedEvent{ID: ev.ID, Publisher: 0, Validity: 1e6 * time.Second})
		g, c := r.led.groups[ev.ID], &r.led.cells[0]
		hooks := make([]func(event.Event), n)
		for i := range hooks {
			hooks[i] = r.deliverHook(event.NodeID(i))
		}
		avg := testing.AllocsPerRun(10, func() {
			clear(g.bits)
			c.inTime = 0
			for _, h := range hooks {
				h(ev)
			}
		})
		if avg != 0 {
			t.Fatalf("n=%d: %v allocs per %d-delivery round, want 0", n, avg, n)
		}
		if c.inTime != int32(n-1) {
			t.Fatalf("n=%d: inTime = %d, want %d", n, c.inTime, n-1)
		}
	}
}

// TestStreamingOutcomesMatchRecords is the differential net for the
// streaming fold: with DeliveryLog on, recomputing every outcome the
// old way — replaying the full record list against each publication's
// deadline — must agree with the counters folded at delivery time.
// The churn-nodes workload makes this interesting: a crash-recovered
// publisher replays its reseeded RNG stream and re-issues an earlier
// event ID, so the aliased publications must score against the shared
// first-delivery set (the old delivery table did this implicitly).
func TestStreamingOutcomesMatchRecords(t *testing.T) {
	def, ok := LookupScenario("waypoint")
	if !ok {
		t.Fatal("waypoint not registered")
	}
	sc := def.Instantiate(1)
	sc.Schedule = nil
	sc.Workload = WorkloadSpec{
		Name: "mix",
		Params: workload.MixParams{Parts: []workload.Spec{
			{Name: "periodic"},
			{Name: "churn-nodes"},
		}},
	}
	sc.DeliveryLog = true
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}

	type key struct {
		ev event.ID
		n  event.NodeID
	}
	first := make(map[key]sim.Time)
	for _, d := range res.Deliveries {
		if _, ok := first[key{d.Event, d.Node}]; !ok {
			first[key{d.Event, d.Node}] = d.At
		}
	}
	subscribed := make(map[event.NodeID]bool)
	for _, nr := range res.Nodes {
		subscribed[nr.ID] = nr.Subscribed
	}
	ids := make(map[event.ID]bool)
	for i, pe := range res.Published {
		ids[pe.ID] = true
		deadline := pe.At.Add(pe.Validity)
		elig, inTime := 0, 0
		for _, nr := range res.Nodes {
			if !subscribed[nr.ID] || nr.ID == pe.Publisher {
				continue
			}
			elig++
			if at, ok := first[key{pe.ID, nr.ID}]; ok && at <= deadline {
				inTime++
			}
		}
		o := res.Outcomes[i]
		if o.Eligible != elig || o.DeliveredInTime != inTime {
			t.Errorf("event %d (%v at %v): streamed %d/%d, records say %d/%d",
				i, pe.ID, pe.At, o.DeliveredInTime, o.Eligible, inTime, elig)
		}
	}
	// The run must actually contain an aliased ID, or the hard case
	// above was never exercised (a scheduling change upstream would
	// silently drain this test of its point).
	if len(ids) == len(res.Published) {
		t.Fatal("no aliased event ID in this run; pick a seed whose churn replays one")
	}
	// The streaming latency histogram folded something sensible (exact
	// agreement with the delivery records is pinned by
	// TestDeliveryLatencies on an alias-free run).
	if res.Latency.N() == 0 {
		t.Fatal("empty latency histogram on a delivering run")
	}
	if time.Duration(res.Latency.Max()*float64(time.Second)) > sc.Warmup+sc.Measure {
		t.Fatalf("latency max %vs exceeds the simulated time", res.Latency.Max())
	}
}

// TestFingerprintPinsResult pins Result.Fingerprint's contract: equal
// across replays of the same (Scenario, Seed), different across seeds.
func TestFingerprintPinsResult(t *testing.T) {
	run := func(seed int64) string {
		res, err := Run(denseStatic(seed))
		if err != nil {
			t.Fatal(err)
		}
		return res.Fingerprint()
	}
	a, b, c := run(1), run(1), run(2)
	if a != b {
		t.Fatalf("fingerprint not deterministic: %s vs %s", a, b)
	}
	if a == c {
		t.Fatalf("fingerprint blind to the seed: %s", a)
	}
	if len(a) != 64 {
		t.Fatalf("fingerprint %q is not a sha-256 hex digest", a)
	}
}
