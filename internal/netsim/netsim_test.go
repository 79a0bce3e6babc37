package netsim

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/mac"
	"repro/internal/sim"
	"repro/internal/topic"
	"repro/internal/trace"
	"repro/internal/workload"
)

// publish is a Schedule op: node (-1 for a random subscriber)
// publishes one event on the scenario's event topic at at.
func publish(at time.Duration, node int, validity time.Duration) workload.Op {
	return workload.Op{At: at, Kind: workload.Publish, Node: node, Validity: validity}
}

// denseStatic returns a scenario where all nodes sit within one radio
// range: a single publication must reach everyone quickly.
func denseStatic(seed int64) Scenario {
	return Scenario{
		Name:  "dense-static",
		Nodes: 10,
		Seed:  seed,
		Mobility: MobilitySpec{
			Kind: StaticNodes,
			Area: geo.NewRect(200, 200),
		},
		MAC:                mac.DefaultConfig(340),
		Protocol:           FrugalSpec(CoreTuning{HBDelay: time.Second, HBUpperBound: time.Second}),
		SubscriberFraction: 1.0,
		Schedule:           []workload.Op{publish(2*time.Second, -1, 60*time.Second)},
		Warmup:             0,
		Measure:            90 * time.Second,
	}
}

func TestValidate(t *testing.T) {
	crash := func(at time.Duration, node int) workload.Op {
		return workload.Op{At: at, Kind: workload.Crash, Node: node}
	}
	recov := func(at time.Duration, node int) workload.Op {
		return workload.Op{At: at, Kind: workload.Recover, Node: node}
	}
	resub := func(at time.Duration, kind workload.Kind, node int, tp topic.Topic) workload.Op {
		return workload.Op{At: at, Kind: kind, Node: node, Topic: tp}
	}
	tests := []struct {
		name string
		mut  func(*Scenario)
		ok   bool
	}{
		{"valid", func(*Scenario) {}, true},
		{"no nodes", func(s *Scenario) { s.Nodes = 0 }, false},
		{"bad fraction", func(s *Scenario) { s.SubscriberFraction = 1.5 }, false},
		{"no measure", func(s *Scenario) { s.Measure = 0 }, false},
		{"negative warmup", func(s *Scenario) { s.Warmup = -time.Second }, false},
		{"bad mac", func(s *Scenario) { s.MAC.Range = 0 }, false},
		{"empty area", func(s *Scenario) { s.Mobility.Area = geo.Rect{} }, false},
		{"pub no validity", func(s *Scenario) {
			s.Schedule = append(s.Schedule, publish(2*time.Second, 0, 0))
		}, false},
		{"pub publisher range", func(s *Scenario) { s.Schedule = []workload.Op{publish(0, 99, time.Second)} }, false},
		{"pub random publisher", func(s *Scenario) { s.Schedule = []workload.Op{publish(0, -1, time.Second)} }, true},
		{"pub publisher below -1", func(s *Scenario) { s.Schedule = []workload.Op{publish(0, -2, time.Second)} }, false},
		{"pub before warmup", func(s *Scenario) {
			s.Warmup, s.Schedule = 10*time.Second, []workload.Op{publish(10*time.Second-1, 0, time.Second)}
		}, false},
		{"pub at warmup", func(s *Scenario) {
			s.Warmup, s.Schedule = 10*time.Second, []workload.Op{publish(10*time.Second, 0, time.Second)}
		}, true},
		{"unsorted at", func(s *Scenario) {
			s.Schedule = []workload.Op{publish(2*time.Second, 0, time.Second), publish(time.Second, 1, time.Second)}
		}, false},
		{"same-instant ops", func(s *Scenario) {
			s.Schedule = []workload.Op{publish(time.Second, 0, time.Second), crash(time.Second, 0), recov(time.Second, 0)}
		}, true},
		{"crash node range", func(s *Scenario) { s.Schedule = []workload.Op{crash(time.Second, 99)} }, false},
		{"crash node below 0", func(s *Scenario) { s.Schedule = []workload.Op{crash(time.Second, -1)} }, false},
		{"crash before recover", func(s *Scenario) {
			s.Schedule = []workload.Op{recov(time.Second, 0), crash(10*time.Second, 0)}
		}, false},
		{"recover without crash", func(s *Scenario) { s.Schedule = []workload.Op{recov(time.Second, 0)} }, false},
		{"recover after another node's crash", func(s *Scenario) {
			s.Schedule = []workload.Op{crash(time.Second, 1), recov(2*time.Second, 0)}
		}, false},
		{"crash negative at", func(s *Scenario) { s.Schedule = []workload.Op{crash(-time.Second, 0)} }, false},
		{"crash negative recover", func(s *Scenario) {
			s.Schedule = []workload.Op{crash(-2*time.Second, 0), recov(-time.Second, 0)}
		}, false},
		{"resub negative at", func(s *Scenario) {
			s.Schedule = []workload.Op{resub(-time.Second, workload.Subscribe, 0, s.EventTopic)}
		}, false},
		{"resub valid", func(s *Scenario) {
			s.Schedule = []workload.Op{resub(time.Second, workload.Subscribe, 0, s.EventTopic)}
		}, true},
		{"resub node range", func(s *Scenario) {
			s.Schedule = []workload.Op{resub(time.Second, workload.Subscribe, 99, s.EventTopic)}
		}, false},
		{"subscribe zero topic", func(s *Scenario) {
			s.Schedule = []workload.Op{resub(time.Second, workload.Subscribe, 0, topic.Topic{})}
		}, false},
		{"unsubscribe zero topic", func(s *Scenario) {
			s.Schedule = []workload.Op{resub(time.Second, workload.Unsubscribe, 0, topic.Topic{})}
		}, false},
		{"unknown kind", func(s *Scenario) { s.Schedule = []workload.Op{{At: time.Second, Kind: 99}} }, false},
		// The run ends at Warmup+Measure = 100 s and executes ops at
		// exactly that instant (TestCensored runs one); an op a
		// nanosecond later would be dropped, so Validate rejects it.
		{"pub at end", func(s *Scenario) {
			s.Warmup, s.Schedule = 10*time.Second, []workload.Op{publish(100*time.Second, -1, time.Second)}
		}, true},
		{"pub past end", func(s *Scenario) {
			s.Warmup, s.Schedule = 10*time.Second, []workload.Op{publish(100*time.Second+1, -1, time.Second)}
		}, false},
		{"crash at end", func(s *Scenario) {
			s.Warmup, s.Schedule = 10*time.Second, []workload.Op{crash(100*time.Second, 0)}
		}, true},
		{"crash past end", func(s *Scenario) {
			s.Warmup, s.Schedule = 10*time.Second, []workload.Op{crash(100*time.Second+1, 0)}
		}, false},
		{"recover at end", func(s *Scenario) {
			s.Warmup, s.Schedule = 10*time.Second, []workload.Op{crash(time.Second, 0), recov(100*time.Second, 0)}
		}, true},
		{"recover past end", func(s *Scenario) {
			s.Warmup, s.Schedule = 10*time.Second, []workload.Op{crash(time.Second, 0), recov(100*time.Second+1, 0)}
		}, false},
		{"resub at end", func(s *Scenario) {
			s.Warmup, s.Schedule = 10*time.Second, []workload.Op{resub(100*time.Second, workload.Subscribe, 0, s.EventTopic)}
		}, true},
		{"resub past end", func(s *Scenario) {
			s.Warmup, s.Schedule = 10*time.Second, []workload.Op{resub(100*time.Second+1, workload.Unsubscribe, 0, s.EventTopic)}
		}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sc := denseStatic(1).withDefaults()
			tt.mut(&sc)
			if err := sc.Validate(); (err == nil) != tt.ok {
				t.Fatalf("Validate = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

// TestCensored: an event whose validity ends exactly at the run's end
// is scored in full; one published at the end itself (the engine runs
// ops at its limit) is censored. The flag is derived from the scenario,
// so Fingerprint ignores it.
func TestCensored(t *testing.T) {
	sc := denseStatic(1)
	sc.Schedule = []workload.Op{
		publish(sc.Warmup, 0, sc.Measure),
		publish(sc.Warmup+sc.Measure, 1, time.Second),
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 2 || res.Outcomes[1].At != sim.At(sc.Measure) {
		t.Fatalf("outcomes = %+v, want the second published at %v", res.Outcomes, sc.Measure)
	}
	if got := []bool{res.Outcomes[0].Censored, res.Outcomes[1].Censored}; !reflect.DeepEqual(got, []bool{false, true}) {
		t.Fatalf("Censored = %v, want [false true]", got)
	}
	fp := res.Fingerprint()
	res.Outcomes[0].Censored, res.Outcomes[1].Censored = true, false
	if res.Fingerprint() != fp {
		t.Fatal("Fingerprint depends on Censored")
	}
}

func TestDenseStaticFullReliability(t *testing.T) {
	res, err := Run(denseStatic(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 1 {
		t.Fatalf("outcomes = %d", len(res.Outcomes))
	}
	o := res.Outcomes[0]
	if o.Eligible != 9 {
		t.Fatalf("eligible = %d, want 9", o.Eligible)
	}
	if got := res.Reliability(); got != 1.0 {
		t.Fatalf("reliability = %v, want 1.0 (dense static network)", got)
	}
}

func TestDeliverOnceInvariant(t *testing.T) {
	res, err := Run(denseStatic(2))
	if err != nil {
		t.Fatal(err)
	}
	// One event, everyone subscribed: each non-publisher delivers at most
	// once, and the publisher self-delivers exactly once.
	for _, n := range res.Nodes {
		if n.Proto.Delivered > 1 {
			t.Fatalf("node %v delivered %d times", n.ID, n.Proto.Delivered)
		}
	}
	if res.DeliveredTotal() != 10 {
		t.Fatalf("total deliveries = %d, want 10", res.DeliveredTotal())
	}
}

func TestNoParasitesWhenAllSubscribed(t *testing.T) {
	res, err := Run(denseStatic(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res.Nodes {
		if n.Proto.Parasites != 0 {
			t.Fatalf("node %v counted parasites with 100%% interest", n.ID)
		}
	}
}

func TestParasitesAppearWithPartialInterest(t *testing.T) {
	sc := denseStatic(4)
	sc.SubscriberFraction = 0.5
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	var parasites uint64
	for _, n := range res.Nodes {
		if !n.Subscribed {
			parasites += n.Proto.Parasites
			if n.Proto.Delivered != 0 {
				t.Fatalf("non-subscriber %v delivered events", n.ID)
			}
		}
	}
	if parasites == 0 {
		t.Fatal("expected overheard parasite events at non-subscribers")
	}
}

func TestFrugalBeatsFloodingOnTraffic(t *testing.T) {
	base := denseStatic(5)
	base.Measure = 60 * time.Second
	frugal, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	fl := base
	fl.Protocol = ProtocolSpec{Name: "simple-flooding"}
	flooded, err := Run(fl)
	if err != nil {
		t.Fatal(err)
	}
	if flooded.Reliability() < 1.0 {
		t.Fatalf("flooding reliability = %v", flooded.Reliability())
	}
	if f, s := frugal.EventsSentPerProcess(), flooded.EventsSentPerProcess(); f*5 > s {
		t.Fatalf("frugal sends %.1f events/process vs flooding %.1f; want >5x gap", f, s)
	}
	if f, s := frugal.DuplicatesPerProcess(), flooded.DuplicatesPerProcess(); f*5 > s {
		t.Fatalf("frugal duplicates %.1f vs flooding %.1f; want >5x gap", f, s)
	}
}

func TestSeedDeterminism(t *testing.T) {
	a, err := Run(denseStatic(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(denseStatic(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Reliability() != b.Reliability() {
		t.Fatal("reliability differs across identical runs")
	}
	for i := range a.Nodes {
		if a.Nodes[i].Proto != b.Nodes[i].Proto || a.Nodes[i].MAC != b.Nodes[i].MAC {
			t.Fatalf("node %d counters differ across identical runs", i)
		}
	}
	c, err := Run(denseStatic(8))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Nodes {
		if a.Nodes[i].MAC != c.Nodes[i].MAC {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical MAC counters")
	}
}

func TestSparseMobileNetworkUsesMobility(t *testing.T) {
	// Two clusters far apart: only node mobility can carry the event.
	// With random waypoint at decent speed and a long validity, at least
	// some remote nodes must receive it; with zero validity margin (tiny
	// validity), none can.
	long := Scenario{
		Name:  "sparse-mobile",
		Nodes: 20,
		Seed:  11,
		Mobility: MobilitySpec{
			Kind:     RandomWaypoint,
			Area:     geo.NewRect(3000, 3000),
			MinSpeed: 15,
			MaxSpeed: 15,
		},
		MAC:                mac.DefaultConfig(340),
		Protocol:           FrugalSpec(CoreTuning{HBDelay: time.Second, HBUpperBound: time.Second}),
		SubscriberFraction: 1.0,
		Schedule:           []workload.Op{publish(5*time.Second, 0, 150*time.Second)},
		Warmup:             5 * time.Second,
		Measure:            160 * time.Second,
	}
	resLong, err := Run(long)
	if err != nil {
		t.Fatal(err)
	}
	short := long
	short.Seed = 11
	short.Schedule = []workload.Op{publish(short.Warmup, 0, 2*time.Second)}
	resShort, err := Run(short)
	if err != nil {
		t.Fatal(err)
	}
	if resLong.Reliability() <= resShort.Reliability() {
		t.Fatalf("long validity %.2f should beat short validity %.2f",
			resLong.Reliability(), resShort.Reliability())
	}
	if resLong.Reliability() < 0.3 {
		t.Fatalf("mobility-assisted reliability implausibly low: %v", resLong.Reliability())
	}
}

func TestCrashAndRecovery(t *testing.T) {
	sc := denseStatic(12)
	// Node 5 is down when the event is published and recovers later; it
	// must still receive the event after recovery (state is fresh, the
	// neighborhood re-detects it).
	sc.Schedule = []workload.Op{
		{At: time.Second, Kind: workload.Crash, Node: 5},
		publish(2*time.Second, 0, 80*time.Second),
		{At: 30 * time.Second, Kind: workload.Recover, Node: 5},
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reliability() != 1.0 {
		t.Fatalf("reliability with recovery = %v, want 1.0", res.Reliability())
	}
}

func TestCrashWithoutRecoveryLowersReliability(t *testing.T) {
	sc := denseStatic(13)
	sc.Schedule = []workload.Op{
		{At: time.Second, Kind: workload.Crash, Node: 3},
		{At: time.Second, Kind: workload.Crash, Node: 7},
		publish(2*time.Second, 0, 30*time.Second),
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	// 9 eligible, 2 permanently down (publisher 0 is up).
	want := 7.0 / 9.0
	got := res.Reliability()
	if got > want+1e-9 {
		t.Fatalf("reliability = %v, want <= %v with two dead nodes", got, want)
	}
	if got < 0.5 {
		t.Fatalf("reliability = %v, implausibly low", got)
	}
}

func TestCityScenarioRuns(t *testing.T) {
	sc := Scenario{
		Name:               "city-smoke",
		Nodes:              15,
		Seed:               21,
		Mobility:           MobilitySpec{Kind: CitySection},
		MAC:                mac.DefaultConfig(44),
		Protocol:           FrugalSpec(CoreTuning{HBDelay: 4 * time.Second, HBUpperBound: time.Second, UseSpeed: true}),
		SubscriberFraction: 1.0,
		Schedule:           []workload.Op{publish(10*time.Second, 0, 150*time.Second)},
		Warmup:             10 * time.Second,
		Measure:            160 * time.Second,
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reliability() <= 0 {
		t.Fatal("city scenario delivered nothing; radio range or mobility broken")
	}
	if res.Reliability() > 1 {
		t.Fatal("reliability above 1")
	}
}

func TestMeasurementWindowExcludesWarmup(t *testing.T) {
	sc := denseStatic(14)
	sc.Warmup = 30 * time.Second
	sc.Measure = 10 * time.Second
	sc.Schedule = nil // nothing after warmup
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res.Nodes {
		// Steady state: ~10 heartbeats in a 10s window, not 40.
		if n.Proto.HeartbeatsSent > 15 {
			t.Fatalf("node %v window heartbeats = %d; warmup not excluded",
				n.ID, n.Proto.HeartbeatsSent)
		}
	}
}

func TestFloodVariantsRun(t *testing.T) {
	for _, name := range []string{
		"simple-flooding", "interests-aware-flooding", "neighbors-interests-flooding",
	} {
		t.Run(name, func(t *testing.T) {
			sc := denseStatic(15)
			sc.Protocol = ProtocolSpec{Name: name}
			sc.Measure = 30 * time.Second
			sc.Schedule = []workload.Op{publish(time.Second, -1, 25*time.Second)}
			res, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Reliability() != 1.0 {
				t.Fatalf("%v reliability = %v in dense static net", name, res.Reliability())
			}
		})
	}
}

// TestTraceIsObservationOnly runs a registered scenario traced into a
// ring too large to wrap. The trace must not change the run (same
// fingerprint and outcomes as untraced with the delivery log the trace
// implies), its records must be in time order, every tap (send,
// receive, deliver, publish) must fire, and it must hold one deliver
// record per logged delivery.
func TestTraceIsObservationOnly(t *testing.T) {
	def, ok := LookupScenario("campus")
	if !ok {
		t.Fatal("campus not registered")
	}
	plain := def.Instantiate(1)
	plain.DeliveryLog = true
	want, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	traced := def.Instantiate(1)
	traced.Trace = trace.NewRing(1 << 16)
	got, err := Run(traced)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatal("tracing changed the run's fingerprint")
	}
	if !reflect.DeepEqual(got.Outcomes, want.Outcomes) {
		t.Fatalf("tracing changed the outcomes:\n%+v\n%+v", got.Outcomes, want.Outcomes)
	}
	recs := traced.Trace.Records()
	if uint64(len(recs)) != traced.Trace.Total() {
		t.Fatalf("ring wrapped: %d of %d records kept", len(recs), traced.Trace.Total())
	}
	ops := map[trace.Op]int{}
	for i, r := range recs {
		if i > 0 && r.At < recs[i-1].At {
			t.Fatalf("record %d at %v precedes record %d at %v", i, r.At, i-1, recs[i-1].At)
		}
		ops[r.Op]++
	}
	for _, op := range []trace.Op{trace.OpSend, trace.OpReceive, trace.OpDeliver, trace.OpPublish} {
		if ops[op] == 0 {
			t.Errorf("no %v records in %d", op, len(recs))
		}
	}
	if ops[trace.OpDeliver] != len(got.Deliveries) {
		t.Fatalf("%d deliver records, %d logged deliveries", ops[trace.OpDeliver], len(got.Deliveries))
	}
}
