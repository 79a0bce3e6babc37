package netsim

import (
	"math"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/sim"
	"repro/internal/topic"
	"repro/internal/workload"
)

// shuttle is a deterministic courier: it oscillates on a straight line
// between two points with a fixed period.
type shuttle struct {
	a, b   geo.Point
	period time.Duration
}

func (s shuttle) Position(at sim.Time) geo.Point {
	f := math.Mod(at.Seconds()/s.period.Seconds(), 1.0)
	if f < 0.5 {
		return s.a.Lerp(s.b, f*2)
	}
	return s.b.Lerp(s.a, (f-0.5)*2)
}

func (s shuttle) Speed(sim.Time) float64 {
	return 2 * s.a.Dist(s.b) / s.period.Seconds()
}

// TestCourierBridgesPartition is the store-carry-forward test: two
// static clusters far beyond radio range exchange an event only through
// a shuttling courier node.
func TestCourierBridgesPartition(t *testing.T) {
	const nodes = 11
	models := make([]mobility.Model, nodes)
	// Cluster A: nodes 0-4 near the origin.
	for i := 0; i < 5; i++ {
		models[i] = mobility.Static{P: geo.Pt(float64(i)*40, 0)}
	}
	// Cluster B: nodes 5-9 at 4 km — more than 10 radio ranges away.
	for i := 5; i < 10; i++ {
		models[i] = mobility.Static{P: geo.Pt(4000+float64(i-5)*40, 0)}
	}
	// Node 10 shuttles between the clusters every 120 s.
	models[10] = shuttle{a: geo.Pt(80, 0), b: geo.Pt(4080, 0), period: 120 * time.Second}

	sc := Scenario{
		Name:  "courier",
		Nodes: nodes,
		Seed:  1,
		Mobility: MobilitySpec{ // fallback (unused: all custom)
			Kind: StaticNodes,
			Area: geo.NewRect(5000, 100),
		},
		CustomModels:       models,
		MAC:                mac.DefaultConfig(339),
		Protocol:           FrugalSpec(CoreTuning{HBDelay: time.Second, HBUpperBound: time.Second}),
		SubscriberFraction: 1.0,
		Schedule:           []workload.Op{publish(2*time.Second, 0, 240*time.Second)},
		Warmup:             2 * time.Second,
		Measure:            250 * time.Second,
		DeliveryLog:        true, // the partition check reads res.Deliveries
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Reliability(); got != 1.0 {
		t.Fatalf("courier reliability = %v, want 1.0", got)
	}
	// Cluster B must have received the event noticeably later than
	// cluster A: the courier needs ~60 s to cross.
	ev := res.Published[0].ID
	var maxA, minB sim.Time
	minB = sim.Time(1 << 62)
	for _, d := range res.Deliveries {
		if d.Event != ev {
			continue
		}
		switch {
		case d.Node >= 5 && d.Node <= 9:
			if d.At < minB {
				minB = d.At
			}
		case d.Node <= 4:
			if d.At > maxA {
				maxA = d.At
			}
		}
	}
	if minB.Sub(maxA) < 20*time.Second {
		t.Fatalf("cluster B got the event too fast (A by %v, B from %v): no real partition",
			maxA, minB)
	}
}

func TestResubscriptionReceivesEvents(t *testing.T) {
	sc := Scenario{
		Name:  "resub",
		Nodes: 6,
		Seed:  2,
		Mobility: MobilitySpec{
			Kind: StaticNodes,
			Area: geo.NewRect(200, 200),
		},
		MAC:                mac.DefaultConfig(339),
		Protocol:           FrugalSpec(CoreTuning{HBDelay: time.Second, HBUpperBound: time.Second}),
		SubscriberFraction: 0.5,
		Schedule:           []workload.Op{publish(5*time.Second, -1, 120*time.Second)},
		Warmup:             0,
		Measure:            130 * time.Second,
	}
	// First pass: find a node that is NOT subscribed.
	probe, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	outsider := -1
	for i, n := range probe.Nodes {
		if !n.Subscribed {
			outsider = i
			break
		}
	}
	if outsider == -1 {
		t.Fatal("no outsider found")
	}
	if probe.Nodes[outsider].Proto.Delivered != 0 {
		t.Fatal("outsider delivered without subscribing")
	}
	// Second pass: the outsider subscribes to the event topic mid-run,
	// well after publication, and must still receive the event through
	// the id-exchange with its neighbors.
	sc.Schedule = append(sc.Schedule, workload.Op{
		At:    30 * time.Second,
		Kind:  workload.Subscribe,
		Node:  outsider,
		Topic: topic.MustParse(".app.news"),
	})
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes[outsider].Proto.Delivered != 1 {
		t.Fatalf("late subscriber delivered %d events, want 1",
			res.Nodes[outsider].Proto.Delivered)
	}
}

func TestUnsubscribeStopsDeliveries(t *testing.T) {
	sc := Scenario{
		Name:  "unsub",
		Nodes: 5,
		Seed:  3,
		Mobility: MobilitySpec{
			Kind: StaticNodes,
			Area: geo.NewRect(150, 150),
		},
		MAC:                mac.DefaultConfig(339),
		Protocol:           FrugalSpec(CoreTuning{HBDelay: time.Second, HBUpperBound: time.Second}),
		SubscriberFraction: 1.0,
		Schedule: []workload.Op{
			{At: 5 * time.Second, Kind: workload.Unsubscribe, Node: 2, Topic: topic.MustParse(".app.news")},
			publish(10*time.Second, 0, 60*time.Second),
		},
		Warmup:  0,
		Measure: 80 * time.Second,
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes[2].Proto.Delivered != 0 {
		t.Fatalf("unsubscribed node delivered %d events", res.Nodes[2].Proto.Delivered)
	}
	// The others still got it.
	for _, i := range []int{1, 3, 4} {
		if res.Nodes[i].Proto.Delivered != 1 {
			t.Fatalf("node %d delivered %d, want 1", i, res.Nodes[i].Proto.Delivered)
		}
	}
}

func TestDeliveryLatencies(t *testing.T) {
	sc := Scenario{
		Name:  "latency",
		Nodes: 8,
		Seed:  4,
		Mobility: MobilitySpec{
			Kind: StaticNodes,
			Area: geo.NewRect(200, 200),
		},
		MAC:                mac.DefaultConfig(339),
		Protocol:           FrugalSpec(CoreTuning{HBDelay: time.Second, HBUpperBound: time.Second}),
		SubscriberFraction: 1.0,
		Schedule:           []workload.Op{publish(2*time.Second, 0, 60*time.Second)},
		Warmup:             0,
		Measure:            70 * time.Second,
		DeliveryLog:        true, // DeliveryLatencies needs the full record list
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	lats := res.DeliveryLatencies()
	if len(lats) != 7 {
		t.Fatalf("latencies = %d, want 7 (publisher excluded)", len(lats))
	}
	for _, l := range lats {
		if l < 0 || l > 10 {
			t.Fatalf("latency %vs implausible in a dense static net", l)
		}
	}
	p50 := metrics.Median(lats)
	p99 := metrics.Quantile(lats, 0.99)
	if p50 > p99 {
		t.Fatal("median exceeds p99")
	}
	// The always-on streaming histogram must agree with the exact
	// record-derived list: same count/sum, quantiles within its
	// documented bucket error.
	if res.Latency.N() != len(lats) {
		t.Fatalf("streaming latency N = %d, want %d", res.Latency.N(), len(lats))
	}
	sum := 0.0
	for _, l := range lats {
		sum += l
	}
	if math.Abs(res.Latency.Sum()-sum) > 1e-9 {
		t.Fatalf("streaming latency sum = %v, want %v", res.Latency.Sum(), sum)
	}
	if est := res.Latency.Quantile(0.5); math.Abs(est-p50) > 0.05*p50+1e-9 {
		t.Fatalf("streaming p50 = %v, exact %v", est, p50)
	}
	// Coverage is monotone and complete.
	ev := res.Published[0].ID
	pubAt := res.Published[0].At
	if got := res.CoverageAt(ev, pubAt); got != 0 {
		t.Fatalf("coverage at publish = %v, want 0", got)
	}
	mid := res.CoverageAt(ev, pubAt.Add(2*time.Second))
	end := res.CoverageAt(ev, pubAt.Add(60*time.Second))
	if end != 1.0 {
		t.Fatalf("final coverage = %v, want 1.0", end)
	}
	if mid > end {
		t.Fatal("coverage not monotone")
	}
}

func TestCustomModelsLengthValidated(t *testing.T) {
	sc := Scenario{
		Nodes:        3,
		Mobility:     MobilitySpec{Kind: StaticNodes, Area: geo.NewRect(10, 10)},
		MAC:          mac.DefaultConfig(100),
		Measure:      time.Second,
		CustomModels: []mobility.Model{mobility.Static{}},
	}
	if err := sc.withDefaults().Validate(); err == nil {
		t.Fatal("mismatched CustomModels length accepted")
	}
}

func TestResubscriptionValidated(t *testing.T) {
	sc := denseStatic(1)
	sc.Schedule = []workload.Op{{At: time.Second, Kind: workload.Subscribe, Node: 99, Topic: topic.MustParse(".x")}}
	if err := sc.withDefaults().Validate(); err == nil {
		t.Fatal("out-of-range resubscription accepted")
	}
	sc.Schedule = []workload.Op{{At: time.Second, Kind: workload.Subscribe, Node: 0}}
	if err := sc.withDefaults().Validate(); err == nil {
		t.Fatal("zero-topic resubscription accepted")
	}
}
