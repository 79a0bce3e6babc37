package netsim_test

import (
	"fmt"
	"log"
	"time"

	"repro/internal/event"
	"repro/internal/geo"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/topic"
	"repro/internal/workload"
)

// Ten mobile nodes run the frugal protocol over the simulated 802.11b
// medium; one of them publishes an event valid for 60 s.
func ExampleRun() {
	sc := netsim.Scenario{
		Name:  "quickstart",
		Nodes: 10,
		Seed:  1,
		Mobility: netsim.MobilitySpec{
			Kind:     netsim.RandomWaypoint,
			Area:     geo.NewRect(1200, 1200),
			MinSpeed: 5,
			MaxSpeed: 15,
		},
		MAC:                mac.DefaultConfig(339), // the paper's 2 Mbps radio range
		Protocol:           netsim.FrugalSpec(netsim.CoreTuning{HBUpperBound: time.Second, UseSpeed: true}),
		SubscriberFraction: 1, // everyone wants the event
		Schedule:           []workload.Op{{At: 10 * time.Second, Kind: workload.Publish, Node: 0, Validity: 60 * time.Second}},
		Warmup:             10 * time.Second,
		Measure:            65 * time.Second,
	}
	res, err := netsim.Run(sc)
	if err != nil {
		log.Fatal(err)
	}
	o := res.Outcomes[0]
	fmt.Printf("event published by %v reached %d of %d subscribers within its validity\n",
		o.Publisher, o.DeliveredInTime, o.Eligible)
	fmt.Println("node  heartbeats  idlists  eventmsgs  delivered")
	for _, n := range res.Nodes {
		fmt.Printf("%-4v  %-10d  %-7d  %-9d  %d\n", n.ID, n.Proto.HeartbeatsSent,
			n.Proto.IDListsSent, n.Proto.EventMsgsSent, n.Proto.Delivered)
	}
	// Output:
	// event published by p0 reached 9 of 9 subscribers within its validity
	// node  heartbeats  idlists  eventmsgs  delivered
	// p0    65          2        1          1
	// p1    65          3        1          1
	// p2    65          6        1          1
	// p3    65          4        1          1
	// p4    65          6        1          1
	// p5    65          5        0          1
	// p6    65          5        1          1
	// p7    65          6        0          1
	// p8    65          4        0          1
	// p9    65          4        0          1
}

// The paper's city-section evaluation at small scale: 15 processes
// drive the campus streets, each publishes in turn, and a longer
// validity period lets mobility carry the event to more meetings (the
// paper's Figure 16).
func ExampleRun_campus() {
	fmt.Println("validity  reliability  duplicates/process")
	for _, validity := range []time.Duration{25 * time.Second, 75 * time.Second, 150 * time.Second} {
		var rel, dup metrics.Agg
		for seed := int64(1); seed <= 2; seed++ {
			for publisher := 0; publisher < 15; publisher++ {
				res, err := netsim.Run(netsim.Scenario{
					Name:               "campus",
					Nodes:              15,
					Seed:               seed,
					Mobility:           netsim.MobilitySpec{Kind: netsim.CitySection},
					MAC:                mac.DefaultConfig(44),
					Protocol:           netsim.FrugalSpec(netsim.CoreTuning{HBUpperBound: time.Second, UseSpeed: true}),
					SubscriberFraction: 1,
					Schedule:           []workload.Op{{At: 30 * time.Second, Kind: workload.Publish, Node: publisher, Validity: validity}},
					Warmup:             30 * time.Second,
					Measure:            validity + 5*time.Second,
				})
				if err != nil {
					log.Fatal(err)
				}
				rel.Add(res.Reliability())
				dup.Add(res.DuplicatesPerProcess())
			}
		}
		fmt.Printf("%-8v  %-11s  %.2f\n", validity, metrics.Pct(rel.Mean()), dup.Mean())
	}
	// Output:
	// validity  reliability  duplicates/process
	// 25s       16.4%        0.07
	// 1m15s     55.2%        0.14
	// 2m30s     88.6%        0.59
}

// The paper's footnote-1 application: cars leaving a car park publish
// the freed spot under .city.parking, and every car, subscribed to
// .city.parking, learns of it as it drives through the campus streets.
// Each spot stays relevant for two minutes; the run ends at three, so
// the last spot's validity outlasts it (Censored).
func ExampleRun_carpark() {
	lot := func(name string) topic.Topic { return topic.MustParse(".city.parking." + name) }
	res, err := netsim.Run(netsim.Scenario{
		Name:               "carpark",
		Nodes:              12,
		Seed:               7,
		Mobility:           netsim.MobilitySpec{Kind: netsim.CitySection},
		MAC:                mac.DefaultConfig(44),
		Protocol:           netsim.FrugalSpec(netsim.CoreTuning{HBUpperBound: time.Second, UseSpeed: true}),
		EventTopic:         topic.MustParse(".city.parking"),
		SubscriberFraction: 1,
		Schedule: []workload.Op{
			{At: 20 * time.Second, Kind: workload.Publish, Node: 2, Topic: lot("lotA"), Validity: 2 * time.Minute},
			{At: 45 * time.Second, Kind: workload.Publish, Node: 7, Topic: lot("lotB"), Validity: 2 * time.Minute},
			{At: 70 * time.Second, Kind: workload.Publish, Node: 4, Topic: lot("lotA"), Validity: 2 * time.Minute},
		},
		DeliveryLog: true,
		Measure:     3 * time.Minute,
	})
	if err != nil {
		log.Fatal(err)
	}
	spot := make(map[event.ID]netsim.PublishedEvent)
	for _, pe := range res.Published {
		spot[pe.ID] = pe
	}
	for _, d := range res.Deliveries {
		pe := spot[d.Event]
		if d.Node == pe.Publisher {
			fmt.Printf("[%8s] car %v leaves %v and publishes the free spot\n", d.At, d.Node, pe.Topic)
		} else {
			fmt.Printf("[%8s] car %v learns of the spot car %v freed in %v\n", d.At, d.Node, pe.Publisher, pe.Topic)
		}
	}
	for _, o := range res.Outcomes {
		fmt.Printf("%v at %v: %d of %d cars in time, censored %v\n",
			o.Topic, o.At, o.DeliveredInTime, o.Eligible, o.Censored)
	}
	// Output:
	// [ 20.000s] car p2 leaves .city.parking.lotA and publishes the free spot
	// [ 45.000s] car p7 leaves .city.parking.lotB and publishes the free spot
	// [ 70.000s] car p4 leaves .city.parking.lotA and publishes the free spot
	// [ 71.391s] car p5 learns of the spot car p7 freed in .city.parking.lotB
	// [ 82.391s] car p5 learns of the spot car p4 freed in .city.parking.lotA
	// [ 82.394s] car p4 learns of the spot car p7 freed in .city.parking.lotB
	// [ 97.143s] car p6 learns of the spot car p7 freed in .city.parking.lotB
	// [ 97.143s] car p6 learns of the spot car p4 freed in .city.parking.lotA
	// [108.705s] car p11 learns of the spot car p7 freed in .city.parking.lotB
	// [108.705s] car p11 learns of the spot car p4 freed in .city.parking.lotA
	// [110.143s] car p8 learns of the spot car p7 freed in .city.parking.lotB
	// [110.143s] car p8 learns of the spot car p4 freed in .city.parking.lotA
	// [122.144s] car p0 learns of the spot car p7 freed in .city.parking.lotB
	// [122.144s] car p0 learns of the spot car p4 freed in .city.parking.lotA
	// [123.975s] car p10 learns of the spot car p7 freed in .city.parking.lotB
	// [123.975s] car p10 learns of the spot car p4 freed in .city.parking.lotA
	// [125.246s] car p2 learns of the spot car p7 freed in .city.parking.lotB
	// [125.246s] car p2 learns of the spot car p4 freed in .city.parking.lotA
	// [125.748s] car p5 learns of the spot car p2 freed in .city.parking.lotA
	// [133.496s] car p0 learns of the spot car p2 freed in .city.parking.lotA
	// .city.parking.lotA at 20.000s: 2 of 11 cars in time, censored false
	// .city.parking.lotB at 45.000s: 8 of 11 cars in time, censored false
	// .city.parking.lotA at 70.000s: 7 of 11 cars in time, censored true
}
