// Quickstart: the smallest end-to-end use of the library.
//
// Ten mobile nodes run the frugal pub/sub protocol over the simulated
// 802.11b broadcast medium; one of them publishes an event with a 60 s
// validity period, and we watch it spread through the network.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/geo"
	"repro/internal/mac"
	"repro/internal/netsim"
)

func main() {
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
		MAC: mac.DefaultConfig(339), // the paper's 2 Mbps radio range
		Protocol: netsim.FrugalSpec(netsim.CoreTuning{
			HBUpperBound: time.Second,
			UseSpeed:     true,
		}),
		SubscriberFraction: 1.0, // everyone wants the event
		Publications: []netsim.Publication{
			{Offset: 0, Publisher: 0, Validity: 60 * time.Second},
		},
		Warmup:  10 * time.Second,
		Measure: 65 * time.Second,
	}

	res, err := netsim.Run(sc)
	if err != nil {
		log.Fatal(err)
	}

	o := res.Outcomes[0]
	fmt.Printf("event published by %v reached %d of %d subscribers within its validity\n",
		o.Publisher, o.DeliveredInTime, o.Eligible)
	fmt.Printf("reliability: %.1f%%\n\n", 100*res.Reliability())

	fmt.Println("per-node traffic during the 65 s window:")
	fmt.Println("node  heartbeats  idlists  eventmsgs  delivered")
	for _, n := range res.Nodes {
		fmt.Printf("%-4v  %-10d  %-7d  %-9d  %d\n",
			n.ID, n.Proto.HeartbeatsSent, n.Proto.IDListsSent,
			n.Proto.EventMsgsSent, n.Proto.Delivered)
	}
}
