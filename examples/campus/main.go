// Campus walks through the paper's city-section evaluation at small
// scale: 15 processes drive the synthetic EPFL-like campus streets, every
// process becomes the publisher in turn, and we sweep the event validity
// period to show its leverage on reliability (the paper's Figure 16).
//
// Run with: go run ./examples/campus
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/netsim"
)

func main() {
	fmt.Println("city-section campus: reliability vs validity period")
	fmt.Println("(15 processes, 44 m radio range, 8-13 m/s road limits)")
	fmt.Println()

	tb := metrics.NewTable("", "validity", "reliability", "duplicates/process")
	for _, validity := range []time.Duration{
		25 * time.Second, 75 * time.Second, 150 * time.Second,
	} {
		var rel, dup metrics.Agg
		for seed := int64(1); seed <= 2; seed++ {
			for publisher := 0; publisher < 15; publisher++ {
				sc := netsim.Scenario{
					Name:     "campus",
					Nodes:    15,
					Seed:     seed,
					Mobility: netsim.MobilitySpec{Kind: netsim.CitySection},
					MAC:      mac.DefaultConfig(44),
					Protocol: netsim.FrugalSpec(netsim.CoreTuning{
						HBUpperBound: time.Second,
						UseSpeed:     true,
					}),
					SubscriberFraction: 1.0,
					Publications: []netsim.Publication{
						{Publisher: publisher, Validity: validity},
					},
					Warmup:  30 * time.Second,
					Measure: validity + 5*time.Second,
				}
				res, err := netsim.Run(sc)
				if err != nil {
					log.Fatal(err)
				}
				rel.Add(res.Reliability())
				dup.Add(res.DuplicatesPerProcess())
			}
		}
		tb.AddRow(validity.String(), metrics.Pct(rel.Mean()), metrics.F2(dup.Mean()))
	}
	fmt.Println(tb)
	fmt.Println("longer validity lets mobility carry events to more meetings —")
	fmt.Println("the paper's empirical lower bound on validity for a target reliability.")
}
