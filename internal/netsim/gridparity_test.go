package netsim

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/mac"
	"repro/internal/workload"
)

// TestGridParityWithFullScan runs the same scenario with the medium's
// spatial index and with the reference full scan: every measured
// quantity — deliveries, per-node protocol and MAC counters, outcomes —
// must be identical. This is the end-to-end version of the mac
// package's frame-level differential tests.
func TestGridParityWithFullScan(t *testing.T) {
	for _, tc := range []struct {
		name string
		mob  MobilitySpec
	}{
		{"rwp", MobilitySpec{
			Kind:     RandomWaypoint,
			Area:     geo.NewRect(2000, 2000),
			MinSpeed: 1,
			MaxSpeed: 40,
		}},
		{"city", MobilitySpec{Kind: CitySection}},
		{"static", MobilitySpec{
			Kind: StaticNodes,
			Area: geo.NewRect(1200, 1200),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(fullScan bool) *Result {
				sc := Scenario{
					Nodes:              25,
					Seed:               3,
					Mobility:           tc.mob,
					MAC:                mac.DefaultConfig(339),
					Protocol:           FrugalSpec(CoreTuning{HBUpperBound: time.Second, UseSpeed: true}),
					SubscriberFraction: 0.8,
					Warmup:             10 * time.Second,
					Schedule: []workload.Op{
						publish(10*time.Second, -1, 30*time.Second),
						publish(10*time.Second+500*time.Millisecond, -1, 30*time.Second),
					},
					Measure:     35 * time.Second,
					DeliveryLog: true, // parity diffs full delivery records
				}
				sc.MAC.FullScan = fullScan
				res, err := Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			grid, scan := run(false), run(true)
			if !reflect.DeepEqual(grid.Nodes, scan.Nodes) {
				t.Errorf("per-node counters differ between grid and full scan")
			}
			if !reflect.DeepEqual(grid.Deliveries, scan.Deliveries) {
				t.Errorf("delivery records differ between grid and full scan")
			}
			if !reflect.DeepEqual(grid.Outcomes, scan.Outcomes) {
				t.Errorf("event outcomes differ between grid and full scan")
			}
			if grid.DeliveredTotal() == 0 {
				t.Fatal("scenario delivered nothing; parity check is vacuous")
			}
		})
	}
}
