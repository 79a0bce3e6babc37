package netsim

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/mac"
	"repro/internal/workload"
)

// TestGridParityWithFullScan checks what only netsim decides about the
// medium: the speed bound and index bounds macConfig derives from each
// mobility kind. It runs each scenario twice — with the derived config,
// and with a caller-set bound of 10^6 m/s, which macConfig leaves alone
// and whose 2·10^5 m staleness margin makes every node a receiver
// candidate of every frame: the full roster scan's receiver set. Every
// measured quantity — deliveries, per-node protocol and MAC counters,
// outcomes — must be identical, so a derived bound below some node's
// true speed shows as a missed reception. The mac package's differential
// tests hold the medium itself to its roster-walk reference.
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
		{"manhattan", MobilitySpec{
			Kind:        ManhattanGrid,
			LightCycle:  30 * time.Second,
			RedFraction: 0.5,
		}},
		{"highway", MobilitySpec{Kind: HighwayConvoy}},
		{"static", MobilitySpec{
			Kind: StaticNodes,
			Area: geo.NewRect(1200, 1200),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(allCandidates bool) *Result {
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
				if allCandidates {
					sc.MAC.SpeedBounded, sc.MAC.MaxSpeed = true, 1e6
				}
				res, err := Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			derived, all := run(false), run(true)
			if !reflect.DeepEqual(derived.Nodes, all.Nodes) {
				t.Errorf("per-node counters differ between the derived bound and every node a candidate")
			}
			if !reflect.DeepEqual(derived.Deliveries, all.Deliveries) {
				t.Errorf("delivery records differ between the derived bound and every node a candidate")
			}
			if !reflect.DeepEqual(derived.Outcomes, all.Outcomes) {
				t.Errorf("event outcomes differ between the derived bound and every node a candidate")
			}
			if deliveredTotal(derived) == 0 {
				t.Fatal("scenario delivered nothing; parity check is vacuous")
			}
		})
	}
}
