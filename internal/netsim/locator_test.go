package netsim

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/workload"
)

// plainModel hides everything but Position and Speed, LegAt included:
// the shape of a caller's own CustomModels entry.
type plainModel struct{ mobility.Model }

// legSlabFingerprint is the Fingerprint of legSlabScenario with every
// model wrapped in plainModel, recorded at the commit before the
// locator kept a leg slab.
const legSlabFingerprint = "0a83359868b93394480375f03d02de0ca0799f6124e005f5c2b5c3016c1054fb"

func legSlabScenario(wrap func(i int, m mobility.Model) mobility.Model) Scenario {
	const nodes = 40
	models := make([]mobility.Model, nodes)
	for i := range models {
		var m mobility.Model
		if i%8 == 0 {
			m = mobility.Static{P: geo.Pt(float64(i)*20, 400)}
		} else {
			m = mobility.NewWaypoint(mobility.WaypointConfig{
				Area:     geo.NewRect(900, 900),
				MinSpeed: 5,
				MaxSpeed: 30,
			}, rand.New(rand.NewSource(int64(i)+100)))
		}
		models[i] = wrap(i, m)
	}
	return Scenario{
		Name:               "leg-slab",
		Nodes:              nodes,
		Seed:               5,
		Mobility:           MobilitySpec{Kind: StaticNodes, Area: geo.NewRect(900, 900)}, // unused: all custom
		CustomModels:       models,
		MAC:                mac.DefaultConfig(250),
		Protocol:           FrugalSpec(CoreTuning{HBUpperBound: time.Second, UseSpeed: true}),
		SubscriberFraction: 0.8,
		Warmup:             5 * time.Second,
		Schedule: []workload.Op{
			publish(5*time.Second, -1, 20*time.Second),
			publish(8*time.Second, -1, 20*time.Second),
		},
		Measure: 30 * time.Second,
	}
}

// TestLegSlabMatchesPlainModels: the locator's leg slab is an
// optimization only. Models that expose LegAt (answered from the slab),
// models that hide it (asked through Position on every lookup) and a
// mix of both give the fingerprint the run had before the slab existed.
func TestLegSlabMatchesPlainModels(t *testing.T) {
	for name, wrap := range map[string]func(int, mobility.Model) mobility.Model{
		"plain": func(_ int, m mobility.Model) mobility.Model { return plainModel{m} },
		"legs":  func(_ int, m mobility.Model) mobility.Model { return m },
		"mixed": func(i int, m mobility.Model) mobility.Model {
			if i%3 == 0 {
				return plainModel{m}
			}
			return m
		},
	} {
		sc := legSlabScenario(wrap)
		_, slab := sc.CustomModels[1].(mobility.LegModel)
		if want := name != "plain"; slab != want {
			t.Fatalf("%s: model 1 implements LegModel = %v, want %v", name, slab, want)
		}
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if deliveredTotal(res) == 0 {
			t.Fatalf("%s: nothing delivered; the comparison is vacuous", name)
		}
		if got := res.Fingerprint(); got != legSlabFingerprint {
			t.Errorf("%s: fingerprint %s, want %s", name, got, legSlabFingerprint)
		}
	}
}
