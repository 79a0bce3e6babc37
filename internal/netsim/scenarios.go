package netsim

import (
	"math"
	"time"

	"repro/internal/geo"
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/workload"
)

// Built-in scenario definitions. Each is a complete declarative
// workload: environment, node count, radio range, protocol tuning,
// publication schedule, optional churn, and measurement windows. They
// are enumerated by `cmd/experiments -list` and swept (frugal vs the
// flooding/storm baselines) by the exp package's "scenarios" family;
// keep the catalog sections of doc.go and cmd/experiments in sync when
// adding one (a cmd/experiments test cross-checks the listing).
func init() {
	RegisterScenario(ScenarioDef{
		Name:        "campus",
		Description: "paper's city section: 15 nodes on the synthetic campus grid, one 150 s event",
		Runtime:     "<1 s",
		Template: Scenario{
			Nodes:              15,
			Mobility:           MobilitySpec{Kind: CitySection},
			MAC:                mac.DefaultConfig(44),
			Protocol:           FrugalSpec(CoreTuning{HBUpperBound: time.Second, UseSpeed: true}),
			SubscriberFraction: 1.0,
			Schedule: []workload.Op{
				{At: 30 * time.Second, Kind: workload.Publish, Node: -1, Validity: 150 * time.Second},
			},
			Warmup:  30 * time.Second,
			Measure: 155 * time.Second,
		},
	})
	RegisterScenario(ScenarioDef{
		Name:        "waypoint",
		Description: "paper's random waypoint at reduced scale: 40 nodes, 10 m/s, 80% subscribers, one 120 s event",
		Runtime:     "<1 s",
		Template: Scenario{
			Nodes: 40,
			Mobility: MobilitySpec{
				Kind:     RandomWaypoint,
				Area:     geo.NewRect(2582, 2582), // the paper's 6 nodes/km^2
				MinSpeed: 10,
				MaxSpeed: 10,
			},
			MAC:                mac.DefaultConfig(339),
			Protocol:           FrugalSpec(CoreTuning{HBUpperBound: time.Second, UseSpeed: true}),
			SubscriberFraction: 0.8,
			Schedule: []workload.Op{
				{At: 30 * time.Second, Kind: workload.Publish, Node: -1, Validity: 120 * time.Second},
			},
			Warmup:  30 * time.Second,
			Measure: 125 * time.Second,
		},
	})
	RegisterScenario(ScenarioDef{
		Name:        "manhattan",
		Description: "urban VANET: 40 vehicles on a 990x770 m Manhattan grid with traffic lights, a 3-event burst",
		Runtime:     "<1 s",
		Template: Scenario{
			Nodes: 40,
			Mobility: MobilitySpec{
				Kind:        ManhattanGrid,
				LightCycle:  30 * time.Second,
				RedFraction: 0.4,
			},
			MAC:                mac.DefaultConfig(100),
			Protocol:           FrugalSpec(CoreTuning{HBUpperBound: time.Second, UseSpeed: true}),
			SubscriberFraction: 0.8,
			Schedule: []workload.Op{
				{At: 30 * time.Second, Kind: workload.Publish, Node: -1, Validity: 120 * time.Second},
				{At: 32 * time.Second, Kind: workload.Publish, Node: -1, Validity: 120 * time.Second},
				{At: 34 * time.Second, Kind: workload.Publish, Node: -1, Validity: 120 * time.Second},
			},
			Warmup:  30 * time.Second,
			Measure: 130 * time.Second,
		},
	})
	RegisterScenario(ScenarioDef{
		Name:        "manhattan-churn",
		Description: "manhattan with churn: two vehicles crash mid-window, one recovers with empty state",
		Runtime:     "<1 s",
		Template: Scenario{
			Nodes: 40,
			Mobility: MobilitySpec{
				Kind:        ManhattanGrid,
				LightCycle:  30 * time.Second,
				RedFraction: 0.4,
			},
			MAC:                mac.DefaultConfig(100),
			Protocol:           FrugalSpec(CoreTuning{HBUpperBound: time.Second, UseSpeed: true}),
			SubscriberFraction: 0.8,
			Schedule: []workload.Op{
				{At: 30 * time.Second, Kind: workload.Publish, Node: -1, Validity: 120 * time.Second},
				{At: 33 * time.Second, Kind: workload.Publish, Node: -1, Validity: 120 * time.Second},
				{At: 50 * time.Second, Kind: workload.Crash, Node: 3},
				{At: 70 * time.Second, Kind: workload.Crash, Node: 7},
				{At: 90 * time.Second, Kind: workload.Recover, Node: 3},
			},
			Warmup:  30 * time.Second,
			Measure: 130 * time.Second,
		},
	})
	RegisterScenario(ScenarioDef{
		Name:        "highway",
		Description: "highway convoy: 32 vehicles in 4 platoons on a 3.5 km bidirectional corridor, two 90 s events",
		Runtime:     "<1 s",
		Template: Scenario{
			Nodes:              32,
			Mobility:           MobilitySpec{Kind: HighwayConvoy},
			MAC:                mac.DefaultConfig(250),
			Protocol:           FrugalSpec(CoreTuning{HBUpperBound: time.Second, UseSpeed: true}),
			SubscriberFraction: 0.9,
			Schedule: []workload.Op{
				{At: 20 * time.Second, Kind: workload.Publish, Node: -1, Validity: 90 * time.Second},
				{At: 23 * time.Second, Kind: workload.Publish, Node: -1, Validity: 90 * time.Second},
			},
			Warmup:  20 * time.Second,
			Measure: 95 * time.Second,
		},
	})
	RegisterScenario(ScenarioDef{
		Name:        "stadium",
		Description: "flash crowd on the campus grid: 40 pedestrians, a burst of generated events mid-window",
		Runtime:     "~2 s",
		Template: Scenario{
			Nodes:              40,
			Mobility:           MobilitySpec{Kind: CitySection},
			MAC:                mac.DefaultConfig(44),
			Protocol:           FrugalSpec(CoreTuning{HBUpperBound: time.Second, UseSpeed: true}),
			SubscriberFraction: 0.9,
			// No hand-placed publications: the flash-crowd generator
			// synthesizes the traffic — a quiet background rate with a
			// 20 s burst a third into the window, spread over four
			// subtopics of the event topic.
			Workload: WorkloadSpec{
				Name: "flash-crowd",
				Params: workload.FlashCrowdParams{
					BaseRate:   0.05,
					PeakRate:   1.0,
					BurstStart: 40 * time.Second,
					BurstLen:   20 * time.Second,
					Validity:   60 * time.Second,
					Topics:     workload.TopicModel{Spread: 4},
				},
			},
			Warmup:  30 * time.Second,
			Measure: 120 * time.Second,
		},
	})
	RegisterScenario(ScenarioDef{
		Name:        "rush-hour",
		Description: "diurnal Zipf traffic on the Manhattan grid: 40 vehicles, a commute ramp over skewed topics",
		Runtime:     "~2 s",
		Template: Scenario{
			Nodes: 40,
			Mobility: MobilitySpec{
				Kind:        ManhattanGrid,
				LightCycle:  30 * time.Second,
				RedFraction: 0.4,
			},
			MAC:                mac.DefaultConfig(100),
			Protocol:           FrugalSpec(CoreTuning{HBUpperBound: time.Second, UseSpeed: true}),
			SubscriberFraction: 0.8,
			// Generated traffic only: one cosine quiet-rush-quiet arc
			// over the window, topics Zipf-skewed across six subtopics
			// (a popular head and a long tail).
			Workload: WorkloadSpec{
				Name: "diurnal",
				Params: workload.DiurnalParams{
					MinRate:  0.02,
					MaxRate:  0.4,
					Validity: 90 * time.Second,
					Topics:   workload.TopicModel{Spread: 6, ZipfS: 1.5},
				},
			},
			Warmup:  30 * time.Second,
			Measure: 130 * time.Second,
		},
	})
	// The metro family: city-sized sweeps on Manhattan-style metro
	// grids sized to the population (constant ~440 vehicles/km^2 —
	// bigger city, not denser traffic: per-second reception work
	// scales with N x density, so a fixed-area 10k city would cost
	// quadratically, see MetroGraphDims), traffic generated by a
	// diurnal commute arc over Zipf-skewed topics with waves of node
	// churn mixed in — the VANET-scale regime of the related work, far
	// beyond the paper's few hundred nodes. Both are Heavy: the
	// registry-wide sweeps and the golden suite skip them; reach them
	// via -scenario or bench/'s metro workloads.
	metroTemplate := func(nodes int) Scenario {
		cols, rows := MetroGraphDims(nodes)
		return Scenario{
			Nodes: nodes,
			Mobility: MobilitySpec{
				Kind:        ManhattanGrid,
				Graph:       mobility.NewManhattanStyleGraph(cols, rows),
				LightCycle:  30 * time.Second,
				RedFraction: 0.4,
			},
			MAC:                mac.DefaultConfig(100),
			Protocol:           FrugalSpec(CoreTuning{HBUpperBound: time.Second, UseSpeed: true}),
			SubscriberFraction: 0.8,
			Workload: WorkloadSpec{
				Name: "mix",
				Params: workload.MixParams{Parts: []workload.Spec{
					{Name: "diurnal", Params: workload.DiurnalParams{
						MinRate:  0.02,
						MaxRate:  0.2,
						Validity: 45 * time.Second,
						Topics:   workload.TopicModel{Spread: 6, ZipfS: 1.5},
					}},
					{Name: "churn-nodes", Params: workload.NodeChurnParams{
						Waves:    2,
						Fraction: 0.02,
						Downtime: 15 * time.Second,
					}},
				}},
			},
			Warmup:  10 * time.Second,
			Measure: 60 * time.Second,
		}
	}
	// metro-slice is the metro family scaled to a single district:
	// same Manhattan-style geometry, diurnal Zipf traffic, churn waves
	// and streaming-result aggregation, but small enough for tier-1
	// suites. It is the city fixture of exp's TestMetroSliceFingerprint
	// golden, TestCityParallelInvariance and bench's metro-slice
	// workload; it stays Heavy so the registry-wide sweeps don't pay
	// for a second mid-size city.
	RegisterScenario(ScenarioDef{
		Name:        "metro-slice",
		Description: "metro district: 600 vehicles on a metro-style grid, diurnal Zipf traffic + churn waves",
		Runtime:     "seconds",
		Heavy:       true,
		Template:    metroTemplate(600),
	})
	RegisterScenario(ScenarioDef{
		Name:        "metro-5k",
		Description: "city-scale VANET: 5k vehicles on an 11.4 km^2 metro grid, diurnal Zipf traffic + churn waves",
		Runtime:     "minutes",
		Heavy:       true,
		Template:    metroTemplate(5000),
	})
	RegisterScenario(ScenarioDef{
		Name:        "metro-10k",
		Description: "city-scale VANET: 10k vehicles on a 22.5 km^2 metro grid, diurnal Zipf traffic + churn waves",
		Runtime:     "tens of minutes",
		Heavy:       true,
		Template:    metroTemplate(10000),
	})
	RegisterScenario(ScenarioDef{
		Name:        "metro-50k",
		Description: "megacity VANET: 50k vehicles on a ~115 km^2 metro grid, diurnal Zipf traffic + churn waves",
		Runtime:     "hours",
		Heavy:       true,
		Template:    metroTemplate(50000),
	})
}

// MetroGraphDims returns the Manhattan-style street-grid dimensions
// (intersection columns x rows on 110 m blocks, ~36:28 aspect) that
// hold the metro family's vehicle density near 440/km^2 for the given
// population. The metro templates use it to grow the city with the
// roster instead of packing a fixed area denser — the latter
// makes per-simulated-second cost quadratic in the population (every
// doubling doubles both the frame rate and the receivers per frame).
func MetroGraphDims(nodes int) (cols, rows int) {
	// 440/km^2 over (cols-1)x(rows-1) blocks of 0.0121 km^2 at a
	// 36:28 aspect ratio: rows ~ sqrt(nodes/6.82).
	rows = int(math.Round(math.Sqrt(float64(nodes)/6.82))) + 1
	if rows < 4 {
		rows = 4
	}
	cols = (rows*36 + 14) / 28
	return cols, rows
}
