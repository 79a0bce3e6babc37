package netsim

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/mac"
	"repro/internal/sim"
)

// TestScenarioRegistryRoundTrip is the registry's core guarantee: every
// registered name constructs a runnable Scenario that validates, runs,
// and actually disseminates.
func TestScenarioRegistryRoundTrip(t *testing.T) {
	defs := Scenarios()
	if len(defs) == 0 {
		t.Fatal("no scenarios registered")
	}
	for _, d := range defs {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			if d.Description == "" || d.Runtime == "" {
				t.Fatalf("catalog metadata incomplete: %+v", d)
			}
			sc := d.Instantiate(1)
			if sc.Seed != 1 {
				t.Fatalf("Instantiate seed = %d", sc.Seed)
			}
			if sc.Name == "" {
				t.Fatal("instantiated scenario has no name")
			}
			if d.Heavy {
				// Heavy templates (the metro city sweeps) are exercised
				// at a test-suite-sized roster: the template's shape is
				// still validated and run end-to-end, just not at 10k
				// nodes per test run.
				sc.Nodes = 300
			}
			if err := sc.withDefaults().Validate(); err != nil {
				t.Fatal(err)
			}
			res, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if sc.Workload.IsZero() {
				if len(res.Published) != len(sc.Publications) {
					t.Fatalf("published %d of %d scheduled events",
						len(res.Published), len(sc.Publications))
				}
			} else if len(res.Published) <= len(sc.Publications) {
				// A workload-backed scenario must generate traffic
				// beyond its explicit list.
				t.Fatalf("workload %v generated no publications (%d explicit, %d total)",
					sc.Workload, len(sc.Publications), len(res.Published))
			}
			if res.Reliability() <= 0 {
				t.Fatalf("scenario %s delivered nothing", d.Name)
			}
		})
	}
}

// TestCensoredScenarios lists exactly which registered scenarios end
// their run before some event's validity does, and how many events each
// censors. The three largest metro tiers are left out: each run takes
// minutes.
func TestCensoredScenarios(t *testing.T) {
	want := map[string]int{"metro-slice": 6, "rush-hour": 16, "stadium": 6}
	got := map[string]int{}
	for _, d := range Scenarios() {
		if d.Heavy && d.Name != "metro-slice" {
			continue
		}
		res, err := Run(d.Instantiate(1))
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		for _, o := range res.Outcomes {
			if o.Censored {
				got[d.Name]++
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("censored events per scenario = %v, want %v", got, want)
	}
}

func TestScenarioRegistryLookup(t *testing.T) {
	for _, name := range []string{"campus", "waypoint", "manhattan", "manhattan-churn", "highway"} {
		if _, ok := LookupScenario(name); !ok {
			t.Fatalf("built-in scenario %q not registered", name)
		}
	}
	if _, ok := LookupScenario("nope"); ok {
		t.Fatal("LookupScenario(nope) succeeded")
	}
	names := ScenarioNames()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("ScenarioNames not sorted: %v", names)
	}
	if len(names) != len(Scenarios()) {
		t.Fatal("ScenarioNames and Scenarios disagree")
	}
}

func TestRegisterScenarioRejectsBadDefs(t *testing.T) {
	mustPanic := func(name string, d ScenarioDef) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: RegisterScenario did not panic", name)
			}
		}()
		RegisterScenario(d)
	}
	valid := Scenario{
		Nodes:    3,
		Mobility: MobilitySpec{Kind: StaticNodes, Area: geo.NewRect(100, 100)},
		MAC:      mac.DefaultConfig(339),
		Measure:  time.Second,
	}
	mustPanic("duplicate", ScenarioDef{Name: "campus", Description: "dup", Runtime: "-", Template: valid})
	mustPanic("unnamed", ScenarioDef{Description: "x", Template: valid})
	invalid := valid
	invalid.Nodes = 0
	mustPanic("invalid template", ScenarioDef{Name: "broken", Description: "x", Template: invalid})
	// Mobility-model fields are validated at registration too, not at
	// first Run.
	badLights := valid
	badLights.Mobility = MobilitySpec{Kind: ManhattanGrid, RedFraction: 1.5}
	mustPanic("bad red fraction", ScenarioDef{Name: "broken-lights", Description: "x", Template: badLights})
}

func TestParseProtocolRoundTrip(t *testing.T) {
	names := ProtocolNames()
	// The historical six plus the gossip baseline must all be wired in.
	for _, want := range []string{
		"frugal", "simple-flooding", "interests-aware-flooding",
		"neighbors-interests-flooding", "probabilistic-broadcast",
		"counter-based-broadcast", "gossip-pushpull",
	} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("protocol %q not registered (have %v)", want, names)
		}
	}
	for _, n := range names {
		spec, ok := ParseProtocol(n)
		if !ok || spec.String() != n {
			t.Fatalf("ParseProtocol(%q) = %v, %v", n, spec, ok)
		}
	}
	if _, ok := ParseProtocol("nope"); ok {
		t.Fatal("ParseProtocol(nope) succeeded")
	}
	// The zero spec is the frugal protocol.
	if (ProtocolSpec{}).String() != "frugal" {
		t.Fatalf("zero spec = %q, want frugal", (ProtocolSpec{}).String())
	}
}

func TestScenarioValidateRejectsBadProtocolSpec(t *testing.T) {
	sc := denseStatic(1)
	sc.Protocol = ProtocolSpec{Name: "no-such-protocol"}
	if err := sc.withDefaults().Validate(); err == nil {
		t.Fatal("unknown protocol name accepted")
	}
	// Wrong params type for a registered name.
	sc.Protocol = ProtocolSpec{Name: "simple-flooding", Params: CoreTuning{}}
	if err := sc.withDefaults().Validate(); err == nil {
		t.Fatal("mismatched params type accepted")
	}
	// Invalid params of the right type.
	sc.Protocol = FrugalSpec(CoreTuning{HBDelay: -time.Second})
	if err := sc.withDefaults().Validate(); err == nil {
		t.Fatal("invalid frugal tuning accepted")
	}
}

// TestManhattanAndHighwaySpeedBounds pins the MAC staleness contract for
// the new kinds: the derived speed bound must cover every node's actual
// speed over a run (the grid's correctness precondition).
func TestManhattanAndHighwaySpeedBounds(t *testing.T) {
	for _, name := range []string{"manhattan", "highway"} {
		def, ok := LookupScenario(name)
		if !ok {
			t.Fatalf("scenario %q missing", name)
		}
		sc := def.Instantiate(3)
		r := &runner{sc: sc.withDefaults(), eng: sim.New(sc.Seed)}
		if err := r.build(); err != nil {
			t.Fatal(err)
		}
		cfg := r.macConfig()
		if !cfg.SpeedBounded || cfg.MaxSpeed <= 0 {
			t.Fatalf("%s: no speed bound derived (%+v)", name, cfg)
		}
		for i, n := range r.nodes[:4] {
			for s := 0.0; s < 300; s += 1.7 {
				if v := n.model.Speed(sim.Seconds(s)); v > cfg.MaxSpeed+1e-9 {
					t.Fatalf("%s node %d at %v m/s exceeds bound %v", name, i, v, cfg.MaxSpeed)
				}
			}
		}
	}
}
