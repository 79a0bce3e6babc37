package netsim

import (
	"fmt"

	"repro/internal/registry"
)

// ScenarioDef is a named, declaratively registered scenario: a complete
// Scenario template (mobility model, node count, protocol, publication
// workload, crash/churn schedule, warm-up and measurement windows) that
// Instantiate stamps with a per-run seed. Registering a definition makes
// it reachable from the experiment harness (exp's "scenarios" family),
// cmd/experiments (-scenario, -list) and cmd/frugalsim — adding a new
// workload is one RegisterScenario call plus a catalog doc entry, not a
// bespoke sweep file.
type ScenarioDef struct {
	// Name is the registry key (e.g. "manhattan").
	Name string
	// Description is a one-line summary of environment and workload.
	Description string
	// Runtime is the expected wall-clock of one frugal-vs-baselines
	// sweep at default scale (human-readable, for the catalog).
	Runtime string
	// Heavy marks scenarios too large for the default registry sweeps
	// (the exp "scenarios" family, the golden-file suite): they stay
	// reachable by name (-scenario, benchmarks) but are skipped
	// wherever every registered scenario runs implicitly.
	Heavy bool
	// Template is the full scenario; its Seed field is ignored.
	Template Scenario
}

// Instantiate returns a runnable copy of the template for the given
// seed. The scenario's Name defaults to the registry name.
func (d ScenarioDef) Instantiate(seed int64) Scenario {
	sc := d.Template
	sc.Seed = seed
	if sc.Name == "" {
		sc.Name = d.Name
	}
	return sc
}

var scenarios = registry.New[ScenarioDef]("netsim: scenario")

// RegisterScenario adds a definition to the registry. It panics on a
// duplicate name or an invalid template (registration happens at init
// time; a broken definition should fail loudly, not at first use).
func RegisterScenario(d ScenarioDef) {
	if d.Name == "" || d.Description == "" {
		panic(fmt.Sprintf("netsim: scenario %q registered without name or description", d.Name))
	}
	if err := d.Instantiate(1).withDefaults().Validate(); err != nil {
		panic(fmt.Sprintf("netsim: scenario %q template invalid: %v", d.Name, err))
	}
	scenarios.Register(d.Name, d)
}

// Scenarios returns every registered definition, sorted by name.
func Scenarios() []ScenarioDef { return scenarios.All() }

// ScenarioNames returns the sorted registered names.
func ScenarioNames() []string { return scenarios.Names() }

// LookupScenario finds a definition by name.
func LookupScenario(name string) (ScenarioDef, bool) { return scenarios.Lookup(name) }
