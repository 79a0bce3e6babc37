package exp

import (
	"strings"
	"testing"

	"repro/internal/netsim"
)

// TestScenarioSweepParallelismInvariance asserts the acceptance
// criterion for the registry-backed sweeps: scenario tables — including
// the churn scenario and the workload-generated ones — are
// byte-identical at any parallelism.
func TestScenarioSweepParallelismInvariance(t *testing.T) {
	for _, name := range []string{"manhattan", "highway", "manhattan-churn", "stadium", "rush-hour"} {
		run := func(parallel int) string {
			out, err := ScenarioSweep(name, Options{Seeds: 1, Parallel: parallel})
			if err != nil {
				t.Fatal(err)
			}
			return out.String()
		}
		serial := run(1)
		parallel := run(8)
		if serial != parallel {
			t.Fatalf("%s tables differ across parallelism:\n--- parallel=1\n%s\n--- parallel=8\n%s",
				name, serial, parallel)
		}
		// The panel enumerates the protocol registry: every registered
		// protocol (including the gossip baseline, which no exp code
		// names) must have a row.
		for _, protoName := range netsim.ProtocolNames() {
			if !strings.Contains(serial, protoName) {
				t.Fatalf("%s table missing registered protocol %q:\n%s", name, protoName, serial)
			}
		}
	}
}

// TestScenariosFamilyCoversRegistry runs the whole family once and
// checks it produces one table per registered non-heavy scenario, in
// registry order — no scenario can be silently skipped, and the heavy
// metro sweeps must stay out of the default family (they run only on
// explicit -scenario requests).
func TestScenariosFamilyCoversRegistry(t *testing.T) {
	defs := netsim.Scenarios()
	out, err := Scenarios(Options{Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	light := 0
	for _, d := range defs {
		if !d.Heavy {
			light++
		}
	}
	if len(out.Tables) != light {
		t.Fatalf("family produced %d tables for %d registered non-heavy scenarios",
			len(out.Tables), light)
	}
	heavySeen := false
	rendered := out.String()
	for _, d := range defs {
		if d.Heavy {
			heavySeen = true
			if strings.Contains(rendered, "Scenario "+d.Name+" ") {
				t.Fatalf("heavy scenario %q swept by the default family", d.Name)
			}
			continue
		}
		if !strings.Contains(rendered, "Scenario "+d.Name+" ") {
			t.Fatalf("no table for registered scenario %q", d.Name)
		}
	}
	if !heavySeen {
		t.Fatal("no heavy scenario registered (metro family missing)")
	}
}

func TestScenarioSweepUnknownName(t *testing.T) {
	_, err := ScenarioSweep("no-such-scenario", Options{Seeds: 1})
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	// The error must name the valid choices (the CLI prints it as-is).
	if !strings.Contains(err.Error(), "manhattan") || !strings.Contains(err.Error(), "highway") {
		t.Fatalf("error does not list registered scenarios: %v", err)
	}
}
