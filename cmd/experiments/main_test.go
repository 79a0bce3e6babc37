package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/workload"
)

// TestListingMatchesRegistries pins the -list contract: the listing is
// generated from the experiment, scenario and protocol registries, so
// every registered id/name appears exactly once and nothing else does —
// no silently unreachable scenarios or protocols, no stale catalog
// lines.
func TestListingMatchesRegistries(t *testing.T) {
	out := listing()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	var ids []string
	for _, l := range lines {
		if !strings.HasPrefix(l, "  ") {
			continue // section headers
		}
		fields := strings.Fields(l)
		if len(fields) == 0 {
			t.Fatalf("blank catalog line in listing:\n%s", out)
		}
		ids = append(ids, fields[0])
	}
	var want []string
	for _, d := range exp.All() {
		want = append(want, d.ID)
	}
	want = append(want, netsim.ScenarioNames()...)
	want = append(want, proto.ProtocolNames()...)
	want = append(want, workload.WorkloadNames()...)
	if len(ids) != len(want) {
		t.Fatalf("listing has %d entries, registries have %d:\n%s", len(ids), len(want), out)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("listing entry %d = %q, want %q (registry order)", i, ids[i], want[i])
		}
	}
	// The acceptance headline: the new baseline is in the catalog.
	if !strings.Contains(out, "gossip-pushpull") {
		t.Fatalf("listing does not mention gossip-pushpull:\n%s", out)
	}
}

// TestScenarioListingRunnable double-checks the other direction: every
// name the listing advertises resolves through the same lookups the
// flags use.
func TestScenarioListingRunnable(t *testing.T) {
	for _, d := range exp.All() {
		if _, ok := exp.Lookup(d.ID); !ok {
			t.Fatalf("listed experiment %q not resolvable", d.ID)
		}
	}
	for _, name := range netsim.ScenarioNames() {
		if _, ok := netsim.LookupScenario(name); !ok {
			t.Fatalf("listed scenario %q not resolvable", name)
		}
	}
	for _, name := range proto.ProtocolNames() {
		if _, ok := proto.LookupProtocol(name); !ok {
			t.Fatalf("listed protocol %q not resolvable", name)
		}
	}
	for _, name := range workload.WorkloadNames() {
		if _, ok := workload.LookupWorkload(name); !ok {
			t.Fatalf("listed workload %q not resolvable", name)
		}
	}
}

// TestSampleOnlyWithSweepsThatHonourIt pins -sample to the sweeps that
// record series (scenario, workload, and -fig all, which contains
// them): a figure family would ignore it and -series-out would write
// nothing, so that combination is usage error 2, like -proto's.
func TestSampleOnlyWithSweepsThatHonourIt(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dir := filepath.Join(t.TempDir(), "series")
	out, err := exec.Command(bin, "-fig", "fig16", "-sample", "5s", "-series-out", dir).CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("-fig fig16 -sample: err = %v, want exit 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "-sample applies to") {
		t.Fatalf("-fig fig16 -sample: no usage message:\n%s", out)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("rejected run touched %s (stat err %v)", dir, err)
	}

	out, err = exec.Command(bin, "-scenario", "campus", "-proto", "frugal", "-seeds", "1",
		"-sample", "5s", "-series-out", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("-scenario campus -sample: %v\n%s", err, out)
	}
	if csv, _ := filepath.Glob(filepath.Join(dir, "scenario-campus-frugal-seed1.csv")); len(csv) != 1 {
		t.Fatalf("-scenario campus -sample wrote no series:\n%s", out)
	}
}
