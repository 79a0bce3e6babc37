package exp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/netsim"
)

// The golden-file suite pins every sweep's output table byte-for-byte:
// each case runs at a reduced scale (2 seeds, default environments) and
// must reproduce internal/exp/testdata/golden/<name>.golden exactly.
// This is the safety net under which the simulation core is allowed to
// be rewritten — a refactor that changes any table, even one float in
// one cell, fails here before it can silently skew the reproduction.
//
// Regenerate after an intentional output change with
//
//	go test ./internal/exp -run TestGolden -update
//
// and review the diff like any other code change.
var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// goldenSeeds is the reduced per-point seed count every golden case
// runs at: enough to exercise the seed loop and aggregation order,
// small enough to keep the suite in test-suite time.
const goldenSeeds = 2

type goldenCase struct {
	name string
	run  func(Options) (*Output, error)
}

// goldenCases enumerates the pinned sweeps: every figure experiment,
// the ablations, the extensions, the workloads family and one
// frugal-vs-baselines sweep per registered (non-heavy) scenario.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, d := range All() {
		switch d.ID {
		case "scenarios":
			// Covered per scenario below, so a failure names the
			// scenario instead of the whole family.
			continue
		}
		cases = append(cases, goldenCase{name: d.ID, run: d.Run})
	}
	for _, def := range netsim.Scenarios() {
		if def.Heavy {
			continue
		}
		name := def.Name
		cases = append(cases, goldenCase{
			name: "scenario-" + name,
			run:  func(o Options) (*Output, error) { return ScenarioSweep(name, o) },
		})
	}
	return cases
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".golden")
}

// checkGolden compares got with the named golden file, rewriting the
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := goldenPath(name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s (run with -update after an intentional change)\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// TestGolden runs every pinned sweep at the reduced golden scale and
// diffs its rendered tables byte-for-byte against testdata/golden.
func TestGolden(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			out, err := c.run(Options{Seeds: goldenSeeds})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, c.name, out.String())
		})
	}
}

// TestGoldenParallelInvariance re-runs a representative slice of the
// golden cases through a multi-worker pool: the tables must match the
// same golden files produced at any other parallelism (the runJobs
// determinism contract, now pinned against on-disk bytes rather than
// only against a same-process second run).
func TestGoldenParallelInvariance(t *testing.T) {
	for _, name := range []string{"fig13", "scenario-manhattan", "scenario-stadium"} {
		for _, c := range goldenCases() {
			if c.name != name {
				continue
			}
			t.Run(fmt.Sprintf("%s-parallel4", name), func(t *testing.T) {
				out, err := c.run(Options{Seeds: goldenSeeds, Parallel: 4})
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, name, out.String())
			})
		}
	}
}
