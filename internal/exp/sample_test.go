package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestGoldenSampleInvariance re-runs representative golden sweeps with
// sampling enabled: every rendered table must still match the on-disk
// golden produced without sampling — Scenario.Sample is observation-only
// all the way up through the sweep aggregation (the satellite
// determinism-under-observation contract, pinned against bytes).
func TestGoldenSampleInvariance(t *testing.T) {
	for _, name := range []string{"scenario-manhattan", "scenario-highway", "workloads"} {
		for _, c := range goldenCases() {
			if c.name != name {
				continue
			}
			t.Run(name+"-sampled", func(t *testing.T) {
				out, err := c.run(Options{Seeds: goldenSeeds, Sample: 2 * time.Second})
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, name, out.String())
			})
		}
	}
}

// TestSeriesDump pins the -sample/-series-out plumbing: a sampled
// scenario sweep writes one CSV curve per (protocol, seed) sweep point,
// and the workloads family one per (generator, seed).
func TestSeriesDump(t *testing.T) {
	dir := t.TempDir()
	o := Options{
		Seeds:     2,
		Protocol:  "frugal",
		Sample:    5 * time.Second,
		SeriesDir: dir,
	}
	if _, err := ScenarioSweep("manhattan", o); err != nil {
		t.Fatal(err)
	}
	for seed := 1; seed <= 2; seed++ {
		path := filepath.Join(dir, "scenario-manhattan-frugal-seed"+string(rune('0'+seed))+".csv")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing series dump: %v", err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) < 2 {
			t.Fatalf("%s has %d lines, want header + points", path, len(lines))
		}
		if !strings.HasPrefix(lines[0], "t_s,published,delivery_ratio") {
			t.Fatalf("%s header wrong: %s", path, lines[0])
		}
	}
	// Without SeriesDir nothing is written and nothing is sampled into
	// the table path — the same sweep still matches its golden above.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("dump dir has %d files, want 2", len(ents))
	}

	dir = t.TempDir()
	o = Options{Seeds: 1, Sample: 5 * time.Second, SeriesDir: dir}
	if _, err := Workloads(o); err != nil {
		t.Fatal(err)
	}
	generators := 0
	for _, def := range workload.Workloads() {
		if _, ok := workloadSpec(def); !ok {
			continue
		}
		generators++
		path := filepath.Join(dir, "workloads-"+def.Name+"-frugal-seed1.csv")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing series dump: %v", err)
		}
		if lines := strings.Split(strings.TrimSpace(string(data)), "\n"); len(lines) < 2 {
			t.Fatalf("%s has %d lines, want header + points", path, len(lines))
		}
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != generators {
		t.Fatalf("dump dir has %d files (err %v), want one per generator: %d", len(ents), err, generators)
	}
}
