package main

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/netsim"
)

func testSpec(t *testing.T) (*spec, string) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return sp, root
}

// BENCHMARK.json and the program must name the same workloads; metric
// names are checked by TestQuickPass, which fails on any metric a
// workload measures that the file does not list.
func TestSpecNamesWorkloadsWithCode(t *testing.T) {
	sp, _ := testSpec(t)
	listed := map[string]bool{}
	for _, w := range sp.Workloads {
		listed[w.Name] = true
		if _, ok := runners[w.Name]; !ok {
			t.Errorf("%s lists workload %q, which has no code", specFile, w.Name)
		}
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	for name := range runners {
		if !listed[name] {
			t.Errorf("workload %q has code but is not listed in %s", name, specFile)
		}
	}
	if n := 4 + 22*len(sp.Workloads); n*(sp.RunSeconds+8) > 3420 {
		t.Errorf("%d runs of about %d s do not fit the 3420 s budget", n, sp.RunSeconds+8)
	}
}

// One shrunk run of every workload, untraced and traced: every metric
// BENCHMARK.json lists for that kind of run is emitted exactly once,
// finite, with its unit; end-to-end metrics are positive; outputs check
// out. The numbers themselves mean nothing at this size.
func TestQuickPass(t *testing.T) {
	sp, root := testSpec(t)
	measured := map[string]bool{}
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := runCfg{root: root, outDir: t.TempDir(), seed: 1, seconds: 1, trace: traced, quick: true}
			var log bytes.Buffer
			res, err := runOne(sp, w.Name, cfg, &log)
			if err != nil {
				t.Fatalf("%s (trace %v): %v\n%s", w.Name, traced, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed\n%s", w.Name, traced, res.Correct, res.Failed, res.Attempted, log.String())
			}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics emitted, %d listed", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, def := range want {
				got, ok := res.Metrics[def.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): metric %s not emitted", w.Name, traced, def.Name)
				case got.Unit != def.Unit:
					t.Errorf("%s: metric %s has unit %q, listed as %q", w.Name, def.Name, got.Unit, def.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s is %v", w.Name, def.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v", w.Name, def.Name, got.Value)
				}
				if got.Value != 0 {
					measured[def.Name] = true
				}
			}
		}
	}
	// A listed metric that no workload ever measures is a dead name.
	// Quick runs skip the two-tile run and the serial fig11 run.
	skipped := map[string]bool{"netsim.tiles2_wall_ratio": true, "exp.parallel_speedup": true}
	for _, def := range append(append([]metricDef(nil), sp.EndToEnd...), sp.PerLayer...) {
		zeroOK := strings.HasSuffix(def.Name, "_drops") || strings.HasSuffix(def.Name, "_errors") ||
			strings.HasSuffix(def.Name, "depth_p99") || def.Name == "mac.queue_drops"
		quickOnly := skipped[def.Name] || (strings.HasPrefix(def.Name, "exp.") && strings.HasSuffix(def.Name, "_s"))
		if !measured[def.Name] && !zeroOK && !quickOnly {
			t.Errorf("metric %s is listed but no workload measured it", def.Name)
		}
	}
}

// Both wrapper protocols must leave a run bit for bit as it was.
func TestTracedRunKeepsTheFingerprint(t *testing.T) {
	for _, s := range []simSpec{metroSlice, metroFlood5k} {
		sc, err := s.build(true)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := netsim.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		tr := newSimTracer(s.layer)
		activeSimTracer = tr
		sc.Protocol.Name = tracedPrefix + sc.Protocol.String()
		traced, err := netsim.Run(sc)
		activeSimTracer = nil
		if err != nil {
			t.Fatal(err)
		}
		if plain.Fingerprint() != traced.Fingerprint() {
			t.Errorf("%s: traced fingerprint %s, untraced %s", s.name, traced.Fingerprint(), plain.Fingerprint())
		}
		tab := tr.table()
		handle := tab.Agg[s.layer+".handle"]
		if handle.Calls == 0 || handle.SelfNS <= 0 || handle.SelfNS > handle.TotalNS {
			t.Errorf("%s: handler spans %+v", s.name, handle)
		}
		if len(tr.stack) != 0 {
			t.Errorf("%s: %d spans left open", s.name, len(tr.stack))
		}
		if len(tab.Raw) == 0 || len(tab.Raw) > int(tr.next)/rawEvery+1 {
			t.Errorf("%s: %d raw spans sampled from %d", s.name, len(tab.Raw), tr.next)
		}
	}
}

// The golden comparison must read the repository's files and must fail
// on a table that differs.
func TestGoldenComparisonWiring(t *testing.T) {
	_, root := testSpec(t)
	families, err := figFamilies(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(families) != 14 {
		t.Errorf("%d families, want the 14 of the paper-figs workload", len(families))
	}
	for _, f := range families {
		if f.golden == "" {
			t.Errorf("%s: empty golden", f.def.ID)
		}
		if f.def.ID != "ext-storm" {
			continue
		}
		good := newOutcome()
		if _, err := runFamily(f, 2, false, good); err != nil {
			t.Fatal(err)
		}
		if !good.correct() || good.attempted != 1 {
			t.Errorf("ext-storm against its golden: %+v", good)
		}
		f.golden += " "
		bad := newOutcome()
		if _, err := runFamily(f, 2, false, bad); err != nil {
			t.Fatal(err)
		}
		if bad.correct() || bad.failed != 1 {
			t.Errorf("ext-storm against a wrong golden passed: %+v", bad)
		}
	}
	if metroSlice.golden == "" {
		t.Fatal("metro-slice must be checked against the repository's fingerprint golden")
	}
	cfg := runCfg{root: root, seed: 1, seconds: 0.1, quick: true}
	if _, err := runOne(&spec{Workloads: []workloadDef{{Name: "nope"}}}, "nope", cfg, io.Discard); err == nil {
		t.Error("a listed workload without code must be an error")
	}
}
