package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/exp"
)

// paper-figs regenerates what a user reproducing the paper runs: every
// exp.All() family except the two city-sized ones, at the golden scale
// (2 seeds per point) on the runJobs pool with one worker per CPU. That
// is hundreds of 15 to 150-node simulations per pass: build and
// teardown, small-roster MAC paths and small neighbourhoods dominate, so
// a change tuned for cities that taxes villages shows here. Every table
// must equal its golden byte for byte.
//
// The tables are pinned, so --seed cannot change them; it shuffles the
// order the families run in.

// figsSeeds is the per-point seed count the goldens were recorded at.
const figsSeeds = 2

// warmFamily is the family set-up runs once before timing: it is short
// and goes through the scenario builders, the runJobs pool and the
// frugal core, so first-use costs land in setup_s, not in the first pass.
const warmFamily = "ablation"

type figFamily struct {
	def    exp.Definition
	golden string
}

func figFamilies(root string) ([]figFamily, error) {
	var out []figFamily
	for _, d := range exp.All() {
		if d.ID == "scale" || d.ID == "scenarios" {
			continue // city-sized sweeps: minutes per table
		}
		raw, err := os.ReadFile(goldenPath(root, d.ID))
		if err != nil {
			return nil, fmt.Errorf("paper-figs: %w", err)
		}
		out = append(out, figFamily{def: d, golden: string(raw)})
	}
	return out, nil
}

// figSample is one timed run of one family.
type figSample struct {
	wall float64
	sims int // simulations the run executed; 0 means it was served from exp's memo
}

// runFamily regenerates one family's tables and checks them. It counts
// the simulations through Options.Progress because exp memoizes the
// sweep behind fig17 to fig20 per process: from the second pass on those
// four render from memory, and such a run says nothing about speed.
func runFamily(f figFamily, parallel int, quick bool, o *outcome) (figSample, error) {
	var s figSample
	opts := exp.Options{Seeds: figsSeeds, Parallel: parallel, Progress: func(line string) {
		if strings.HasSuffix(line, "simulations done") {
			s.sims++
		}
	}}
	if quick {
		opts.Seeds = 1
	}
	t0 := time.Now()
	out, err := f.def.Run(opts)
	if err != nil {
		return s, fmt.Errorf("paper-figs: %s: %w", f.def.ID, err)
	}
	s.wall = time.Since(t0).Seconds()
	if quick {
		o.check(len(out.Tables) > 0, "paper-figs: %s produced no table", f.def.ID)
	} else {
		o.check(out.String() == f.golden, "paper-figs: %s differs from its golden", f.def.ID)
	}
	return s, nil
}

func runFigs(c runCfg) (*outcome, error) {
	o := newOutcome()
	var families []figFamily
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if families, err = figFamilies(c.root); err != nil {
			return nil, err
		}
		for _, f := range families {
			if f.def.ID == warmFamily {
				if _, err := runFamily(f, runtime.NumCPU(), c.quick, o); err != nil {
					return nil, err
				}
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if c.quick {
		families = quickFamilies(families)
	}
	rand.New(rand.NewSource(c.seed)).Shuffle(len(families), func(i, j int) {
		families[i], families[j] = families[j], families[i]
	})

	samples := map[string][]float64{} // per family: walls of the runs that simulated
	pass := func(parallel int) error {
		for _, f := range families {
			s, err := runFamily(f, parallel, c.quick, o)
			if err != nil {
				return err
			}
			if s.sims > 0 || len(samples[f.def.ID]) == 0 {
				samples[f.def.ID] = append(samples[f.def.ID], s.wall)
			}
		}
		return nil
	}
	if c.trace {
		return o, figsTraced(c, o, families, samples, pass)
	}

	w := startWindow()
	passes, err := repeatUnits(c.seconds, 2, func(int) error { return pass(runtime.NumCPU()) })
	if err != nil {
		return nil, err
	}
	busy := w.cpu() / sumOf(passes) // CPU-seconds per wall-second while sweeping
	// Per family, the fastest run is what the code costs and the median
	// run shows what a shared host added (see runSim); a pass is their sum.
	sweep, typical := 0.0, 0.0
	for _, walls := range samples {
		sweep += minOf(walls)
		typical += median(walls)
	}
	o.note("paper-figs: %d passes over %d families, %d workers", len(passes), len(families), runtime.NumCPU())
	o.metrics["setup_s"] = median(setups)
	o.metrics["unit_wall_ms"] = sweep * 1e3
	o.metrics["unit_wall_tail_ms"] = typical * 1e3
	o.metrics["unit_cpu_ms"] = sweep * busy * 1e3
	o.metrics["peak_rss_mb"] = peakRSSMB()
	return o, nil
}

// quickFamilies keeps the three cheapest families for `go test`.
func quickFamilies(all []figFamily) []figFamily {
	var out []figFamily
	for _, f := range all {
		switch f.def.ID {
		case "fig13", "ablation", "ext-storm":
			out = append(out, f)
		}
	}
	return out
}

// figsTraced is the per-layer run: one pass timed family by family, the
// serial-over-parallel ratio of the largest family, and the workload
// generator kernel.
func figsTraced(c runCfg, o *outcome, families []figFamily, samples map[string][]float64, pass func(int) error) error {
	m := o.metrics
	mem0 := readMem()
	if err := pass(runtime.NumCPU()); err != nil {
		return err
	}
	mem1 := readMem()
	for id, walls := range samples {
		m["exp."+id+"_s"] = walls[0]
	}
	m["exp.alloc_mb_per_pass"] = mb(mem1.totalAlloc - mem0.totalAlloc)
	m["runtime.gc_cpu_ratio"] = mem1.gcFraction

	// fig11 is the largest family and is not memoized, so running it
	// again at one worker measures what the pool buys.
	for _, f := range families {
		if f.def.ID != "fig11" {
			continue
		}
		serial, err := runFamily(f, 1, c.quick, o)
		if err != nil {
			return err
		}
		m["exp.parallel_speedup"] = serial.wall / samples["fig11"][0]
	}
	workloadKernel(c, o)
	return nil
}
