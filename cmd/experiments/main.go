// Command experiments regenerates the paper's figures and tables and
// runs the registry-backed scenario sweeps.
//
// Usage:
//
//	experiments -fig fig13               # one experiment, scaled-down
//	experiments -fig all -full -seeds 30 # paper-scale everything (hours)
//	experiments -scenario manhattan      # every protocol, one scenario
//	experiments -scenario manhattan -proto gossip-pushpull
//	experiments -proto gossip-pushpull   # one protocol, every scenario
//	experiments -fig workloads           # every workload generator
//	experiments -workload flash-crowd    # every protocol, one workload
//	experiments -parallel 8              # cap the worker pool (0 = NumCPU)
//	experiments -list
//
// Scaled-down runs preserve the paper's node density and parameter shapes
// while finishing in seconds to minutes; -full selects the paper's exact
// environment (150 nodes on 25 km^2, 600 s warm-up, 30 seeds).
//
// Sweep points fan out over a worker pool (one simulation per job); a
// netsim result is a pure function of (Scenario, Seed) and aggregation
// happens in sweep order, so the printed tables are byte-identical at
// any -parallel value.
//
// The experiment, scenario, protocol and workload catalogs are printed
// by -list, which is generated from the same registries the flags
// consult, so it cannot drift from what actually runs (a test enforces
// this).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/workload"
)

// listing renders the -list output from the experiment, scenario and
// protocol registries. Tests assert it covers all three exactly.
func listing() string {
	var b strings.Builder
	b.WriteString("experiments (-fig):\n")
	for _, d := range exp.All() {
		fmt.Fprintf(&b, "  %-15s %s\n", d.ID, d.Title)
	}
	b.WriteString("\nscenarios (-scenario, swept across every protocol):\n")
	for _, d := range netsim.Scenarios() {
		fmt.Fprintf(&b, "  %-15s %s (default sweep %s)\n", d.Name, d.Description, d.Runtime)
	}
	b.WriteString("\nprotocols (-proto, restricts the scenario and workload sweeps):\n")
	for _, d := range proto.Protocols() {
		fmt.Fprintf(&b, "  %-28s %s\n", d.Name, d.Description)
	}
	b.WriteString("\nworkloads (-workload, generators for scenario Workload specs):\n")
	for _, d := range workload.Workloads() {
		fmt.Fprintf(&b, "  %-12s %-8s %s\n", d.Name, d.Class, d.Description)
	}
	return b.String()
}

func main() {
	var (
		fig        = flag.String("fig", "", "experiment id (fig11..fig20, ablation, ext-*, scenarios, workloads) or 'all'")
		scenario   = flag.String("scenario", "", "registered scenario to sweep across the protocols (see -list)")
		wkld       = flag.String("workload", "", "registered workload generator to sweep across the protocols (see -list)")
		protoFlag  = flag.String("proto", "", "restrict the scenario/workload sweeps to one registered protocol (see -list)")
		full       = flag.Bool("full", false, "paper-scale parameters (slow)")
		seeds      = flag.Int("seeds", 0, "runs per sweep point (0 = experiment default)")
		parallel   = flag.Int("parallel", 0, "concurrent simulations (0 = NumCPU); tables are byte-identical at any value")
		list       = flag.Bool("list", false, "list experiments, scenarios and protocols, then exit")
		verbose    = flag.Bool("v", false, "print per-point progress")
		sample     = flag.Duration("sample", 0, "record a time-series point every period in the scenario/workload sweeps (0 = off); tables are byte-identical with sampling on or off")
		seriesOut  = flag.String("series-out", "", "write each sampled run's curve to this directory as <sweep>-<protocol>-seed<N>.csv (requires -sample)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the sweeps to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile after the sweeps to this file")
	)
	flag.Parse()

	if *list {
		fmt.Print(listing())
		return
	}
	selectors := 0
	for _, s := range []string{*fig, *scenario, *wkld} {
		if s != "" {
			selectors++
		}
	}
	if selectors > 1 {
		fmt.Fprintln(os.Stderr, "use one of -fig, -scenario or -workload, not several")
		os.Exit(2)
	}
	if *protoFlag != "" {
		if _, ok := proto.LookupProtocol(*protoFlag); !ok {
			fmt.Fprintf(os.Stderr, "unknown protocol %q; valid ids:\n\n%s", *protoFlag, listing())
			os.Exit(2)
		}
		if *fig != "" && *fig != "scenarios" && *fig != "workloads" {
			fmt.Fprintln(os.Stderr, "-proto applies to the scenario and workload sweeps; combine it with -scenario, -workload, -fig scenarios or -fig workloads")
			os.Exit(2)
		}
		if selectors == 0 {
			*fig = "scenarios"
		}
	}
	if *fig == "" && *scenario == "" && *wkld == "" {
		*fig = "all"
	}

	if *seriesOut != "" && *sample <= 0 {
		fmt.Fprintln(os.Stderr, "-series-out requires -sample")
		os.Exit(2)
	}
	if *sample > 0 && *fig != "" && *fig != "all" && *fig != "scenarios" && *fig != "workloads" {
		fmt.Fprintln(os.Stderr, "-sample applies to the scenario and workload sweeps; combine it with -scenario, -workload, -fig scenarios, -fig workloads or -fig all")
		os.Exit(2)
	}
	opts := exp.Options{
		Seeds: *seeds, Full: *full, Parallel: *parallel,
		Protocol: *protoFlag, Sample: *sample, SeriesDir: *seriesOut,
	}
	if *verbose {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, "  "+line) }
	}
	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var defs []exp.Definition
	switch {
	case *wkld != "":
		if _, ok := workload.LookupWorkload(*wkld); !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q; registered workloads:\n\n%s", *wkld, listing())
			os.Exit(2)
		}
		name := *wkld
		defs = []exp.Definition{{
			ID:    "workload-" + name,
			Title: "protocol sweep under workload " + name,
			Run:   func(o exp.Options) (*exp.Output, error) { return exp.WorkloadSweep(name, o) },
		}}
	case *scenario != "":
		if _, ok := netsim.LookupScenario(*scenario); !ok {
			fmt.Fprintf(os.Stderr, "unknown scenario %q; registered scenarios:\n\n%s", *scenario, listing())
			os.Exit(2)
		}
		name := *scenario
		defs = []exp.Definition{{
			ID:    "scenario-" + name,
			Title: "protocol sweep on scenario " + name,
			Run:   func(o exp.Options) (*exp.Output, error) { return exp.ScenarioSweep(name, o) },
		}}
	case *fig == "all":
		defs = exp.All()
	default:
		d, ok := exp.Lookup(*fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; valid ids:\n\n%s", *fig, listing())
			os.Exit(2)
		}
		defs = []exp.Definition{d}
	}

	for _, d := range defs {
		start := time.Now()
		fmt.Printf("== %s: %s\n", d.ID, d.Title)
		out, err := d.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", d.ID, err)
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Printf("(%s completed in %v)\n\n", d.ID, time.Since(start).Round(time.Millisecond))
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
