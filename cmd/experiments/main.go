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
// # Experiment catalog (-fig)
//
// One experiment per figure/table of the paper's evaluation, plus
// ablations and extensions:
//
//	fig11..fig12   reliability on random waypoint (speeds, subscribers)
//	fig13..fig16   reliability on the city section (heartbeat bound,
//	               subscribers, publisher spread, validity)
//	fig17..fig20   frugality: bandwidth, copies, duplicates, parasites
//	ablation       design-choice ablations (back-off, suppression, id
//	               exchange, GC, adaptive heartbeat)
//	ext-shadowing  reliability under log-normal shadowing
//	ext-storm      frugal vs broadcast-storm schemes (Ni et al.)
//	scenarios      frugal vs baselines across every registered scenario
//	workloads      every registered workload generator on the reference
//	               waypoint environment
//	scale          metro city sweep 300→50k nodes, frugal vs gossip vs
//	               flood (minutes; -full reaches the 10k tier and, with
//	               -budget, the 25k/50k megacity tiers)
//
// # Protocol catalog (-proto)
//
// Protocols are registered by name in the internal/proto registry
// (each protocol package registers itself; see ARCHITECTURE.md "Adding
// a protocol"). The scenario sweeps run every registered protocol;
// -proto <name> restricts them to one. The built-ins:
//
//	frugal                        the paper's protocol: adaptive
//	                              heartbeats, id pre-exchange,
//	                              proportional back-off
//	simple-flooding               approach (1): rebroadcast everything
//	                              each period
//	interests-aware-flooding      approach (2): store/rebroadcast only
//	                              subscribed events
//	neighbors-interests-flooding  approach (3): one addressed copy per
//	                              interested neighbor
//	probabilistic-broadcast       Ni et al.: single-shot relay with
//	                              probability P
//	counter-based-broadcast       Ni et al.: single-shot relay unless C
//	                              copies were overheard
//	gossip-pushpull               push-pull rumor mongering: fanout-
//	                              bounded pushes + digest-driven pulls
//
// # Scenario catalog (-scenario)
//
// Scenarios are full declarative workloads registered with
// netsim.RegisterScenario; -scenario <name> sweeps one of them across
// every registered protocol. Each sweep finishes in about a second at
// the default 3 seeds. The built-ins:
//
//	campus           the paper's city section: 15 nodes on the synthetic
//	                 campus street grid, one 150 s event, frugal tuning
//	                 from Section 5.2
//	waypoint         the paper's random waypoint at reduced scale: 40
//	                 nodes at 10 m/s on 6.7 km^2 (6 nodes/km^2), 80%
//	                 subscribers, one 120 s event
//	manhattan        urban VANET: 40 vehicles on a 990x770 m Manhattan
//	                 grid with a deterministic city-wide traffic-light
//	                 schedule and avenue/side-street speed tiers, a
//	                 3-event burst of 120 s events, 100 m urban radio
//	                 range
//	manhattan-churn  manhattan plus churn: two vehicles crash mid-window
//	                 and one recovers with empty tables
//	highway          highway convoy: 32 vehicles in 4 platoon speed
//	                 tiers (24-32 m/s) on a 3.5 km bidirectional
//	                 corridor with on/off-ramps, two 90 s events
//	stadium          flash crowd on the campus grid: 40 pedestrians,
//	                 burst traffic generated by the flash-crowd workload
//	rush-hour        diurnal Zipf traffic on the Manhattan grid: 40
//	                 vehicles, a commute ramp over six skewed subtopics
//	                 generated by the diurnal workload
//	metro-5k         city-scale VANET (heavy): 5k vehicles on a 36x28
//	                 metro grid, diurnal Zipf traffic + churn waves —
//	                 excluded from the registry-wide sweeps, reach it
//	                 via -scenario or -fig scale
//	metro-10k        10k vehicles on a 50x39 metro grid (heavy; the
//	                 city grows with the roster at constant density)
//	metro-50k        megacity VANET: 50k vehicles on an 112x87 metro
//	                 grid (~115 km^2), diurnal Zipf traffic + churn
//	                 waves (heavy; hours — budget accordingly)
//
// # Workload catalog (-workload)
//
// Workload generators lazily synthesize traffic and dynamics from the
// run's seeded RNG (internal/workload registry; see ARCHITECTURE.md
// "Adding a workload"). -workload <name> sweeps one generator across
// every registered protocol on the reference waypoint environment;
// -fig workloads runs every generator. The built-ins:
//
//	poisson      memoryless arrivals at a constant mean rate
//	periodic     fixed-period arrivals with forward jitter
//	flash-crowd  low background rate with one high-rate burst window
//	diurnal      cosine rate ramp between quiet floor and rush peak
//	churn-nodes  waves of staggered node crashes with recovery
//	churn-subs   Poisson unsubscribe/resubscribe flips
//	explicit     replays a fixed pre-enumerated op schedule (util)
//	mix          merges several generators into one stream (util)
//
// The -list output is generated from the same registries the flags
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
		budget     = flag.Duration("budget", 0, "wall-clock budget for the scale family; required to reach its megacity tiers (e.g. -fig scale -full -budget 4h), 0 skips them")
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
	opts := exp.Options{
		Seeds: *seeds, Full: *full, Parallel: *parallel,
		Protocol: *protoFlag, Budget: *budget,
		Sample: *sample, SeriesDir: *seriesOut,
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
