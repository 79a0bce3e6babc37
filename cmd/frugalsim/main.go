// Command frugalsim runs a single dissemination scenario and prints its
// measurements: reliability, per-process traffic, duplicates and
// parasites.
//
// Scenarios come in two flavors: ad-hoc ones assembled from flags, and
// registered ones from the netsim scenario registry (the same catalog
// cmd/experiments -list enumerates).
//
// Examples:
//
//	frugalsim -nodes 50 -mobility rwp -speed 10 -subscribers 0.8 \
//	          -events 3 -validity 120s
//	frugalsim -mobility city -nodes 15 -range 44 -protocol frugal
//	frugalsim -mobility manhattan -nodes 40 -range 100
//	frugalsim -mobility highway -nodes 32 -range 250
//	frugalsim -protocol simple-flooding -events 5
//	frugalsim -protocol gossip-pushpull -events 5
//	frugalsim -scenario manhattan -seed 3        # registered scenario
//	frugalsim -scenario highway -protocol counter-based-broadcast
//	frugalsim -scenario stadium                  # generated flash crowd
//	frugalsim -workload poisson -events 0        # generated traffic only
//	frugalsim -workload churn-nodes -events 3    # churn under traffic
//	frugalsim -scenario metro-slice -sample 5s -series-out curve.csv
//	frugalsim -scenario metro-5k -cpuprofile cpu.pprof
//
// -sample records a deterministic per-window time-series during the run
// (delivery ratio, in-flight transmissions, protocol/MAC counter
// deltas); it never changes the measured result — fingerprints are
// byte-identical with sampling on or off. -series-out writes the curve
// (.json = JSON, else CSV). -cpuprofile/-memprofile capture pprof
// profiles of the run itself.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/geo"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// pubSpacing is the gap between the ad-hoc scenario's -events
// publications.
const pubSpacing = 500 * time.Millisecond

// writeSeries dumps a sampled run's curve; the extension picks the
// encoder (.json = JSON document, anything else = CSV).
func writeSeries(path string, s *netsim.Series) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = s.WriteJSON(f)
	} else {
		err = s.WriteCSV(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func main() {
	var (
		scenario = flag.String("scenario", "",
			"registered scenario name (overrides the ad-hoc flags; see 'experiments -list')")
		protocol = flag.String("protocol", "frugal",
			"registered protocol name (frugal, the flooding/storm baselines, gossip-pushpull; see 'experiments -list')")
		wkld = flag.String("workload", "",
			"registered workload generator merged into the ad-hoc scenario (poisson, flash-crowd, churn-nodes, ...; see 'experiments -list')")
		nodes     = flag.Int("nodes", 50, "number of processes")
		mobility  = flag.String("mobility", "rwp", "rwp | city | manhattan | highway | static")
		side      = flag.Float64("side", 2887, "square area side in meters (rwp/static)")
		speedMin  = flag.Float64("speed-min", 0, "min speed m/s (rwp; 0 = same as -speed)")
		speed     = flag.Float64("speed", 10, "max speed m/s (rwp)")
		radio     = flag.Float64("range", 339, "radio range in meters")
		subs      = flag.Float64("subscribers", 0.8, "fraction subscribed to the event topic")
		events    = flag.Int("events", 1, "events to publish")
		validity  = flag.Duration("validity", 120*time.Second, "event validity period")
		warmup    = flag.Duration("warmup", 60*time.Second, "warm-up before measurement")
		hbUpper   = flag.Duration("hb-upper", time.Second, "heartbeat upper bound (0 = none)")
		seed      = flag.Int64("seed", 1, "simulation seed")
		showTrace = flag.Int("trace", 0, "print the last N timeline records (0 = off)")
		timeline  = flag.Bool("timeline", false, "print per-event coverage over time")
		sample    = flag.Duration("sample", 0,
			"record a time-series point every period (0 = off); sampling never changes results")
		seriesOut = flag.String("series-out", "",
			"write the sampled time-series to this file (.json = JSON, otherwise CSV; requires -sample)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile after the run to this file")
	)
	flag.Parse()
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	// Unknown registry ids (protocol, scenario, workload) all behave the
	// same way: print the matching catalog and exit 1. Structural flag
	// misuse keeps the conventional exit 2.
	spec, ok := netsim.ParseProtocol(*protocol)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown protocol %q; registered protocols:\n", *protocol)
		for _, name := range netsim.ProtocolNames() {
			fmt.Fprintf(os.Stderr, "  %s\n", name)
		}
		os.Exit(1)
	}

	var sc netsim.Scenario
	if *scenario != "" {
		// The template fixes the environment and workload; only the
		// protocol under test, the seed and the output flags remain
		// meaningful. Reject the rest instead of silently ignoring it.
		compatible := map[string]bool{
			"scenario": true, "protocol": true, "seed": true,
			"trace": true, "timeline": true,
			"sample": true, "series-out": true,
			"cpuprofile": true, "memprofile": true,
		}
		for name := range explicit {
			if !compatible[name] {
				fmt.Fprintf(os.Stderr,
					"-%s has no effect with -scenario (the registered template fixes it); drop the flag or build an ad-hoc scenario without -scenario\n",
					name)
				os.Exit(2)
			}
		}
		def, ok := netsim.LookupScenario(*scenario)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown scenario %q; registered scenarios:\n", *scenario)
			for _, d := range netsim.Scenarios() {
				fmt.Fprintf(os.Stderr, "  %-15s %s\n", d.Name, d.Description)
			}
			os.Exit(1)
		}
		sc = def.Instantiate(*seed)
		if explicit["protocol"] && spec.String() != sc.Protocol.String() {
			// Switching protocol on a template: the template's tuning
			// belongs to its own protocol, so the substitute runs with
			// its registered defaults.
			sc.Protocol = spec
		}
	} else {
		if spec.String() == "frugal" {
			// The ad-hoc frugal scenario exposes the heartbeat bound.
			spec = netsim.FrugalSpec(netsim.CoreTuning{
				HBUpperBound: *hbUpper,
				UseSpeed:     true,
			})
		}
		sc = netsim.Scenario{
			Name:               "frugalsim",
			Nodes:              *nodes,
			Seed:               *seed,
			Protocol:           spec,
			MAC:                mac.DefaultConfig(*radio),
			SubscriberFraction: *subs,
			Warmup:             *warmup,
			// The last publication goes out (events-1) spacings in;
			// its validity must end inside the window, or it is
			// censored.
			Measure: *validity + 5*time.Second + time.Duration(max(*events-1, 0))*pubSpacing,
		}
		switch *mobility {
		case "rwp":
			lo := *speedMin
			if lo == 0 {
				lo = *speed
			}
			sc.Mobility = netsim.MobilitySpec{
				Kind:     netsim.RandomWaypoint,
				Area:     geo.NewRect(*side, *side),
				MinSpeed: lo,
				MaxSpeed: *speed,
			}
		case "static":
			sc.Mobility = netsim.MobilitySpec{
				Kind: netsim.StaticNodes,
				Area: geo.NewRect(*side, *side),
			}
		case "city":
			sc.Mobility = netsim.MobilitySpec{Kind: netsim.CitySection}
		case "manhattan":
			sc.Mobility = netsim.MobilitySpec{
				Kind:        netsim.ManhattanGrid,
				LightCycle:  30 * time.Second,
				RedFraction: 0.4,
			}
		case "highway":
			sc.Mobility = netsim.MobilitySpec{Kind: netsim.HighwayConvoy}
		default:
			fmt.Fprintf(os.Stderr, "unknown mobility %q\n", *mobility)
			os.Exit(2)
		}
		for i := 0; i < *events; i++ {
			sc.Schedule = append(sc.Schedule, workload.Op{
				At:       sc.Warmup + time.Duration(i)*pubSpacing,
				Kind:     workload.Publish,
				Node:     -1,
				Validity: *validity,
			})
		}
		if *wkld != "" {
			if _, ok := workload.LookupWorkload(*wkld); !ok {
				fmt.Fprintf(os.Stderr, "unknown workload %q; registered workloads:\n", *wkld)
				for _, d := range workload.Workloads() {
					fmt.Fprintf(os.Stderr, "  %-12s %s\n", d.Name, d.Description)
				}
				os.Exit(1)
			}
			sc.Workload = netsim.WorkloadSpec{Name: *wkld}
		}
	}
	sc.Sample = *sample
	if *seriesOut != "" && *sample <= 0 {
		fmt.Fprintln(os.Stderr, "-series-out requires -sample")
		os.Exit(2)
	}
	if *showTrace > 0 {
		sc.Trace = trace.NewRing(*showTrace)
	}
	if *timeline {
		// CoverageAt replays the full delivery record list; the runner
		// only keeps it on request.
		sc.DeliveryLog = true
	}

	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	start := time.Now()
	res, err := netsim.Run(sc)
	if perr := stopProfiles(); perr != nil {
		fmt.Fprintln(os.Stderr, perr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *seriesOut != "" {
		if err := writeSeries(*seriesOut, res.Series); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	workloadNote := ""
	if !sc.Workload.IsZero() {
		workloadNote = fmt.Sprintf(" + %v workload", sc.Workload)
	}
	scheduled := 0
	for _, op := range sc.Schedule {
		if op.Kind == workload.Publish {
			scheduled++
		}
	}
	fmt.Printf("scenario: %s — %d nodes, %v mobility, %v, %.0f%% subscribers, %d event(s)%s\n",
		sc.Name, sc.Nodes, sc.Mobility.Kind, sc.Protocol,
		sc.SubscriberFraction*100, scheduled, workloadNote)
	fmt.Printf("simulated %v (wall %v)\n", sc.Warmup+sc.Measure, time.Since(start).Round(time.Millisecond))
	if s := res.Series; s != nil {
		note := ""
		if *seriesOut != "" {
			note = " -> " + *seriesOut
		}
		fmt.Printf("sampled %d time-series points every %v%s\n", len(s.Points), s.Period, note)
	}
	fmt.Println()

	tb := metrics.NewTable("per-process averages over the measurement window",
		"metric", "value")
	tb.AddRow("reliability", metrics.Pct(res.Reliability()))
	tb.AddRow("bandwidth (app bytes)", metrics.KB(res.AppBytesPerProcess()))
	tb.AddRow("event copies sent", metrics.F1(res.EventsSentPerProcess()))
	tb.AddRow("duplicates received", metrics.F1(res.DuplicatesPerProcess()))
	tb.AddRow("parasites received", metrics.F1(res.ParasitesPerProcess()))
	tb.AddRow("MAC frames lost (total)", fmt.Sprintf("%d", res.FramesLostTotal()))
	fmt.Println(tb)

	for _, o := range res.Outcomes {
		fmt.Printf("event %s by %v: delivered to %d/%d subscribers in time (%.1f%%)\n",
			o.ID.String()[:8], o.Publisher, o.DeliveredInTime, o.Eligible, 100*o.Reliability())
	}

	censored := 0
	for _, o := range res.Outcomes {
		if o.Censored {
			censored++
		}
	}
	if censored > 0 {
		fmt.Fprintf(os.Stderr, "%d of %d events censored: the run ends before their validity does, so their reliability is a lower bound\n",
			censored, len(res.Outcomes))
	}

	if *timeline {
		fmt.Println("\ncoverage over time:")
		for _, o := range res.Outcomes {
			fmt.Printf("event %s:", o.ID.String()[:8])
			for frac := 0.0; frac <= 1.0; frac += 0.125 {
				at := o.At.Add(time.Duration(frac * float64(o.Validity)))
				fmt.Printf("  %.0f%%@%ds", 100*res.CoverageAt(o.ID, at),
					int(frac*o.Validity.Seconds()))
			}
			fmt.Println()
		}
	}

	if sc.Trace != nil {
		fmt.Printf("\nlast %d timeline records:\n", min(sc.Trace.Total(), uint64(*showTrace)))
		if err := sc.Trace.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
}
