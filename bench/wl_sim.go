package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/flood"
	"repro/internal/mobility"
	"repro/internal/netsim"
)

// The two simulator workloads run one city each and differ in the layer
// that does the work: metro-slice is the registered 600-vehicle district
// under the frugal protocol, where internal/core's handlers are about
// two thirds of the wall time; metro-flood-5k is the same city family at
// 5000 vehicles under simple flooding, where core does nothing and the
// MAC, mobility, geo and engine layers carry the run.
//
// Both cities are pinned at scenario seed 1. A city's cost depends on
// the traffic and street positions its seed draws (metro-slice takes
// 2.7 to 4.9 s over seeds 1 to 8 on one host), which would swamp any
// bound, and seed 1 is the seed the repository's own fingerprint golden
// was recorded at, so every run of metro-slice is checked against it.

const citySeed = 1

type simSpec struct {
	name   string
	layer  string // span prefix of the protocol under test
	golden string // repository fingerprint golden for citySeed, if one exists
	tiles2 bool   // also run once at Tiles: 2 in the traced run
	// build is the workload's set-up: a fresh, runnable scenario.
	build func(quick bool) (netsim.Scenario, error)
	// kernels are the substrate kernels reported with this workload's
	// traced run (the layers that carry it).
	kernels func(c runCfg, o *outcome)
}

var metroSlice = simSpec{
	name:   "metro-slice",
	layer:  "core",
	golden: "metro-slice-fingerprint",
	tiles2: true,
	build: func(quick bool) (netsim.Scenario, error) {
		def, ok := netsim.LookupScenario("metro-slice")
		if !ok {
			return netsim.Scenario{}, fmt.Errorf("scenario metro-slice not registered")
		}
		sc := def.Instantiate(citySeed)
		sc.Tiles = 1
		if quick {
			sc.Nodes, sc.Warmup, sc.Measure = 150, 2*time.Second, 6*time.Second
		}
		return sc, nil
	},
	kernels: coreMetroKernels,
}

var metroFlood5k = simSpec{
	name:  "metro-flood-5k",
	layer: "flood",
	build: func(quick bool) (netsim.Scenario, error) {
		def, ok := netsim.LookupScenario("metro-5k")
		if !ok {
			return netsim.Scenario{}, fmt.Errorf("scenario metro-5k not registered")
		}
		sc := def.Instantiate(citySeed)
		sc.Tiles = 1
		sc.Protocol = netsim.ProtocolSpec{Name: flood.SimpleName}
		// The shortened window exp.Scale sweeps by default: half the
		// run time buys twice the repeats, and repeats are what steadies
		// a number on a shared host.
		sc.Warmup, sc.Measure = 5*time.Second, 30*time.Second
		if quick {
			// Long enough for the diurnal traffic to publish something:
			// without an event, flooding sends nothing at all.
			sc.Nodes, sc.Warmup, sc.Measure = 300, 2*time.Second, 40*time.Second
		}
		// A fresh street graph per set-up, as exp.Scale builds it: the
		// graph carries the route cache, so sharing the registry's would
		// hide the routing cost of every run but the first.
		cols, rows := netsim.MetroGraphDims(sc.Nodes)
		sc.Mobility.Graph = mobility.NewManhattanStyleGraph(cols, rows)
		return sc, nil
	},
	kernels: substrateKernels,
}

// setUp builds the scenario and runs it for one nanosecond of simulated
// time, which builds mobility models, the medium, the spatial grids and
// every protocol instance and then stops: everything a run pays before
// its first event.
func (s simSpec) setUp(quick bool) (netsim.Scenario, float64, error) {
	t0 := time.Now()
	sc, err := s.build(quick)
	if err != nil {
		return sc, 0, err
	}
	probe := sc
	probe.Warmup, probe.Measure = 0, time.Nanosecond
	if _, err := netsim.Run(probe); err != nil {
		return sc, 0, fmt.Errorf("%s build-only run: %w", s.name, err)
	}
	return sc, time.Since(t0).Seconds(), nil
}

func simSeconds(sc netsim.Scenario) float64 { return (sc.Warmup + sc.Measure).Seconds() }

func runSim(s simSpec, c runCfg) (*outcome, error) {
	o := newOutcome()
	var sc netsim.Scenario
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		var took float64
		var err error
		if sc, took, err = s.setUp(c.quick); err != nil {
			return nil, err
		}
		setups = append(setups, took)
	}
	want := ""
	if s.golden != "" && !c.quick {
		raw, err := os.ReadFile(goldenPath(c.root, s.golden))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		want = strings.TrimSpace(string(raw))
	}
	checkFingerprint := func(what, got, first string) {
		switch {
		case want != "":
			o.check(got == want, "%s: %s fingerprint %s, golden %s says %s", s.name, what, got, s.golden, want)
		default:
			o.check(got == first, "%s: %s fingerprint %s differs from the first run's %s", s.name, what, got, first)
		}
	}
	if c.trace {
		return o, s.traced(c, o, sc, checkFingerprint)
	}

	// The same deterministic run, repeated. On a shared host
	// interference only ever adds time (cache and memory contention from
	// neighbours moves a 3 s run by +-10% second to second), so the
	// fastest repeat is the steadiest estimate of what the code costs and
	// the median repeat shows what the host added.
	first := ""
	var cpus []float64
	walls, err := repeatUnits(c.seconds, 2, func(int) error {
		cpu0 := cpuSeconds()
		res, err := netsim.Run(sc)
		if err != nil {
			return err
		}
		cpus = append(cpus, cpuSeconds()-cpu0)
		fp := res.Fingerprint()
		if first == "" {
			first = fp
		}
		checkFingerprint("untraced run", fp, first)
		return nil
	})
	if err != nil {
		return nil, err
	}
	simS := simSeconds(sc)
	o.note("%s: %d runs of %.0f simulated seconds, city seed %d", s.name, len(walls), simS, citySeed)
	o.metrics["setup_s"] = median(setups)
	o.metrics["unit_wall_ms"] = minOf(walls) / simS * 1e3
	o.metrics["unit_wall_tail_ms"] = median(walls) / simS * 1e3
	o.metrics["unit_cpu_ms"] = minOf(cpus) / simS * 1e3
	o.metrics["peak_rss_mb"] = peakRSSMB()
	return o, nil
}

// traced is the per-layer run: one untraced run for the exact counts
// and the overhead base, one run under the span wrappers, optionally one
// at two tiles, then the substrate kernels.
func (s simSpec) traced(c runCfg, o *outcome, sc netsim.Scenario, checkFingerprint func(what, got, first string)) error {
	m := o.metrics
	simS := simSeconds(sc)

	mem0 := readMem()
	t0 := time.Now()
	plain, err := netsim.Run(sc)
	if err != nil {
		return err
	}
	plainWall := time.Since(t0).Seconds()
	mem1 := readMem()
	first := plain.Fingerprint()
	checkFingerprint("untraced run", first, first)

	tr := newSimTracer(s.layer)
	activeSimTracer = tr
	tsc := sc
	tsc.Protocol.Name = tracedPrefix + sc.Protocol.String()
	t0 = time.Now()
	res, err := netsim.Run(tsc)
	tracedWall := time.Since(t0).Seconds()
	activeSimTracer = nil
	if err != nil {
		return err
	}
	checkFingerprint("traced run", res.Fingerprint(), first)
	tab := tr.table()
	if err := tab.write(spansPath(c, s.name)); err != nil {
		return err
	}

	handle, timer := tab.Agg[s.layer+".handle"], tab.Agg[s.layer+".timer"]
	bcast, speed := tab.Agg["mac.broadcast"], tab.Agg["mobility.speed"]
	m[s.layer+".handle_self_s"] = handle.selfSeconds()
	m[s.layer+".handle_calls"] = float64(handle.Calls)
	m[s.layer+".timer_self_s"] = timer.selfSeconds()
	if s.layer == "core" {
		m["core.handle_ns_per_call"] = handle.perCall(1)
		m["core.timer_calls"] = float64(timer.Calls)
	}
	m["mac.broadcast_s"] = bcast.totalSeconds()
	m["mac.broadcast_calls"] = float64(bcast.Calls)
	m["mobility.speed_s"] = speed.totalSeconds()
	m["mobility.speed_calls"] = float64(speed.Calls)
	inProtocol := 0.0
	for _, a := range tab.Agg {
		inProtocol += a.selfSeconds()
	}
	m["netsim.traced_wall_s"] = tracedWall
	m["netsim.rest_s"] = tracedWall - inProtocol
	m["netsim.trace_overhead_ratio"] = tracedWall / plainWall

	if s.tiles2 && !c.quick {
		t2 := sc
		t2.Tiles = 2
		t0 = time.Now()
		tres, err := netsim.Run(t2)
		if err != nil {
			return err
		}
		m["netsim.tiles2_wall_ratio"] = time.Since(t0).Seconds() / plainWall
		checkFingerprint("two-tile run", tres.Fingerprint(), first)
	}

	exactCounts(s.layer, plain, m)
	m["netsim.alloc_mb_per_sim_s"] = mb(mem1.totalAlloc-mem0.totalAlloc) / simS
	if sent := m["mac.frames_sent"]; sent > 0 {
		m["netsim.mallocs_per_frame"] = float64(mem1.mallocs-mem0.mallocs) / sent
	}
	m["runtime.gc_cpu_ratio"] = mem1.gcFraction
	s.kernels(c, o)
	return nil
}

// exactCounts copies the counters a netsim.Result repeats bit for bit
// per seed, so two commits can be compared exactly on them.
func exactCounts(layer string, res *netsim.Result, m metricSet) {
	var sent, recv, lost, defers, drops float64
	var hb, idl, evm, dups, para, evr, delivered float64
	for _, n := range res.Nodes {
		sent += float64(n.MAC.FramesSent)
		recv += float64(n.MAC.FramesReceived)
		lost += float64(n.MAC.FramesLost)
		defers += float64(n.MAC.Defers)
		drops += float64(n.MAC.QueueDrops)
		hb += float64(n.Proto.HeartbeatsSent)
		idl += float64(n.Proto.IDListsSent)
		evm += float64(n.Proto.EventMsgsSent)
		dups += float64(n.Proto.Duplicates)
		para += float64(n.Proto.Parasites)
		evr += float64(n.Proto.EventsReceived)
		delivered += float64(n.Proto.Delivered)
	}
	m["mac.frames_sent"] = sent
	m["mac.frames_received"] = recv
	m["mac.frames_lost"] = lost
	m["mac.defers"] = defers
	m["mac.queue_drops"] = drops
	if sent > 0 {
		m["mac.rx_per_frame"] = recv / sent
	}
	if layer == "core" {
		m["core.heartbeats_sent"] = hb
		m["core.idlists_sent"] = idl
		m["core.event_msgs_sent"] = evm
		m["core.duplicates"] = dups
		m["core.parasites"] = para
		if evr > 0 {
			m["core.useful_rx_ratio"] = delivered / evr
		}
	} else {
		m["flood.event_msgs_sent"] = evm
		m["flood.duplicates"] = dups
	}
	m["netsim.delivered"] = delivered
	var eligible, inTime float64
	for _, oc := range res.Outcomes {
		eligible += float64(oc.Eligible)
		inTime += float64(oc.DeliveredInTime)
	}
	if eligible > 0 {
		m["netsim.miss_ratio"] = 1 - inTime/eligible
	}
}
