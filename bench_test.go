package repro

// One benchmark per figure/table of the paper's evaluation, each running
// a reduced-scale instance of the corresponding experiment (the full
// sweeps live behind `go run ./cmd/experiments`). Custom metrics attach
// the reproduced quantity to the benchmark output: reliability for the
// reliability figures, bytes/events/duplicates/parasites per process for
// the frugality figures. Ablation and substrate micro-benchmarks follow.

import (
	"math"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/exp"
	"repro/internal/geo"
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topic"
	"repro/internal/transport"
	"repro/internal/workload"
)

// rwpScenario is the reduced random-waypoint environment: the paper's
// 6 nodes/km^2 density at 30 nodes.
func rwpScenario(b *testing.B, speedMin, speedMax, frac float64, seed int64) netsim.Scenario {
	b.Helper()
	kind := netsim.RandomWaypoint
	if speedMax == 0 {
		kind = netsim.StaticNodes
	}
	return netsim.Scenario{
		Nodes: 30,
		Seed:  seed,
		Mobility: netsim.MobilitySpec{
			Kind:     kind,
			Area:     geo.NewRect(2236, 2236), // 5 km^2
			MinSpeed: speedMin,
			MaxSpeed: speedMax,
			Pause:    time.Second,
		},
		MAC:                mac.DefaultConfig(339),
		Protocol:           netsim.FrugalSpec(netsim.CoreTuning{HBUpperBound: time.Second, UseSpeed: true}),
		SubscriberFraction: frac,
		Warmup:             20 * time.Second,
	}
}

func cityScenario(seed int64, hbUpper time.Duration, frac float64) netsim.Scenario {
	return netsim.Scenario{
		Nodes: 15,
		Seed:  seed,
		Mobility: netsim.MobilitySpec{
			Kind:      netsim.CitySection,
			StopProb:  0.3,
			StopMin:   2 * time.Second,
			StopMax:   10 * time.Second,
			DestPause: 5 * time.Second,
		},
		MAC:                mac.DefaultConfig(44),
		Protocol:           netsim.FrugalSpec(netsim.CoreTuning{HBUpperBound: hbUpper, UseSpeed: true}),
		SubscriberFraction: frac,
		Warmup:             20 * time.Second,
	}
}

func runReliability(b *testing.B, sc netsim.Scenario, publisher int, validity time.Duration) float64 {
	b.Helper()
	sc.Publications = []netsim.Publication{{Publisher: publisher, Validity: validity}}
	sc.Measure = validity + 5*time.Second
	res, err := netsim.Run(sc)
	if err != nil {
		b.Fatal(err)
	}
	return res.Reliability()
}

// BenchmarkFig11Reliability regenerates one point of Figure 11:
// reliability at 10 m/s, 80% subscribers, 120 s validity (random
// waypoint).
func BenchmarkFig11Reliability(b *testing.B) {
	var rel float64
	for i := 0; i < b.N; i++ {
		rel += runReliability(b, rwpScenario(b, 10, 10, 0.8, int64(i)+1), -1, 120*time.Second)
	}
	b.ReportMetric(rel/float64(b.N), "reliability")
}

// BenchmarkFig12Heterogeneous regenerates one point of Figure 12:
// heterogeneous 1-40 m/s speeds, 60% subscribers, 120 s validity.
func BenchmarkFig12Heterogeneous(b *testing.B) {
	var rel float64
	for i := 0; i < b.N; i++ {
		rel += runReliability(b, rwpScenario(b, 1, 40, 0.6, int64(i)+1), -1, 120*time.Second)
	}
	b.ReportMetric(rel/float64(b.N), "reliability")
}

// BenchmarkFig13HeartbeatPeriod regenerates one point of Figure 13: city
// section with a 3 s heartbeat upper bound, validity 150 s.
func BenchmarkFig13HeartbeatPeriod(b *testing.B) {
	var rel float64
	for i := 0; i < b.N; i++ {
		rel += runReliability(b, cityScenario(int64(i)+1, 3*time.Second, 1.0), i%15, 150*time.Second)
	}
	b.ReportMetric(rel/float64(b.N), "reliability")
}

// BenchmarkFig14Subscribers regenerates one point of Figure 14: city
// section, 60% subscribers.
func BenchmarkFig14Subscribers(b *testing.B) {
	var rel float64
	for i := 0; i < b.N; i++ {
		rel += runReliability(b, cityScenario(int64(i)+1, time.Second, 0.6), -1, 150*time.Second)
	}
	b.ReportMetric(rel/float64(b.N), "reliability")
}

// BenchmarkFig15PublisherSpread regenerates Figure 15's quantity: the
// reliability spread across publishers (city section, 100% subscribers).
func BenchmarkFig15PublisherSpread(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		lo, hi := 1.0, 0.0
		for pub := 0; pub < 15; pub += 5 {
			rel := runReliability(b, cityScenario(int64(i)+1, time.Second, 1.0), pub, 150*time.Second)
			if rel < lo {
				lo = rel
			}
			if rel > hi {
				hi = rel
			}
		}
		spread += hi - lo
	}
	b.ReportMetric(spread/float64(b.N), "spread")
}

// BenchmarkFig16Validity regenerates one point of Figure 16: city
// section, validity 75 s.
func BenchmarkFig16Validity(b *testing.B) {
	var rel float64
	for i := 0; i < b.N; i++ {
		rel += runReliability(b, cityScenario(int64(i)+1, time.Second, 1.0), i%15, 75*time.Second)
	}
	b.ReportMetric(rel/float64(b.N), "reliability")
}

// frugalityRun executes one reduced frugality cell (Figures 17-20).
func frugalityRun(b *testing.B, proto string, events int, frac float64, seed int64) *netsim.Result {
	b.Helper()
	sc := rwpScenario(b, 10, 10, frac, seed)
	if proto != "frugal" {
		sc.Protocol = netsim.ProtocolSpec{Name: proto}
	}
	validity := 60 * time.Second
	for i := 0; i < events; i++ {
		sc.Publications = append(sc.Publications, netsim.Publication{
			Offset:    time.Duration(i) * 500 * time.Millisecond,
			Publisher: -1,
			Validity:  validity,
		})
	}
	sc.Measure = validity
	res, err := netsim.Run(sc)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig17Bandwidth regenerates one cell of Figure 17 for the
// frugal protocol and the best flooding alternative.
func BenchmarkFig17Bandwidth(b *testing.B) {
	var frugal, flood float64
	for i := 0; i < b.N; i++ {
		frugal += frugalityRun(b, "frugal", 5, 0.6, int64(i)+1).AppBytesPerProcess()
		flood += frugalityRun(b, "interests-aware-flooding", 5, 0.6, int64(i)+1).AppBytesPerProcess()
	}
	b.ReportMetric(frugal/float64(b.N), "frugal-B/proc")
	b.ReportMetric(flood/float64(b.N), "flood-B/proc")
}

// BenchmarkFig18EventsSent regenerates one cell of Figure 18.
func BenchmarkFig18EventsSent(b *testing.B) {
	var frugal, flood float64
	for i := 0; i < b.N; i++ {
		frugal += frugalityRun(b, "frugal", 5, 0.6, int64(i)+1).EventsSentPerProcess()
		flood += frugalityRun(b, "simple-flooding", 5, 0.6, int64(i)+1).EventsSentPerProcess()
	}
	b.ReportMetric(frugal/float64(b.N), "frugal-sent/proc")
	b.ReportMetric(flood/float64(b.N), "flood-sent/proc")
}

// BenchmarkFig19Duplicates regenerates one cell of Figure 19.
func BenchmarkFig19Duplicates(b *testing.B) {
	var frugal, flood float64
	for i := 0; i < b.N; i++ {
		frugal += frugalityRun(b, "frugal", 5, 0.6, int64(i)+1).DuplicatesPerProcess()
		flood += frugalityRun(b, "interests-aware-flooding", 5, 0.6, int64(i)+1).DuplicatesPerProcess()
	}
	b.ReportMetric(frugal/float64(b.N), "frugal-dup/proc")
	b.ReportMetric(flood/float64(b.N), "flood-dup/proc")
}

// BenchmarkFig20Parasites regenerates one cell of Figure 20 (60%
// interest, where parasites peak).
func BenchmarkFig20Parasites(b *testing.B) {
	var frugal, flood float64
	for i := 0; i < b.N; i++ {
		frugal += frugalityRun(b, "frugal", 5, 0.6, int64(i)+1).ParasitesPerProcess()
		flood += frugalityRun(b, "interests-aware-flooding", 5, 0.6, int64(i)+1).ParasitesPerProcess()
	}
	b.ReportMetric(frugal/float64(b.N), "frugal-par/proc")
	b.ReportMetric(flood/float64(b.N), "flood-par/proc")
}

// ---- ablation benches (DESIGN.md "Ablations") ----

func ablationRun(b *testing.B, seed int64, mut func(*netsim.CoreTuning)) *netsim.Result {
	b.Helper()
	sc := rwpScenario(b, 10, 10, 0.8, seed)
	tun := netsim.CoreTuning{HBUpperBound: 2 * time.Second, UseSpeed: true}
	mut(&tun)
	sc.Protocol = netsim.FrugalSpec(tun)
	for i := 0; i < 5; i++ {
		sc.Publications = append(sc.Publications, netsim.Publication{
			Offset:    time.Duration(i) * 500 * time.Millisecond,
			Publisher: -1,
			Validity:  60 * time.Second,
		})
	}
	sc.Measure = 60 * time.Second
	res, err := netsim.Run(sc)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationBackoff compares the proportional back-off against a
// fixed one.
func BenchmarkAblationBackoff(b *testing.B) {
	var paper, fixed float64
	for i := 0; i < b.N; i++ {
		paper += ablationRun(b, int64(i)+1, func(*netsim.CoreTuning) {}).DuplicatesPerProcess()
		fixed += ablationRun(b, int64(i)+1, func(c *netsim.CoreTuning) { c.FixedBackoff = true }).DuplicatesPerProcess()
	}
	b.ReportMetric(paper/float64(b.N), "paper-dup/proc")
	b.ReportMetric(fixed/float64(b.N), "fixed-dup/proc")
}

// BenchmarkAblationSuppression compares cancel-on-overhear on/off.
func BenchmarkAblationSuppression(b *testing.B) {
	var on, off float64
	for i := 0; i < b.N; i++ {
		on += ablationRun(b, int64(i)+1, func(*netsim.CoreTuning) {}).DuplicatesPerProcess()
		off += ablationRun(b, int64(i)+1, func(c *netsim.CoreTuning) { c.DisableSuppression = true }).DuplicatesPerProcess()
	}
	b.ReportMetric(on/float64(b.N), "supp-dup/proc")
	b.ReportMetric(off/float64(b.N), "nosupp-dup/proc")
}

// BenchmarkAblationIDExchange compares the id pre-exchange against blind
// pushing.
func BenchmarkAblationIDExchange(b *testing.B) {
	var ids, blind float64
	for i := 0; i < b.N; i++ {
		ids += ablationRun(b, int64(i)+1, func(*netsim.CoreTuning) {}).AppBytesPerProcess()
		blind += ablationRun(b, int64(i)+1, func(c *netsim.CoreTuning) { c.BlindPush = true }).AppBytesPerProcess()
	}
	b.ReportMetric(ids/float64(b.N), "ids-B/proc")
	b.ReportMetric(blind/float64(b.N), "blind-B/proc")
}

// BenchmarkAblationGC compares GC policies under memory pressure.
func BenchmarkAblationGC(b *testing.B) {
	run := func(seed int64, pol core.GCPolicy) float64 {
		res := ablationRun(b, seed, func(c *netsim.CoreTuning) {
			c.MaxEvents = 3
			c.GCPolicy = pol
		})
		return res.Reliability()
	}
	var paper, fifo float64
	for i := 0; i < b.N; i++ {
		paper += run(int64(i)+1, core.GCPaper)
		fifo += run(int64(i)+1, core.GCFIFO)
	}
	b.ReportMetric(paper/float64(b.N), "paper-rel")
	b.ReportMetric(fifo/float64(b.N), "fifo-rel")
}

// BenchmarkAblationAdaptiveHB compares the adaptive heartbeat against a
// fixed period.
func BenchmarkAblationAdaptiveHB(b *testing.B) {
	var adaptive, fixed float64
	for i := 0; i < b.N; i++ {
		adaptive += ablationRun(b, int64(i)+1, func(*netsim.CoreTuning) {}).Reliability()
		fixed += ablationRun(b, int64(i)+1, func(c *netsim.CoreTuning) { c.DisableAdaptiveHB = true }).Reliability()
	}
	b.ReportMetric(adaptive/float64(b.N), "adaptive-rel")
	b.ReportMetric(fixed/float64(b.N), "fixed-rel")
}

// ---- substrate micro-benchmarks ----

// BenchmarkEngineThroughput measures raw event-queue throughput.
func BenchmarkEngineThroughput(b *testing.B) {
	eng := sim.New(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			eng.After(time.Microsecond, tick)
		}
	}
	b.ResetTimer()
	eng.After(0, tick)
	eng.Run()
}

// BenchmarkTopicCovers measures subscription matching.
func BenchmarkTopicCovers(b *testing.B) {
	set := topic.NewSet(
		topic.MustParse(".a.b"),
		topic.MustParse(".c"),
		topic.MustParse(".d.e.f"),
	)
	t := topic.MustParse(".d.e.f.g.h")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !set.Covers(t) {
			b.Fatal("must cover")
		}
	}
}

// BenchmarkMessageEncode measures the real wire encoding.
func BenchmarkMessageEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	msg := event.Events{
		From:      3,
		Receivers: []event.NodeID{1, 2, 5},
		Events: []event.Event{{
			ID:        event.NewID(rng),
			Topic:     topic.MustParse(".a.b.c"),
			Publisher: 3,
			Payload:   make([]byte, 400),
			Validity:  time.Minute,
			Remaining: 30 * time.Second,
		}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire := event.Marshal(msg)
		if _, err := event.Unmarshal(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMACBroadcast measures medium throughput with 50 nodes in
// range.
func BenchmarkMACBroadcast(b *testing.B) {
	eng := sim.New(1)
	positions := make(map[event.NodeID]geo.Point)
	for i := event.NodeID(0); i < 50; i++ {
		positions[i] = geo.Pt(float64(i)*5, 0)
	}
	medium := mac.New(eng, mac.DefaultConfig(400), staticLocator(positions))
	ports := make([]*mac.Port, 50)
	for i := event.NodeID(0); i < 50; i++ {
		ports[i] = medium.Attach(i, func(mac.Frame) {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ports[i%50].Broadcast(event.Heartbeat{From: event.NodeID(i % 50)}, 50)
		eng.Run()
	}
}

type staticLocator map[event.NodeID]geo.Point

func (l staticLocator) Position(id event.NodeID, _ sim.Time) geo.Point { return l[id] }

// benchLargeMedium broadcasts across a 500-node roster spread over a
// 10x20 km strip, so each frame reaches only a handful of neighbors —
// the regime where the medium's spatial grid beats the full-roster
// scan.
func benchLargeMedium(b *testing.B, fullScan bool) {
	b.Helper()
	eng := sim.New(1)
	const n = 500
	positions := make(map[event.NodeID]geo.Point)
	for i := event.NodeID(0); i < n; i++ {
		positions[i] = geo.Pt(float64(i%25)*400, float64(i/25)*1000)
	}
	cfg := mac.DefaultConfig(400)
	cfg.SpeedBounded = true // static roster
	cfg.FullScan = fullScan
	medium := mac.New(eng, cfg, staticLocator(positions))
	ports := make([]*mac.Port, n)
	for i := event.NodeID(0); i < n; i++ {
		ports[i] = medium.Attach(i, func(mac.Frame) {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ports[i%n].Broadcast(event.Heartbeat{From: event.NodeID(i % n)}, 50)
		eng.Run()
	}
}

// BenchmarkMACBroadcastLarge measures grid-indexed medium throughput at
// 500 sparse nodes.
func BenchmarkMACBroadcastLarge(b *testing.B) { benchLargeMedium(b, false) }

// BenchmarkMACBroadcastAllocs pins the medium's allocation-flat
// contract: with pooled engine timers, pooled transmission records and
// reused scratch buffers, a steady-state broadcast (contention, airtime
// and delivery) must report 0 allocs/op. Messages are pre-boxed so the
// benchmark does not charge the medium for its own interface
// conversions.
func BenchmarkMACBroadcastAllocs(b *testing.B) {
	b.ReportAllocs()
	eng := sim.New(1)
	const n = 500
	positions := make(map[event.NodeID]geo.Point)
	for i := event.NodeID(0); i < n; i++ {
		positions[i] = geo.Pt(float64(i%25)*400, float64(i/25)*1000)
	}
	cfg := mac.DefaultConfig(400)
	cfg.SpeedBounded = true // static roster
	medium := mac.New(eng, cfg, staticLocator(positions))
	ports := make([]*mac.Port, n)
	msgs := make([]event.Message, n)
	for i := event.NodeID(0); i < n; i++ {
		ports[i] = medium.Attach(i, func(mac.Frame) {})
		msgs[i] = event.Heartbeat{From: i}
	}
	for i := 0; i < 2*n; i++ { // warm the pools
		ports[i%n].Broadcast(msgs[i%n], 50)
		eng.Run()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ports[i%n].Broadcast(msgs[i%n], 50)
		eng.Run()
	}
}

// orbitLocator moves node i round a circle of radius r about centers[i]
// at speed r*omega: positions are a pure function of time and cost no
// allocation, unlike trajectory models, which grow their legs.
type orbitLocator struct {
	centers  []geo.Point
	r, omega float64
}

func (l *orbitLocator) Position(id event.NodeID, at sim.Time) geo.Point {
	a := l.omega*at.Seconds() + float64(id)
	return geo.Pt(l.centers[id].X+l.r*math.Cos(a), l.centers[id].Y+l.r*math.Sin(a))
}

// BenchmarkMACFinishDense pins the per-frame receive path at metro
// density (440 vehicles/km^2, 100 m range: ~14 receivers per frame)
// with everything the city workloads have and the static pins lack:
// nodes that move (a non-zero staleness margin on the receiver query,
// periodic index refreshes) and 16 transmitters contending at the same
// instant, so hidden terminals overlap and the per-frame interferer
// list is not empty (the warm-up fails the benchmark if no frame was
// lost to one). One op is one such round of 16 frames; 0 allocs/op.
func BenchmarkMACFinishDense(b *testing.B) {
	b.ReportAllocs()
	const (
		n      = 2000
		radius = 5.0  // orbit radius, m
		speed  = 12.0 // m/s
		burst  = 16
	)
	side := 1000 * math.Sqrt(n/440.0)
	rng := rand.New(rand.NewSource(1))
	loc := &orbitLocator{centers: make([]geo.Point, n), r: radius, omega: speed / radius}
	for i := range loc.centers {
		loc.centers[i] = geo.Pt(rng.Float64()*side, rng.Float64()*side)
	}
	eng := sim.New(1)
	cfg := mac.DefaultConfig(100)
	cfg.SpeedBounded, cfg.MaxSpeed = true, 14
	cfg.Bounds = geo.NewRect(side, side)
	medium := mac.New(eng, cfg, loc)
	ports := make([]*mac.Port, n)
	msgs := make([]event.Message, n)
	for i := range ports {
		ports[i] = medium.Attach(event.NodeID(i), func(mac.Frame) {})
		msgs[i] = event.Heartbeat{From: event.NodeID(i)}
	}
	round := func() {
		for j := 0; j < burst; j++ {
			k := rng.Intn(n)
			ports[k].Broadcast(msgs[k], 50)
		}
		eng.Run()
	}
	// Warm pools, scratch and every bucket a node's orbit visits: two
	// full revolutions of simulated time.
	for eng.Now() < sim.Seconds(2*2*math.Pi*radius/speed) {
		round()
	}
	var lost uint64
	for _, p := range ports {
		lost += p.Counters().FramesLost
	}
	if lost == 0 {
		b.Fatal("no frame lost to interference in the warm-up: the interferer path is not exercised")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// BenchmarkMACBroadcastLargeFullScan is the same roster on the
// reference full scan — compare against BenchmarkMACBroadcastLarge to
// see the O(neighbors) vs O(N) gap.
func BenchmarkMACBroadcastLargeFullScan(b *testing.B) { benchLargeMedium(b, true) }

// ---- megacity enabler micro-benchmarks ----

// BenchmarkShortestPathCached measures warm-cache route queries on the
// 10k-vehicle metro street graph. Each vehicle trip asks the graph for
// a shortest path; the per-source route cache answers from a memoized
// Dijkstra tree, so a warm query costs one tree walk instead of a full
// search — the optimization that moved routing off the top of the
// city-sweep profile.
func BenchmarkShortestPathCached(b *testing.B) {
	cols, rows := netsim.MetroGraphDims(10000)
	g := mobility.NewManhattanStyleGraph(cols, rows)
	v := g.Intersections()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < v; i++ { // warm every source tree
		if _, err := g.ShortestPath(i, (i+v/2)%v); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ShortestPath(rng.Intn(v), rng.Intn(v)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexGridDense measures the MAC medium's spatial-index hot
// pair on the dense row-major cell slab: one incremental Relocate (a
// drifting node) plus one receiver-candidate disc query per op, at a
// 5k roster. The dense slab answers both with zero hash lookups, and
// the reused query buffer keeps the pair allocation-free.
func BenchmarkIndexGridDense(b *testing.B) {
	b.ReportAllocs()
	const n, side = 5000, 3400.0
	g := geo.NewIndexGrid(100, geo.NewRect(side, side), n)
	rng := rand.New(rand.NewSource(1))
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Pt(rng.Float64()*side, rng.Float64()*side)
		g.Relocate(int32(i), pos[i])
	}
	buf := make([]int32, 0, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % n
		pos[k].X += 37 // drift across cell boundaries (clamped at edges)
		if pos[k].X > side {
			pos[k].X -= side
		}
		g.Relocate(int32(k), pos[k])
		buf = g.AppendDisc(pos[k], 100, buf[:0])
		if len(buf) == 0 {
			b.Fatal("disc query missed its own key")
		}
	}
}

// BenchmarkResultStreaming measures a lean-result run end to end:
// DeliveryLog off, so the runner folds every delivery into per-event
// counters and the streaming latency histogram at delivery time and
// keeps no per-delivery record — the megacity memory contract
// (ARCHITECTURE.md "Memory contracts"). The custom metric surfaces the
// histogram's median publish-to-delivery latency, the number the
// record-free aggregation still has to get right.
func BenchmarkResultStreaming(b *testing.B) {
	var p50 float64
	for i := 0; i < b.N; i++ {
		sc := rwpScenario(b, 10, 10, 0.8, int64(i)+1)
		for j := 0; j < 10; j++ {
			sc.Publications = append(sc.Publications, netsim.Publication{
				Offset:    time.Duration(j) * 500 * time.Millisecond,
				Publisher: -1,
				Validity:  60 * time.Second,
			})
		}
		sc.Measure = 60 * time.Second
		res, err := netsim.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Deliveries) != 0 {
			b.Fatal("lean run kept delivery records")
		}
		p50 += res.Latency.Quantile(0.5)
	}
	b.ReportMetric(p50/float64(b.N), "p50-lat-s")
}

// BenchmarkMetroSweep is the city-scale engine benchmark: one 5k-node
// metro run (the metro-5k registry scenario — 11.4 km^2 Manhattan-style
// grid, diurnal Zipf traffic with churn waves) on a shortened
// measurement window per iteration. This is the number the timer wheel,
// the incremental spatial index, the route cache, the dense grids and
// the allocation-flat MAC/runner hot paths were built for; the CI
// benchjson guardrail diffs it against the committed BENCH_pr5.json
// baseline per run.
func BenchmarkMetroSweep(b *testing.B) {
	def, ok := netsim.LookupScenario("metro-5k")
	if !ok {
		b.Fatal("metro-5k scenario not registered")
	}
	var rel float64
	for i := 0; i < b.N; i++ {
		sc := def.Instantiate(int64(i) + 1)
		sc.Warmup = 5 * time.Second
		sc.Measure = 15 * time.Second
		res, err := netsim.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		rel += res.Reliability()
	}
	b.ReportMetric(rel/float64(b.N), "reliability")
}

// BenchmarkScenarioSweep runs one reduced pass of the registry-backed
// scenarios family: the manhattan urban-VANET environment swept across
// the frugal protocol and the baselines (the CI smoke for the scenario
// registry).
func BenchmarkScenarioSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := exp.ScenarioSweep("manhattan", exp.Options{Seeds: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Tables) != 1 {
			b.Fatal("empty scenario sweep output")
		}
	}
}

// BenchmarkSweepParallel runs a reduced frugality-style sweep (16
// independent reliability points) through the experiment worker pool at
// NumCPU parallelism; compare with BenchmarkSweepSerial for the
// wall-clock gain on multicore hardware.
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 0) }

// BenchmarkSweepSerial is the same sweep at parallelism 1.
func BenchmarkSweepSerial(b *testing.B) { benchSweep(b, 1) }

func benchSweep(b *testing.B, parallel int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		out, err := exp.Fig12(exp.Options{Seeds: 1, Parallel: parallel})
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Tables) == 0 {
			b.Fatal("empty sweep output")
		}
	}
}

// BenchmarkMobilityPosition measures trajectory queries.
func BenchmarkMobilityPosition(b *testing.B) {
	w := mobility.NewWaypoint(mobility.WaypointConfig{
		Area:     geo.NewRect(5000, 5000),
		MinSpeed: 1,
		MaxSpeed: 40,
		Pause:    time.Second,
	}, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Position(sim.Seconds(float64(i % 3600)))
	}
}

// BenchmarkFullScenario measures one complete mid-size simulation per
// iteration: the end-to-end cost of reproducing a reliability point.
func BenchmarkFullScenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runReliability(b, rwpScenario(b, 10, 10, 0.8, int64(i)+1), -1, 60*time.Second)
	}
}

// BenchmarkExtStorm compares the frugal protocol with the broadcast-storm
// schemes (Ni et al.) at 180 s validity: the single-shot schemes cannot
// exploit mobility, so their reliability stays far below.
func BenchmarkExtStorm(b *testing.B) {
	var frugal, storm float64
	for i := 0; i < b.N; i++ {
		sc := rwpScenario(b, 10, 10, 0.8, int64(i)+1)
		frugal += runReliability(b, sc, -1, 120*time.Second)
		sc2 := rwpScenario(b, 10, 10, 0.8, int64(i)+1)
		sc2.Protocol = netsim.ProtocolSpec{Name: "probabilistic-broadcast"}
		storm += runReliability(b, sc2, -1, 120*time.Second)
	}
	b.ReportMetric(frugal/float64(b.N), "frugal-rel")
	b.ReportMetric(storm/float64(b.N), "storm-rel")
}

// BenchmarkGossipVsFrugal is the CI smoke for the protocol registry: a
// reduced scenario pass comparing the push-pull gossip baseline (wired
// in purely through internal/proto) against the frugal protocol.
func BenchmarkGossipVsFrugal(b *testing.B) {
	var frugal, gossip float64
	for i := 0; i < b.N; i++ {
		frugal += runReliability(b, rwpScenario(b, 10, 10, 0.8, int64(i)+1), -1, 60*time.Second)
		sc := rwpScenario(b, 10, 10, 0.8, int64(i)+1)
		sc.Protocol = netsim.ProtocolSpec{Name: "gossip-pushpull"}
		gossip += runReliability(b, sc, -1, 60*time.Second)
	}
	b.ReportMetric(frugal/float64(b.N), "frugal-rel")
	b.ReportMetric(gossip/float64(b.N), "gossip-rel")
}

type nullTransport struct{}

func (nullTransport) Broadcast(event.Message) {}

// BenchmarkProtocolDispatch guards the protocol registry's overhead:
// the name lookup happens once per node at build time — never per
// message — so registry-build must track direct construction and the
// per-message path through the Disseminator interface must stay flat.
// Compare registry-build vs direct-build ns/op; handle-message is the
// hot path the old buildProtocol switch also served through an
// identical interface value.
func BenchmarkProtocolDispatch(b *testing.B) {
	newEnv := func(eng *sim.Engine) proto.Env {
		return proto.Env{
			ID:        1,
			Sched:     proto.EngineScheduler{Eng: eng},
			Transport: nullTransport{},
			Rand:      rand.New(rand.NewSource(1)),
		}
	}
	b.Run("registry-build", func(b *testing.B) {
		env := newEnv(sim.New(1))
		for i := 0; i < b.N; i++ {
			if _, err := proto.Build("frugal", nil, env); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct-build", func(b *testing.B) {
		env := newEnv(sim.New(1))
		for i := 0; i < b.N; i++ {
			if _, err := core.New(core.Config{ID: env.ID, Rand: env.Rand}, env.Sched, env.Transport); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("handle-message", func(b *testing.B) {
		env := newEnv(sim.New(1))
		d, err := proto.Build("frugal", nil, env)
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Subscribe(topic.MustParse(".t")); err != nil {
			b.Fatal(err)
		}
		hb := event.Heartbeat{
			From:          2,
			Subscriptions: []topic.Topic{topic.MustParse(".t")},
			Speed:         10,
		}
		// The sender's first heartbeat creates its neighbor row; what is
		// timed (and pinned in BENCH_pr*.json, at -benchtime=1x too) is
		// the refresh of a known row, the message a node handles most.
		if err := d.HandleMessage(hb); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := d.HandleMessage(hb); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWorkloadGen is the CI smoke for the workload registry: one
// million lazily generated publications pulled per iteration from the
// flash-crowd generator (the stadium scenario's arrival process, scaled
// up), with a Zipf topic spread. It pins generation overhead off the
// simulation hot path — the walk is O(1) memory, so allocs/op must stay
// flat no matter how many ops stream through (see also
// TestGenerationFlatMemory in internal/workload).
func BenchmarkWorkloadGen(b *testing.B) {
	b.ReportAllocs()
	var total int
	for i := 0; i < b.N; i++ {
		env := workload.Env{
			Nodes:      1000,
			Rand:       rand.New(rand.NewSource(int64(i) + 1)),
			Measure:    1000 * time.Second,
			EventTopic: topic.MustParse(".app.news"),
		}
		gen, err := workload.Build("flash-crowd", workload.FlashCrowdParams{
			BaseRate: 800,
			PeakRate: 2000,
			Validity: 60 * time.Second,
			Topics:   workload.TopicModel{Spread: 16, ZipfS: 1.5},
		}, env)
		if err != nil {
			b.Fatal(err)
		}
		total = 0
		for {
			op, ok := gen.Next()
			if !ok {
				break
			}
			if op.Kind != workload.Publish {
				b.Fatal("flash-crowd emitted a non-publish op")
			}
			total++
		}
		if total < 900_000 {
			b.Fatalf("generated only %d publications, want ~1e6", total)
		}
	}
	b.ReportMetric(float64(total), "pubs/iter")
}

// BenchmarkExtShadowing measures the headline point under log-normal
// shadowing calibrated to the same nominal radius.
func BenchmarkExtShadowing(b *testing.B) {
	params := radio.Default80211b()
	sh := radio.Shadowing{
		Params:         params,
		SensitivityDBm: params.ReceivedPowerDBm(339),
		SigmaDB:        6,
		LimitDBm:       -111,
	}
	prune := sh.MaxRange(1e-3)
	var rel float64
	for i := 0; i < b.N; i++ {
		sc := rwpScenario(b, 10, 10, 0.8, int64(i)+1)
		sc.MAC.ReceiveProb = sh.ReceiveProb
		sc.MAC.Range = prune
		rel += runReliability(b, sc, -1, 120*time.Second)
	}
	b.ReportMetric(rel/float64(b.N), "reliability")
}

// BenchmarkAppendMarshal pins the pooled codec's zero-alloc contract:
// marshaling the transport's message mix into a warm buffer must not
// touch the heap (allocs/op is the guarded signal; the CI bench diff
// hard-fails any 0 -> nonzero move).
func BenchmarkAppendMarshal(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	msgs := []event.Message{
		event.Heartbeat{From: 1, Speed: 3, Subscriptions: []topic.Topic{topic.MustParse(".app.news")}},
		event.IDList{From: 1, IDs: []event.ID{event.NewID(rng), event.NewID(rng)}},
		event.Events{
			From:      3,
			Receivers: []event.NodeID{1, 2, 5},
			Events: []event.Event{{
				ID:        event.NewID(rng),
				Topic:     topic.MustParse(".a.b.c"),
				Publisher: 3,
				Payload:   make([]byte, 400),
				Validity:  time.Minute,
				Remaining: 30 * time.Second,
			}},
		},
	}
	buf := make([]byte, 0, 4096)
	var bytesOut int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range msgs {
			buf = event.AppendMarshal(buf[:0], m)
			bytesOut += len(buf)
		}
	}
	b.ReportMetric(float64(bytesOut)/float64(b.N), "wire-B/op")
}

// BenchmarkUDPBroadcast pins the protocol layer's cost of a real-path
// send: marshal into a pooled ring slot and kick the writer. The writer
// is parked on a distant flush tick so the measurement isolates the
// enqueue path the protocol pays — which must stay allocation-free
// (0 allocs/op is the guarded signal in the CI bench diff).
func BenchmarkUDPBroadcast(b *testing.B) {
	const perOp = 512 // one full ring per iteration smooths -benchtime=1x noise
	u, err := transport.NewUDP(transport.UDPConfig{
		Listen:        "127.0.0.1:0",
		Handler:       func(event.Message) {},
		SendQueue:     perOp,
		FlushInterval: time.Hour,
	})
	if err != nil {
		b.Skipf("UDP unavailable: %v", err)
	}
	defer u.Close()
	var msg event.Message = event.Heartbeat{
		From:          7,
		Speed:         1.5,
		Subscriptions: []topic.Topic{topic.MustParse(".app.news")},
	}
	// Warm every slot buffer once around the ring.
	for i := 0; i < perOp; i++ {
		u.Broadcast(msg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < perOp; j++ {
			u.Broadcast(msg)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*perOp)/b.Elapsed().Seconds(), "msgs/s")
}

// BenchmarkUDPBroadcastMmsg measures the whole outbound fast path end
// to end: enqueue into the pooled ring, writer swap-drain, and the
// per-flush batch leaving through one sendmmsg per chunk on Linux (the
// portable WriteTo loop elsewhere — same benchmark, so the diff between
// platforms IS the syscall batching). Two never-read sink sockets stand
// in for the peer group; each iteration broadcasts a full ring and
// waits until every datagram has hit the wire, so ns/op prices the
// syscalls, not just the enqueue. The datagrams-per-syscall coalescing
// factor is reported when the batched path engaged.
func BenchmarkUDPBroadcastMmsg(b *testing.B) {
	const perOp = 256
	var sinks []string
	for i := 0; i < 2; i++ {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			b.Skipf("UDP unavailable: %v", err)
		}
		defer c.Close()
		sinks = append(sinks, c.LocalAddr().String())
	}
	u, err := transport.NewUDP(transport.UDPConfig{
		Listen:    "127.0.0.1:0",
		Peers:     sinks,
		Handler:   func(event.Message) {},
		SendQueue: perOp,
	})
	if err != nil {
		b.Skipf("UDP unavailable: %v", err)
	}
	defer u.Close()
	var msg event.Message = event.Heartbeat{
		From:          7,
		Speed:         1.5,
		Subscriptions: []topic.Topic{topic.MustParse(".app.news")},
	}
	drainTo := func(target uint64) {
		for u.Stats().DatagramsSent < target {
			runtime.Gosched()
		}
	}
	// Warm the ring slots and the lazily built mmsg writer state.
	for i := 0; i < perOp; i++ {
		u.Broadcast(msg)
	}
	warm := uint64(perOp * len(sinks))
	drainTo(warm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < perOp; j++ {
			u.Broadcast(msg)
		}
		drainTo(warm + uint64((i+1)*perOp*len(sinks)))
	}
	b.StopTimer()
	st := u.Stats()
	if st.Dropped != 0 {
		b.Fatalf("send ring overflowed (%d drops): iteration did not drain", st.Dropped)
	}
	b.ReportMetric(float64(b.N*perOp)/b.Elapsed().Seconds(), "msgs/s")
	if st.MmsgSends > 0 {
		b.ReportMetric(float64(st.DatagramsSent)/float64(st.MmsgSends), "datagrams/syscall")
	}
}

// BenchmarkObsRegistry pins the observability hot path: incrementing a
// registered counter (what transport and pubsub pay per operation when
// scraped) must stay a bare atomic — ~0 allocs/op is the guarded signal
// in the CI bench diff. Registration cost is paid once outside the
// timed loop, exactly as RegisterMetrics does at wiring time.
func BenchmarkObsRegistry(b *testing.B) {
	reg := obs.NewRegistry()
	c := reg.Counter("repro_bench_ops_total", "benchmark counter", "node", "1")
	g := reg.Gauge("repro_bench_depth", "benchmark gauge", "node", "1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Set(int64(i))
	}
	b.StopTimer()
	if c.Value() != uint64(b.N) {
		b.Fatalf("counter = %d, want %d", c.Value(), b.N)
	}
}
