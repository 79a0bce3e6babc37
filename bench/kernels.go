package main

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/geo"
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topic"
	"repro/internal/workload"
)

// Substrate kernels: each times one layer's public entry point in a
// loop of a fixed number of operations, on inputs shaped like the metro
// city (440 vehicles per km^2, 100 m radio range, a 5000-vehicle
// roster) or like the udp-mesh tables. They are the layer-level numbers
// a speed claim names; each is reported with the traced run of the
// workload whose end-to-end metric it predicts, and reads 0 elsewhere.

const (
	cityNodes = 5000
	cityRange = 100.0
)

// citySide is the side of a square holding cityNodes at 440 per km^2.
var citySide = 1000 * math.Sqrt(float64(cityNodes)/440)

// ops scales a kernel's operation count down for `go test`.
func (c runCfg) ops(n int) int {
	if c.quick {
		return max(n/50, 10)
	}
	return n
}

// nsPerOp times fn, which performs n operations.
func nsPerOp(n int, fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// kernelSink keeps results alive so the compiler cannot drop the calls.
var kernelSink int

// substrateKernels covers the layers that carry metro-flood-5k: the
// engine's timer wheel, the MAC, its spatial grids, mobility and topic
// matching.
func substrateKernels(c runCfg, o *outcome) {
	m := o.metrics
	rng := rand.New(rand.NewSource(c.seed))

	// sim: self-rescheduling timers, one per pending slot, periods
	// spread like heartbeat timers; one op is one schedule plus one fire.
	for _, k := range []struct {
		name    string
		pending int
	}{{"sim.schedule_fire_ns_6k", 6000}, {"sim.schedule_fire_ns_50k", 50000}} {
		eng := sim.New(c.seed)
		n, fired := c.ops(2_000_000), 0
		var arm func(period time.Duration)
		arm = func(period time.Duration) {
			eng.After(period, func() {
				fired++
				if fired >= n {
					eng.Halt()
					return
				}
				arm(period)
			})
		}
		for i := 0; i < k.pending; i++ {
			arm(time.Duration(500+rng.Intn(1000)) * time.Millisecond)
		}
		m[k.name] = nsPerOp(n, eng.Run)
	}

	// mac: a static city roster; every frame is contended, aired and
	// delivered to the ~14 nodes in range.
	{
		eng := sim.New(c.seed)
		pos := make(staticCity, cityNodes)
		for i := range pos {
			pos[i] = geo.Pt(rng.Float64()*citySide, rng.Float64()*citySide)
		}
		cfg := mac.DefaultConfig(cityRange)
		cfg.SpeedBounded = true
		cfg.Bounds = geo.NewRect(citySide, citySide)
		medium := mac.New(eng, cfg, pos)
		ports := make([]*mac.Port, cityNodes)
		msgs := make([]event.Message, cityNodes)
		rx := 0
		for i := range ports {
			ports[i] = medium.Attach(event.NodeID(i), func(mac.Frame) { rx++ })
			msgs[i] = event.Heartbeat{From: event.NodeID(i)}
		}
		frames := c.ops(100_000)
		for i := 0; i < cityNodes/10; i++ { // warm pools and grids
			ports[i].Broadcast(msgs[i], 50)
			eng.Run()
		}
		rx = 0
		perFrame := nsPerOp(frames, func() {
			for i := 0; i < frames; i++ {
				k := rng.Intn(cityNodes)
				ports[k].Broadcast(msgs[k], 50)
				eng.Run()
			}
		})
		m["mac.frame_ns"] = perFrame
		if rx > 0 {
			m["mac.rx_ns"] = perFrame * float64(frames) / float64(rx)
		}
	}

	// geo: the medium's dense index grid, queried and updated apart.
	{
		g := geo.NewIndexGrid(cityRange, geo.NewRect(citySide, citySide), cityNodes)
		pos := make([]geo.Point, cityNodes)
		for i := range pos {
			pos[i] = geo.Pt(rng.Float64()*citySide, rng.Float64()*citySide)
			g.Relocate(int32(i), pos[i])
		}
		buf := make([]int32, 0, 256)
		n := c.ops(2_000_000)
		m["geo.disc_query_ns"] = nsPerOp(n, func() {
			for i := 0; i < n; i++ {
				buf = g.AppendDisc(pos[i%cityNodes], cityRange, buf[:0])
				kernelSink += len(buf)
			}
		})
		m["geo.relocate_ns"] = nsPerOp(n, func() {
			for i := 0; i < n; i++ {
				k := i % cityNodes
				pos[k].X += 37 // a third of a cell: crosses a boundary every third move
				if pos[k].X > citySide {
					pos[k].X -= citySide
				}
				g.Relocate(int32(k), pos[k])
			}
		})
	}

	// mobility: Manhattan vehicles on the 5000-vehicle street graph,
	// positions asked at advancing instants as the medium asks them; and
	// routes from the graph's warm per-source cache.
	{
		cols, rows := netsim.MetroGraphDims(cityNodes)
		graph := mobility.NewManhattanStyleGraph(cols, rows)
		const vehicles = 500
		models := make([]*mobility.Manhattan, vehicles)
		for i := range models {
			models[i] = mobility.NewManhattan(mobility.ManhattanConfig{
				Graph: graph, LightCycle: 30 * time.Second, RedFraction: 0.4, DestPause: 10 * time.Second,
			}, rand.New(rand.NewSource(c.seed+int64(i))))
		}
		n := c.ops(2_000_000)
		m["mobility.position_ns"] = nsPerOp(n, func() {
			at := sim.Time(0)
			for i := 0; i < n; i++ {
				if i%vehicles == 0 {
					at += 200 * sim.Millisecond
				}
				p := models[i%vehicles].Position(at)
				kernelSink += int(p.X)
			}
		})
		v := graph.Intersections()
		for i := 0; i < v; i++ {
			if _, err := graph.ShortestPath(i, (i+v/2)%v); err != nil {
				o.problem("mobility.route_ns: %v", err)
				return
			}
		}
		n = c.ops(500_000)
		m["mobility.route_ns"] = nsPerOp(n, func() {
			for i := 0; i < n; i++ {
				path, _ := graph.ShortestPath(rng.Intn(v), rng.Intn(v))
				kernelSink += len(path)
			}
		})
	}

	// topic: one subscription against the metro traffic's six subtopics.
	{
		base := topic.MustParse(".app.news")
		set := topic.NewSet(base)
		var topics []topic.Topic
		for i := 0; i < 6; i++ {
			child, err := base.Child(string(rune('a' + i)))
			if err != nil {
				o.problem("topic.covers_ns: %v", err)
				return
			}
			topics = append(topics, child)
		}
		n := c.ops(5_000_000)
		m["topic.covers_ns"] = nsPerOp(n, func() {
			for i := 0; i < n; i++ {
				if set.Covers(topics[i%len(topics)]) {
					kernelSink++
				}
			}
		})
	}
}

type staticCity []geo.Point

func (s staticCity) Position(id event.NodeID, _ sim.Time) geo.Point { return s[id] }

type nullTransport struct{}

func (nullTransport) Broadcast(event.Message) {}

// coreKernel builds one frugal protocol instance whose tables look like
// a node's in the named workload (`neighbors` known neighbours, `live`
// valid events that every neighbour is known to hold) and times the two
// steady-state handler paths: a heartbeat from a known neighbour, and
// an id list from one, which re-marks its ids and recomputes the send
// set over live events x neighbours (finding, as in steady state,
// nothing to send). The simulated clock stands still, so nothing
// expires and no timer fires: every call sees the same tables.
func coreKernel(c runCfg, o *outcome, neighbors, live int) (heartbeatNS, idlistNS float64) {
	eng := sim.New(c.seed)
	rng := rand.New(rand.NewSource(c.seed))
	tp := topic.MustParse(".bench.core")
	d, err := proto.Build(core.ProtocolName, core.Tuning{HBUpperBound: time.Second}, proto.Env{
		ID:        0,
		Sched:     proto.EngineScheduler{Eng: eng},
		Transport: nullTransport{},
		Rand:      rand.New(rand.NewSource(c.seed + 1)),
	})
	if err == nil {
		err = d.Subscribe(tp)
	}
	if err != nil {
		o.problem("core kernel: %v", err)
		return 0, 0
	}
	defer d.Stop()
	hbs := make([]event.Message, neighbors)
	everyone := make([]event.NodeID, neighbors)
	for i := range hbs {
		everyone[i] = event.NodeID(i + 1)
		hbs[i] = event.Heartbeat{From: everyone[i], Subscriptions: []topic.Topic{tp}, Speed: 10}
		_ = d.HandleMessage(hbs[i])
	}
	ids := make([]event.ID, live)
	for i := range ids {
		ids[i] = event.NewID(rng)
		_ = d.HandleMessage(event.Events{From: 1, Receivers: everyone, Events: []event.Event{{
			ID: ids[i], Topic: tp, Publisher: 1, Validity: time.Hour, Remaining: time.Hour,
		}}})
	}
	lists := make([]event.Message, neighbors)
	for i := range lists {
		lists[i] = event.IDList{From: everyone[i], IDs: ids}
	}
	n := c.ops(20_000)
	heartbeatNS = nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			_ = d.HandleMessage(hbs[i%neighbors])
		}
	})
	idlistNS = nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			_ = d.HandleMessage(lists[i%neighbors])
		}
	})
	return heartbeatNS, idlistNS
}

// coreMeshKernels shapes core's tables like a udp-mesh node's: 200 live
// events (100 events/s x 2 s) against 7 static neighbours.
func coreMeshKernels(c runCfg, o *outcome) {
	o.metrics["core.heartbeat_ns_mesh"], o.metrics["core.idlist_ns_mesh"] = coreKernel(c, o, 7, 200)
}

// coreMetroKernels shapes them like a metro-slice vehicle's: 6 live
// events against 30 neighbours.
func coreMetroKernels(c runCfg, o *outcome) {
	o.metrics["core.heartbeat_ns_metro"], o.metrics["core.idlist_ns_metro"] = coreKernel(c, o, 30, 6)
}

// codecKernels times the wire codec on the two datagrams the udp-wire
// workloads send.
func codecKernels(c runCfg, o *outcome) {
	m := o.metrics
	payload := make([]byte, wireLarge.payload)
	rand.New(rand.NewSource(c.seed)).Read(payload)
	msgs := map[string]event.Message{
		"small": event.Heartbeat{From: 3, Speed: 12345},
		"large": event.Events{From: 3, Events: []event.Event{{
			ID: event.ID{Hi: 1, Lo: 2}, Topic: topic.MustParse(".bench.wire"), Publisher: 3,
			Payload: payload, Validity: time.Minute, Remaining: time.Minute,
		}}},
	}
	n := c.ops(2_000_000)
	for size, msg := range msgs {
		buf := event.AppendMarshal(nil, msg)
		m["event.wire_bytes_"+size] = float64(len(buf))
		m["event.marshal_"+size+"_ns"] = nsPerOp(n, func() {
			for i := 0; i < n; i++ {
				buf = event.AppendMarshal(buf[:0], msg)
			}
		})
		m["event.unmarshal_"+size+"_ns"] = nsPerOp(n, func() {
			for i := 0; i < n; i++ {
				if _, err := event.Unmarshal(buf); err != nil {
					o.problem("event.unmarshal_%s_ns: %v", size, err)
					return
				}
			}
		})
	}
}

// workloadKernel times the traffic generators the sweeps draw their
// publications from: one op is one generated publication.
func workloadKernel(c runCfg, o *outcome) {
	gen, err := workload.Build("flash-crowd", workload.FlashCrowdParams{
		BaseRate: 800, PeakRate: 2000, Validity: 60 * time.Second,
		Topics: workload.TopicModel{Spread: 16, ZipfS: 1.5},
	}, workload.Env{
		Nodes:      1000,
		Rand:       rand.New(rand.NewSource(c.seed)),
		Measure:    time.Duration(c.ops(1000)) * time.Second,
		EventTopic: topic.MustParse(".app.news"),
	})
	if err != nil {
		o.problem("workload.gen_ns_per_op: %v", err)
		return
	}
	n := 0
	t0 := time.Now()
	for {
		if _, ok := gen.Next(); !ok {
			break
		}
		n++
	}
	if n > 0 {
		o.metrics["workload.gen_ns_per_op"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
}
