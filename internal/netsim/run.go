package netsim

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/event"
	"repro/internal/geo"
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topic"
	"repro/internal/trace"
	"repro/internal/workload"
)

// node is one simulated process: mobility + MAC port + protocol.
type node struct {
	id    event.NodeID
	model mobility.Model
	port  *mac.Port
	proto proto.Disseminator
	// subscribed reports subscription to the scenario's EventTopic.
	subscribed bool
	// down is true while crashed; received frames are discarded.
	down bool
	// prevStats accumulates counters of crashed incarnations.
	prevStats proto.Stats
}

// totalStats merges the live protocol's counters with those of crashed
// incarnations.
func (n *node) totalStats() proto.Stats {
	return n.prevStats.Add(n.proto.Stats())
}

// locator adapts the mobility models to the MAC medium. The medium asks
// for one position per in-range receiver per frame, nearly always on the
// leg it asked about last time, so the locator keeps each node's last leg
// in one contiguous slab (indexed by node id) and answers from it while
// the leg covers the instant: one load instead of the node -> model ->
// trajectory -> leg chain. Legs of a mobility.LegModel are contiguous and
// never revised, so the slab's answer is the model's bit for bit; a
// CustomModels entry without LegAt keeps a zero slab leg, which covers
// nothing, and is asked directly.
type locator struct {
	nodes []*node
	legs  []mobility.Leg
}

func (l *locator) Position(id event.NodeID, at sim.Time) geo.Point {
	leg := &l.legs[id]
	if !leg.Covers(at) {
		model := l.nodes[id].model
		lm, ok := model.(mobility.LegModel)
		if !ok {
			return model.Position(at)
		}
		*leg = lm.LegAt(at)
	}
	return leg.Position(at)
}

// portTransport charges the paper's size model for every broadcast and
// feeds the optional trace.
type portTransport struct {
	port *mac.Port
	r    *runner
}

func (t portTransport) Broadcast(m event.Message) {
	size := m.WireSize(event.DefaultSizeModel())
	if tr := t.r.sc.Trace; tr != nil { // per message: no record, no m.Kind() when untraced
		tr.Add(trace.Record{
			At:    t.r.eng.Now(),
			Node:  t.port.ID(),
			Op:    trace.OpSend,
			Msg:   m.Kind(),
			Bytes: size,
		})
	}
	t.port.Broadcast(m, size)
}

// runner holds the mutable state of one simulation.
type runner struct {
	sc    Scenario
	eng   *sim.Engine
	nodes []*node
	// graph is the street network shared by every city-section node of
	// this run (built once instead of per node).
	graph *mobility.Graph
	// led scores every publication and delivery of the run.
	led *Ledger

	// medium is the run's broadcast channel, kept for the sampler's
	// in-flight reads. sampler is non-nil when Scenario.Sample is set;
	// it only observes (see series.go).
	medium  *mac.Medium
	sampler *sampler

	snapProto []proto.Stats
	snapMAC   []mac.Counters

	// err records a mid-run failure (e.g. a protocol rebuild error on
	// recovery); it halts the engine and fails the Run.
	err error
}

// Run executes the scenario and returns its measurements.
func Run(sc Scenario) (*Result, error) {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	r := &runner{sc: sc, eng: sim.New(sc.Seed)}
	if err := r.build(); err != nil {
		return nil, err
	}
	if err := r.schedule(); err != nil {
		return nil, err
	}
	r.eng.RunUntil(sim.At(sc.Warmup + sc.Measure))
	if r.err != nil {
		return nil, r.err
	}
	return r.collect(), nil
}

// fail aborts the run: deterministic misconfiguration discovered
// mid-simulation must surface as a Run error, not vanish.
func (r *runner) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.eng.Halt()
}

// build creates mobility models, the medium and the protocol instances.
func (r *runner) build() error {
	sc := r.sc
	r.nodes = make([]*node, sc.Nodes)
	for i := range r.nodes {
		r.nodes[i] = &node{id: event.NodeID(i)}
	}
	if builder := defaultGraph[sc.Mobility.Kind]; builder != nil {
		r.graph = sc.Mobility.Graph
		if r.graph == nil {
			r.graph = builder()
		}
	}
	// Mobility first: models draw from the engine RNG in node order.
	for i, n := range r.nodes {
		if sc.CustomModels != nil && sc.CustomModels[i] != nil {
			n.model = sc.CustomModels[i]
			continue
		}
		model, err := r.buildMobility()
		if err != nil {
			return err
		}
		n.model = model
	}
	medium := mac.New(r.eng, r.macConfig(), &locator{nodes: r.nodes, legs: make([]mobility.Leg, len(r.nodes))})
	r.medium = medium
	for _, n := range r.nodes {
		n := n
		n.port = medium.Attach(n.id, func(f mac.Frame) {
			if n.down {
				return
			}
			if tr := r.sc.Trace; tr != nil { // per reception: no record, no f.Msg.Kind() when untraced
				tr.Add(trace.Record{
					At:   r.eng.Now(),
					Node: n.id,
					Op:   trace.OpReceive,
					Msg:  f.Msg.Kind(),
				})
			}
			_ = n.proto.HandleMessage(f.Msg)
		})
	}
	// Subscription assignment: a seeded shuffle picks the subscribers.
	shuffleRng := r.eng.NewRand()
	order := shuffleRng.Perm(sc.Nodes)
	// The assignment never changes after build (crashes keep their
	// flag; subscription ops alter protocol state, not this roster): it
	// is the ledger's roster.
	subs := order[:int(float64(sc.Nodes)*sc.SubscriberFraction+0.5)]
	slices.Sort(subs)
	for _, i := range subs {
		r.nodes[i].subscribed = true
	}
	r.led = NewLedger(sc.Nodes, subs, sc.DeliveryLog)
	for _, n := range r.nodes {
		if err := r.start(n); err != nil {
			return err
		}
	}
	return nil
}

// start gives node n a fresh protocol instance subscribed to its topic:
// at build, and again when it recovers from a crash.
func (r *runner) start(n *node) error {
	p, err := r.buildProtocol(n)
	if err != nil {
		return err
	}
	n.proto = p
	tp := r.sc.DecoyTopic
	if n.subscribed {
		tp = r.sc.EventTopic
	}
	return p.Subscribe(tp)
}

// defaultGraph maps each graph-constrained mobility kind to its default
// street-network builder (used when MobilitySpec.Graph is nil). The
// graph is built once per run and shared by every node.
var defaultGraph = map[MobilityKind]func() *mobility.Graph{
	CitySection:   mobility.NewCampusGraph,
	ManhattanGrid: mobility.NewManhattanGraph,
	HighwayConvoy: mobility.NewHighwayGraph,
}

// buildMobility builds one node's model. Only what scenarios vary comes
// from MobilitySpec; the rest are the per-kind constants every scenario
// runs with (the paper's §5.1 environments and the vehicular
// extensions).
func (r *runner) buildMobility() (mobility.Model, error) {
	m := r.sc.Mobility
	rng := r.eng.NewRand()
	switch m.Kind {
	case StaticNodes:
		p := geo.Pt(
			m.Area.Min.X+rng.Float64()*m.Area.Width(),
			m.Area.Min.Y+rng.Float64()*m.Area.Height(),
		)
		return mobility.Static{P: p}, nil
	case RandomWaypoint:
		cfg := mobility.WaypointConfig{
			Area:     m.Area,
			MinSpeed: m.MinSpeed,
			MaxSpeed: m.MaxSpeed,
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return mobility.NewWaypoint(cfg, rng), nil
	case CitySection:
		cfg := mobility.CityConfig{Graph: r.graph}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return mobility.NewCity(cfg, rng), nil
	case ManhattanGrid:
		cfg := mobility.ManhattanConfig{
			Graph:       r.graph,
			LightCycle:  m.LightCycle,
			RedFraction: m.RedFraction,
			DestPause:   10 * time.Second,
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return mobility.NewManhattan(cfg, rng), nil
	case HighwayConvoy:
		cfg := mobility.HighwayConfig{Graph: r.graph}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return mobility.NewHighway(cfg, rng), nil
	default:
		return nil, fmt.Errorf("netsim: unknown mobility kind %d", m.Kind)
	}
}

// macConfig returns the scenario's MAC config with a node-speed bound
// and index bounds derived from the mobility model, enabling the
// medium's cached spatial index (see mac.Config.SpeedBounded) and
// pre-sizing its dense cell slabs (see mac.Config.Bounds). Custom
// models stay conservative: their speeds and geometry are unknown, so
// the medium re-buckets per instant and derives bounds from positions
// at first use. Caller-supplied values are left untouched.
func (r *runner) macConfig() mac.Config {
	cfg := r.sc.MAC
	if r.sc.CustomModels != nil {
		return cfg
	}
	if cfg.Bounds == (geo.Rect{}) {
		switch r.sc.Mobility.Kind {
		case StaticNodes, RandomWaypoint:
			cfg.Bounds = r.sc.Mobility.Area
		case CitySection, ManhattanGrid, HighwayConvoy:
			// Vehicles travel straight roads between intersections, so
			// the street graph's bounding box contains every position.
			cfg.Bounds = r.graph.Bounds()
		}
	}
	if cfg.SpeedBounded {
		return cfg
	}
	switch r.sc.Mobility.Kind {
	case StaticNodes:
		cfg.SpeedBounded = true // MaxSpeed 0: nodes never move
	case RandomWaypoint:
		cfg.SpeedBounded, cfg.MaxSpeed = true, r.sc.Mobility.MaxSpeed
	case CitySection, ManhattanGrid, HighwayConvoy:
		// Graph-constrained vehicles never drive above a road's limit.
		cfg.SpeedBounded, cfg.MaxSpeed = true, r.graph.MaxSpeedLimit()
	}
	return cfg
}

// buildProtocol constructs one node's protocol instance through the
// proto registry: the scenario's ProtocolSpec names the factory, and
// the runner supplies the per-node environment (scheduler, transport,
// private RNG stream, delivery hook, speed source).
func (r *runner) buildProtocol(n *node) (proto.Disseminator, error) {
	sc := r.sc
	model, eng := n.model, r.eng
	env := proto.Env{
		ID:        n.id,
		Sched:     proto.EngineScheduler{Eng: r.eng},
		Transport: portTransport{port: n.port, r: r},
		Rand:      sim.NewStream(sc.Seed*7919 + int64(n.id)*104729 + 13),
		OnDeliver: r.deliverHook(n.id),
		Speed:     func() float64 { return model.Speed(eng.Now()) },
	}
	d, err := proto.Build(sc.Protocol.Name, sc.Protocol.Params, env)
	if err != nil {
		return nil, fmt.Errorf("netsim: node %v: %w", n.id, err)
	}
	return d, nil
}

// deliverHook streams node id's deliveries into the ledger and traces
// each first one.
func (r *runner) deliverHook(id event.NodeID) func(event.Event) {
	return func(ev event.Event) {
		now := r.eng.Now()
		if r.led.Deliver(ev.ID, id, now) && r.sc.Trace != nil {
			r.sc.Trace.Add(trace.Record{
				At:    now,
				Node:  id,
				Op:    trace.OpDeliver,
				Event: ev.ID,
			})
		}
	}
}

// schedule arms the warm-up snapshot and the workload pump that drives
// publications, crashes and (re)subscriptions.
func (r *runner) schedule() error {
	sc := r.sc
	warm := sim.At(sc.Warmup)
	// Snapshot first: scheduled before any same-instant publication, so
	// FIFO tie-breaking guarantees window counters include them.
	r.eng.At(warm, r.snapshot)
	if sc.Sample > 0 {
		// The sampler baseline shares the snapshot's FIFO position:
		// before same-instant workload ops, so the first window counts
		// them. It draws no RNG — pubRng below sees the same stream
		// with sampling on or off.
		r.startSampler(warm)
	}
	pubRng := r.eng.NewRand()
	gen, err := r.buildWorkload()
	if err != nil {
		return err
	}
	r.pump(gen, NewDriver(r, r.led, sc.EventTopic, pubRng))
	return nil
}

// buildWorkload assembles the run's op stream: the Schedule always
// runs (through workload.NewExplicit); a non-zero WorkloadSpec is
// built through the workload registry with its own RNG stream and
// merged in (ties to the Schedule).
func (r *runner) buildWorkload() (workload.Generator, error) {
	sc := r.sc
	gen := workload.NewExplicit(sc.Schedule)
	if sc.Workload.IsZero() {
		return gen, nil
	}
	env := workload.Env{
		Nodes:      sc.Nodes,
		Rand:       r.eng.NewRand(),
		Warmup:     sc.Warmup,
		Measure:    sc.Measure,
		EventTopic: sc.EventTopic,
	}
	wgen, err := workload.Build(sc.Workload.Name, sc.Workload.Params, env)
	if err != nil {
		return nil, fmt.Errorf("netsim: workload %q: %w", sc.Workload.Name, err)
	}
	return workload.Merge(gen, wgen), nil
}

// pump streams the workload into the engine with exactly one armed
// callback: apply the current op through the driver, pull the next,
// reschedule. A run with a million generated publications therefore
// never materializes an op slice — generation stays O(1) memory off the
// simulation's hot path. Ops come from either the validated Schedule
// or a registered generator held to the conformance suite, so an
// op the driver rejects is deterministic misconfiguration and fails the
// run.
func (r *runner) pump(gen workload.Generator, drv *Driver) {
	op, ok := gen.Next()
	if !ok {
		return
	}
	var fire func()
	fire = func() {
		cur := op
		if err := drv.Apply(cur, r.eng.Now()); err != nil {
			r.fail(err)
			return
		}
		next, ok := gen.Next()
		if !ok {
			return
		}
		if next.At < cur.At {
			r.fail(fmt.Errorf("netsim: workload %q emitted op at %v after %v (non-monotone)",
				r.sc.Workload, next.At, cur.At))
			return
		}
		op = next
		r.eng.Schedule(sim.At(op.At), fire)
	}
	r.eng.Schedule(sim.At(op.At), fire)
}

func (r *runner) snapshot() {
	r.snapProto = make([]proto.Stats, len(r.nodes))
	r.snapMAC = make([]mac.Counters, len(r.nodes))
	for i, n := range r.nodes {
		r.snapProto[i] = n.totalStats()
		r.snapMAC[i] = n.port.Counters()
	}
}

// The runner is the Driver's Cluster on the simulator.

func (r *runner) Up(i int) bool { return !r.nodes[i].down }

func (r *runner) Publish(i int, tp topic.Topic, validity time.Duration) (event.ID, error) {
	n := r.nodes[i]
	id, err := n.proto.Publish(tp, nil, validity)
	if tr := r.sc.Trace; err == nil && tr != nil {
		tr.Add(trace.Record{
			At:    r.eng.Now(),
			Node:  n.id,
			Op:    trace.OpPublish,
			Event: id,
		})
	}
	return id, err
}

func (r *runner) Crash(i int) {
	n := r.nodes[i]
	n.down = true
	n.prevStats = n.totalStats()
	n.proto.Stop()
}

func (r *runner) Recover(i int) error {
	n := r.nodes[i]
	n.down = false
	if err := r.start(n); err != nil {
		// Deterministic misconfiguration, not a runtime event: fail the
		// run instead of leaving the node silently down forever.
		// buildProtocol's wrap already names the node.
		return fmt.Errorf("recovering crashed node: %w", err)
	}
	return nil
}

func (r *runner) Subscribe(i int, tp topic.Topic) { _ = r.nodes[i].proto.Subscribe(tp) }

func (r *runner) Unsubscribe(i int, tp topic.Topic) { r.nodes[i].proto.Unsubscribe(tp) }

// collect assembles the Result after the run. Outcomes read directly
// off the ledger's per-event cells, so no delivery table is ever
// materialized.
func (r *runner) collect() *Result {
	res := &Result{
		Scenario:   r.sc,
		Published:  r.led.published,
		Deliveries: r.led.records,
		Latency:    r.led.lat,
		Outcomes:   r.led.Outcomes(),
		Nodes:      make([]NodeResult, len(r.nodes)),
	}
	if r.sampler != nil {
		res.Series = r.sampler.series
	}
	end := sim.At(r.sc.Warmup + r.sc.Measure)
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		o.Censored = o.At.Add(o.Validity) > end
	}
	for i, n := range r.nodes {
		proto := n.totalStats()
		macC := n.port.Counters()
		if r.snapProto != nil {
			proto = proto.Sub(r.snapProto[i])
			macC = macC.Sub(r.snapMAC[i])
		}
		res.Nodes[i] = NodeResult{
			ID:         n.id,
			Subscribed: n.subscribed,
			Proto:      proto,
			MAC:        macC,
		}
	}
	return res
}
