package netsim

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/event"
	"repro/internal/geo"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/proto"
	"repro/internal/sim"
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

// portTransport charges the scenario size model for every broadcast and
// feeds the optional trace.
type portTransport struct {
	port  *mac.Port
	sizes event.SizeModel
	r     *runner
}

func (t portTransport) Broadcast(m event.Message) {
	size := m.WireSize(t.sizes)
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
	// subIdx caches the EventTopic subscribers' node indices; the
	// assignment is fixed at build time, so anonymous publications
	// (Publisher -1) draw from this instead of rescanning all nodes.
	subIdx []int

	// Streaming result aggregation: every delivery folds into its
	// event's fixed-size cell (in-time counter, deduped by a shared
	// per-ID bitset) and the run-wide latency histogram at delivery
	// time, so result memory is one bit per (event, node) plus O(1)
	// per event — instead of the old per-(event, node) time table and
	// ever-growing DeliveryRecord list.
	//
	// cells is 1:1 with published (same order). groups shares one
	// first-delivery bitset among all publications carrying the same
	// event ID: a crash-recovered publisher replays its reseeded RNG
	// stream and can re-issue an earlier ID, and the aliased
	// publications then score against the union of deliveries, exactly
	// as the old shared delivery table did. subMask is the subscriber
	// roster as a bitset (fixed after build), used to seed an aliased
	// publication's in-time count from deliveries that preceded it.
	// pending buffers deliveries that arrive before their event's cell
	// exists — the publisher's local self-delivery fires inside
	// proto.Publish, before publish() can register the cell.
	cells   []eventCell
	groups  map[event.ID]*eventGroup
	subMask []uint64
	pending []DeliveryRecord
	// keepLog mirrors Scenario.DeliveryLog: keep full DeliveryRecords
	// (Result.Deliveries) for CoverageAt/DeliveryLatencies.
	keepLog   bool
	lat       metrics.LogHist
	records   []DeliveryRecord
	published []PublishedEvent

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
	r := &runner{
		sc:      sc,
		eng:     sim.New(sc.Seed),
		groups:  make(map[event.ID]*eventGroup),
		keepLog: sc.DeliveryLog,
	}
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
	numSubs := int(float64(sc.Nodes)*sc.SubscriberFraction + 0.5)
	for i, idx := range order {
		r.nodes[idx].subscribed = i < numSubs
	}
	// The assignment never changes after build (crashes keep their
	// flag; Resubscriptions alter protocol state, not this roster), so
	// cache the subscriber indices for anonymous publications instead
	// of rescanning all nodes per publish.
	for i, n := range r.nodes {
		if n.subscribed {
			r.subIdx = append(r.subIdx, i)
		}
	}
	r.subMask = make([]uint64, (sc.Nodes+63)/64)
	for _, i := range r.subIdx {
		r.subMask[uint(i)/64] |= uint64(1) << (uint(i) % 64)
	}
	for _, n := range r.nodes {
		proto, err := r.buildProtocol(n)
		if err != nil {
			return err
		}
		n.proto = proto
		tp := sc.DecoyTopic
		if n.subscribed {
			tp = sc.EventTopic
		}
		if err := n.proto.Subscribe(tp); err != nil {
			return err
		}
	}
	return nil
}

// defaultGraph maps each graph-constrained mobility kind to its default
// street-network builder (used when MobilitySpec.Graph is nil). The
// graph is built once per run and shared by every node.
var defaultGraph = map[MobilityKind]func() *mobility.Graph{
	CitySection:   mobility.NewCampusGraph,
	ManhattanGrid: mobility.NewManhattanGraph,
	HighwayConvoy: mobility.NewHighwayGraph,
}

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
			Pause:    m.Pause,
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return mobility.NewWaypoint(cfg, rng), nil
	case CitySection:
		cfg := mobility.CityConfig{
			Graph:     r.graph,
			StopProb:  m.StopProb,
			StopMin:   m.StopMin,
			StopMax:   m.StopMax,
			DestPause: m.DestPause,
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return mobility.NewCity(cfg, rng), nil
	case ManhattanGrid:
		cfg := mobility.ManhattanConfig{
			Graph:       r.graph,
			LightCycle:  m.LightCycle,
			RedFraction: m.RedFraction,
			DestPause:   m.DestPause,
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return mobility.NewManhattan(cfg, rng), nil
	case HighwayConvoy:
		// Convoy defaults were filled by Scenario.withDefaults.
		cfg := mobility.HighwayConfig{
			Graph:     r.graph,
			Platoons:  m.Platoons,
			CruiseMin: m.CruiseMin,
			CruiseMax: m.CruiseMax,
			RampPause: m.RampPause,
		}
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
		Transport: portTransport{port: n.port, sizes: sc.Sizes, r: r},
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

// eventCell is the fixed-size per-publication accumulator that replaces
// the per-(event, node) delivery-time table: enough to compute the
// publication's EventOutcome exactly.
type eventCell struct {
	// eligible is |subscribers| minus the publisher (if subscribed),
	// frozen at publish time — valid because the subscription roster
	// never changes after build (see runner.subIdx).
	eligible int32
	// inTime counts eligible first deliveries at or before deadline.
	inTime    int32
	publisher event.NodeID
	at        sim.Time
	deadline  sim.Time
}

// eventGroup joins the publications sharing one event ID: bits is their
// common first-delivery bitset, cells the indices of their eventCells
// (publish order; almost always exactly one).
type eventGroup struct {
	bits  []uint64
	cells []int32
}

// deliver folds one delivery into the event's group: first-delivery
// dedup via the shared bitset, then every publication's in-time counter
// and the streaming latency histogram. Returns false for duplicates.
func (r *runner) deliver(g *eventGroup, id event.NodeID, at sim.Time) bool {
	w, m := uint(id)/64, uint64(1)<<(uint(id)%64)
	if g.bits[w]&m != 0 {
		return false
	}
	g.bits[w] |= m
	sub := r.nodes[id].subscribed
	for _, ci := range g.cells {
		c := &r.cells[ci]
		if sub && id != c.publisher && at <= c.deadline {
			c.inTime++
		}
	}
	// Latency is scored against the newest publication of the ID (for
	// the overwhelmingly common single-publication case: the only one).
	c := &r.cells[g.cells[len(g.cells)-1]]
	if id != c.publisher && at <= c.deadline {
		r.lat.Add(at.Sub(c.at).Seconds())
	}
	return true
}

// deliverHook streams first deliveries per (event, node) into the
// event's group. Deliveries for a not-yet-registered event (the
// publisher's self-delivery inside proto.Publish) buffer in pending
// until publish() registers the cell.
func (r *runner) deliverHook(id event.NodeID) func(event.Event) {
	return func(ev event.Event) {
		now := r.eng.Now()
		if g, ok := r.groups[ev.ID]; ok {
			if !r.deliver(g, id, now) {
				return
			}
		} else {
			for _, p := range r.pending {
				if p.Event == ev.ID && p.Node == id {
					return // duplicate before registration
				}
			}
			r.pending = append(r.pending, DeliveryRecord{Event: ev.ID, Node: id, At: now})
		}
		if r.keepLog {
			r.records = append(r.records, DeliveryRecord{
				Event: ev.ID,
				Node:  id,
				At:    now,
			})
		}
		r.traceAdd(trace.Record{
			At:    now,
			Node:  id,
			Op:    trace.OpDeliver,
			Event: ev.ID,
		})
	}
}

// popcountAnd counts the set bits of a ∧ b.
func popcountAnd(a, b []uint64) int32 {
	var n int32
	for i, w := range a {
		n += int32(bits.OnesCount64(w & b[i]))
	}
	return n
}

// traceAdd records into the optional scenario trace.
func (r *runner) traceAdd(rec trace.Record) {
	if r.sc.Trace != nil {
		r.sc.Trace.Add(rec)
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
	r.pump(gen, pubRng)
	return nil
}

// explicitOps converts the scenario's hand-written lists into one
// sorted op schedule for the "explicit" generator. The pre-sort slice
// order encodes the tie-break for same-instant ops (publications in
// list order, then each crash with its recovery, then
// resubscriptions), matching the engine's historical FIFO order when
// the lists were scheduled up front.
func (r *runner) explicitOps() []workload.Op {
	sc := r.sc
	ops := make([]workload.Op, 0, len(sc.Publications)+2*len(sc.Crashes)+len(sc.Resubscriptions))
	for _, p := range sc.Publications {
		ops = append(ops, workload.Op{
			At:       sc.Warmup + p.Offset,
			Kind:     workload.Publish,
			Node:     p.Publisher,
			Topic:    p.Topic,
			Validity: p.Validity,
		})
	}
	for _, c := range sc.Crashes {
		ops = append(ops, workload.Op{At: c.At, Kind: workload.Crash, Node: c.Node})
		if c.RecoverAt != 0 {
			ops = append(ops, workload.Op{At: c.RecoverAt, Kind: workload.Recover, Node: c.Node})
		}
	}
	for _, rs := range sc.Resubscriptions {
		kind := workload.Subscribe
		if rs.Unsubscribe {
			kind = workload.Unsubscribe
		}
		ops = append(ops, workload.Op{At: rs.At, Kind: kind, Node: rs.Node, Topic: rs.Topic})
	}
	workload.SortOps(ops)
	return ops
}

// buildWorkload assembles the run's op stream: the explicit lists
// always run (as the "explicit" generator); a non-zero WorkloadSpec is
// built through the workload registry with its own RNG stream and
// merged in (ties to the explicit schedule).
func (r *runner) buildWorkload() (workload.Generator, error) {
	sc := r.sc
	gen := workload.NewExplicit(r.explicitOps())
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
// callback: apply the current op, pull the next, reschedule. A run with
// a million generated publications therefore never materializes an op
// slice — generation stays O(1) memory off the simulation's hot path.
func (r *runner) pump(gen workload.Generator, pubRng *rand.Rand) {
	op, ok := gen.Next()
	if !ok {
		return
	}
	var fire func()
	fire = func() {
		cur := op
		r.apply(cur, pubRng)
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

// apply executes one workload op. Ops come from either the validated
// explicit lists or a registered generator held to the conformance
// suite; out-of-range ops are deterministic misconfiguration and fail
// the run.
func (r *runner) apply(op workload.Op, pubRng *rand.Rand) {
	minNode := 0
	if op.Kind == workload.Publish {
		minNode = -1 // -1 publishes from a random subscriber
	}
	if op.Node < minNode || op.Node >= r.sc.Nodes {
		r.fail(fmt.Errorf("netsim: workload %s op node %d out of range [%d,%d)",
			op.Kind, op.Node, minNode, r.sc.Nodes))
		return
	}
	switch op.Kind {
	case workload.Publish:
		if op.Validity <= 0 {
			r.fail(fmt.Errorf("netsim: workload publish without validity at %v", op.At))
			return
		}
		r.publish(Publication{Publisher: op.Node, Topic: op.Topic, Validity: op.Validity}, pubRng)
	case workload.Crash:
		r.crash(op.Node)
	case workload.Recover:
		r.recover(op.Node)
	case workload.Subscribe, workload.Unsubscribe:
		n := r.nodes[op.Node]
		if n.down {
			return
		}
		tp := op.Topic
		if tp.IsZero() {
			tp = r.sc.EventTopic
		}
		if op.Kind == workload.Unsubscribe {
			n.proto.Unsubscribe(tp)
		} else {
			_ = n.proto.Subscribe(tp)
		}
	default:
		r.fail(fmt.Errorf("netsim: unknown workload op kind %v", op.Kind))
	}
}

func (r *runner) snapshot() {
	r.snapProto = make([]proto.Stats, len(r.nodes))
	r.snapMAC = make([]mac.Counters, len(r.nodes))
	for i, n := range r.nodes {
		r.snapProto[i] = n.totalStats()
		r.snapMAC[i] = n.port.Counters()
	}
}

func (r *runner) publish(p Publication, rng *rand.Rand) {
	idx := p.Publisher
	if idx < 0 {
		if len(r.subIdx) == 0 {
			return // nobody to publish; recorded as zero events
		}
		idx = r.subIdx[rng.Intn(len(r.subIdx))]
	}
	n := r.nodes[idx]
	if n.down {
		return
	}
	tp := p.Topic
	if tp.IsZero() {
		tp = r.sc.EventTopic
	}
	id, err := n.proto.Publish(tp, nil, p.Validity)
	if err != nil {
		// Any buffered self-delivery belongs to a failed (unregistered)
		// publication; it was already logged/traced on arrival.
		r.pending = r.pending[:0]
		return
	}
	now := r.eng.Now()
	eligible := int32(len(r.subIdx))
	if n.subscribed {
		eligible--
	}
	ci := int32(len(r.cells))
	cell := eventCell{
		eligible:  eligible,
		publisher: n.id,
		at:        now,
		deadline:  now.Add(p.Validity),
	}
	g := r.groups[id]
	if g == nil {
		g = &eventGroup{bits: make([]uint64, (r.sc.Nodes+63)/64)}
		r.groups[id] = g
	} else {
		// Aliased re-publication (see runner.groups): every first
		// delivery so far precedes this publish and hence its deadline,
		// so the new outcome starts from the delivered subscribers.
		cell.inTime = popcountAnd(g.bits, r.subMask)
		w, m := uint(n.id)/64, uint64(1)<<(uint(n.id)%64)
		if n.subscribed && g.bits[w]&m != 0 {
			cell.inTime-- // the new publisher never scores itself
		}
	}
	r.cells = append(r.cells, cell)
	g.cells = append(g.cells, ci)
	for _, pd := range r.pending {
		// The publisher's local delivery from inside proto.Publish.
		if pd.Event == id {
			r.deliver(g, pd.Node, pd.At)
		}
	}
	r.pending = r.pending[:0]
	r.published = append(r.published, PublishedEvent{
		ID:        id,
		Publisher: n.id,
		Topic:     tp,
		At:        now,
		Validity:  p.Validity,
	})
	r.traceAdd(trace.Record{
		At:    now,
		Node:  n.id,
		Op:    trace.OpPublish,
		Event: id,
	})
}

func (r *runner) crash(idx int) {
	n := r.nodes[idx]
	if n.down {
		return
	}
	n.down = true
	n.prevStats = n.totalStats()
	n.proto.Stop()
}

func (r *runner) recover(idx int) {
	n := r.nodes[idx]
	if !n.down {
		return
	}
	p, err := r.buildProtocol(n)
	if err != nil {
		// Deterministic misconfiguration, not a runtime event: fail the
		// run instead of leaving the node silently down forever.
		// buildProtocol's wrap already names the node.
		r.fail(fmt.Errorf("recovering crashed node: %w", err))
		return
	}
	n.proto = p
	n.down = false
	tp := r.sc.DecoyTopic
	if n.subscribed {
		tp = r.sc.EventTopic
	}
	_ = n.proto.Subscribe(tp)
}

// collect assembles the Result after the run. Outcomes read directly
// off the per-event cells (cells is 1:1 with Published, same order), so
// no delivery table is ever materialized.
func (r *runner) collect() *Result {
	res := &Result{
		Scenario:   r.sc,
		Published:  r.published,
		Deliveries: r.records,
		Latency:    r.lat,
		Nodes:      make([]NodeResult, len(r.nodes)),
	}
	if r.sampler != nil {
		res.Series = r.sampler.series
	}
	if len(r.published) > 0 {
		res.Outcomes = make([]EventOutcome, len(r.published))
	}
	for i, pe := range r.published {
		c := r.cells[i]
		res.Outcomes[i] = EventOutcome{
			PublishedEvent:  pe,
			Eligible:        int(c.eligible),
			DeliveredInTime: int(c.inTime),
		}
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
