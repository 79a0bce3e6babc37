// Command loadgen soak-tests the real pubsub fast path: it instantiates
// N full protocol nodes on in-process UDP loopback sockets, drives them
// with the same registered workload generators the simulator uses, and
// reports what the wire actually did — delivery ratio, protocol messages
// per delivery, datagram throughput, publish-to-delivery latency
// quantiles — next to the prediction netsim.Run makes for the matching
// scenario.
//
// That side-by-side is the point: the simulator's claims about the
// protocol are validated against real sockets, real goroutines, and the
// real codec under load, with the transport's backpressure counters
// (send-ring drops, kernel receive drops, decode errors) surfaced
// alongside.
//
// The mesh shape is configurable. -visibility 1 (default) builds the
// full mesh of earlier revisions; below 1 it builds a circulant partial
// mesh — node i sees only its k nearest ring neighbors on each side,
// k ~ visibility*(N-1)/2 — so events must cross multiple real-socket
// hops and the epidemic repair actually runs on the wire. -membership
// dynamic switches the roster from static wiring to the deployment
// story: nodes seed only their forward ring arcs, learn the reverse
// arcs from observed datagram sources (LearnPeers), and evict silent
// peers after -suspicion. -churn adds crash/recover waves from the
// registered churn-nodes generator: a crashed node's sockets close
// mid-run, a recovered one rebinds the same address with empty state
// and resubscribes.
//
// Both sides run the same generator with the same parameters, and both
// apply its ops through one netsim.Driver and score them in one
// netsim.Ledger, so what an op does and which delivery counts are
// decided in one place. The draws differ: the mirror seeds its
// generator from its engine, while the real mesh seeds it with
// sim.NewStream of the -seed value and draws anonymous publishers from
// that same stream. The two runs therefore see the same kind of op stream, not
// the same ops.
//
// The run is observable while it happens: -metrics-addr serves the
// whole mesh's counters as Prometheus text on /metrics (plus
// /metrics.json, /healthz, per-node flight-recorder dumps on
// /flight?node=N, and net/http/pprof), a progress line lands on stderr
// every -progress interval, and -json writes a machine-readable final
// report — the artifact CI asserts against. -check failures print that
// full report plus a flight dump, so a failed soak is diagnosable from
// logs alone.
//
// Examples:
//
//	loadgen -nodes 50 -duration 10s                  # default poisson soak
//	loadgen -nodes 50 -duration 5s -check            # CI smoke: assert vs sim
//	loadgen -visibility 0.3                          # partial mesh: multi-hop epidemic
//	loadgen -membership dynamic -suspicion 2s        # seed-based join + failure detection
//	loadgen -churn 0.2 -churn-down 3s                # crash/recover waves
//	loadgen -metrics-addr 127.0.0.1:0                # scrape /metrics live
//	loadgen -json report.json -check                 # machine-readable verdict
//	loadgen -workload flash-crowd -rate 5 -peak 200  # burst overload
//	loadgen -list                                    # traffic generator catalog
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/geo"
	"repro/internal/mac"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topic"
	"repro/internal/workload"
	"repro/pubsub"
)

func main() {
	os.Exit(run())
}

// meshCfg is everything needed to (re)build a node: the harness churn
// executor recreates crashed nodes with the same identity and address.
type meshCfg struct {
	hb     time.Duration
	tun    pubsub.UDPTuning
	flight int
	// Nodes below subs subscribe to topic, the others to decoy.
	subs         int
	topic, decoy topic.Topic
}

// mesh owns the node set and its topology, and is the netsim.Cluster the
// op loop drives. The op loop mutates it (crash/recover); the progress
// ticker, metrics scrapes, final sweep and every node's OnDeliver reach
// it concurrently under mu. nodes[i] == nil means node i is down.
type mesh struct {
	cfg meshCfg
	// start is the run's time origin: ops and deliveries are timed from
	// it as sim.Time.
	start time.Time
	mu    sync.Mutex
	nodes []*pubsub.Node
	addrs []string // stable concrete listen addresses, fixed at first bind
	// visible[i] is i's undirected circulant neighborhood; forward[i]
	// the half used as seeds under dynamic membership (the other half
	// is learned from datagram sources).
	visible [][]int
	forward [][]int

	// Stats of closed node instances: a crash must not lose its
	// counters, exactly like the sim's prevStats accumulation.
	retiredProto pubsub.Stats
	retiredWire  pubsub.TransportStats

	// inbox holds the deliveries reported since the op loop last drained
	// it. The ledger stays on the op loop's goroutine: OnDeliver may run
	// inside that goroutine's own Publish call, so it only queues.
	inbox []netsim.DeliveryRecord
	// published and inTime mirror the ledger's totals for the progress
	// line and the metrics registry, refreshed at each drain.
	published, inTime   atomic.Int64
	crashes, recoveries atomic.Int64
}

// circulant computes the ring-neighbor topology: every node sees the k
// nearest nodes on each side, k ~ visibility*(N-1)/2 (at least 1, full
// mesh at visibility 1). The forward arcs alone reach every edge, so
// seeding only those under LearnPeers converges to the same undirected
// graph — with half the roster genuinely learned off the wire.
func circulant(n int, visibility float64) (visible, forward [][]int) {
	k := int(math.Ceil(visibility*float64(n-1)/2 - 1e-9))
	if k < 1 {
		k = 1
	}
	visible = make([][]int, n)
	forward = make([][]int, n)
	for i := 0; i < n; i++ {
		seen := map[int]bool{i: true}
		for d := 1; d <= k; d++ {
			fwd := (i + d) % n
			if !seen[fwd] {
				seen[fwd] = true
				forward[i] = append(forward[i], fwd)
				visible[i] = append(visible[i], fwd)
			}
			back := (i - d + n) % n
			if !seen[back] {
				seen[back] = true
				visible[i] = append(visible[i], back)
			}
		}
	}
	return visible, forward
}

// buildNode creates (or recreates) node i. For the first build addr is
// "127.0.0.1:0"; recoveries rebind the node's original concrete address
// so existing rosters stay valid.
func (m *mesh) buildNode(i int, addr string, peers []string) (*pubsub.Node, error) {
	id := pubsub.NodeID(i)
	cfg := pubsub.Config{
		ID:           id,
		HBDelay:      m.cfg.hb,
		HBLowerBound: m.cfg.hb,
		HBUpperBound: m.cfg.hb,
		OnDeliver: func(ev pubsub.Event) {
			at := sim.At(time.Since(m.start))
			m.mu.Lock()
			m.inbox = append(m.inbox, netsim.DeliveryRecord{Event: ev.ID, Node: id, At: at})
			m.mu.Unlock()
		},
	}
	n, err := pubsub.NewUDPNodeTuned(cfg, addr, peers, m.cfg.tun)
	if err != nil {
		return nil, err
	}
	tp := m.cfg.decoy
	if i < m.cfg.subs {
		tp = m.cfg.topic
	}
	if err := n.Subscribe(tp); err != nil {
		n.Close()
		return nil, err
	}
	if m.cfg.flight > 0 {
		n.StartFlightRecorder(m.cfg.flight)
	}
	return n, nil
}

// peersFor returns the roster node i is (re)wired with: the full
// visible set under static membership, only the forward seeds under
// dynamic (the rest is learned).
func (m *mesh) peersFor(i int) []string {
	idx := m.visible[i]
	if m.cfg.tun.LearnPeers {
		idx = m.forward[i]
	}
	out := make([]string, len(idx))
	for j, p := range idx {
		out[j] = m.addrs[p]
	}
	return out
}

// node returns node i or nil when it is down.
func (m *mesh) node(i int) *pubsub.Node {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nodes[i]
}

// Up, Publish, Crash, Recover, Subscribe and Unsubscribe make the mesh
// the netsim.Cluster the op loop drives.

func (m *mesh) Up(i int) bool { return m.node(i) != nil }

func (m *mesh) Publish(i int, tp topic.Topic, validity time.Duration) (event.ID, error) {
	return m.node(i).Publish(tp, []byte("soak payload"), validity)
}

// Crash closes node i mid-run, preserving its counters.
func (m *mesh) Crash(i int) {
	m.mu.Lock()
	n := m.nodes[i]
	m.nodes[i] = nil
	m.retiredProto = m.retiredProto.Add(n.Stats())
	m.retiredWire = m.retiredWire.Add(n.TransportStats())
	m.mu.Unlock()
	m.crashes.Add(1)
	n.Close()
}

// Recover rebuilds node i with empty protocol state on its original
// address and resubscribes it. A failed rebind (address stolen
// meanwhile) leaves the node down and is reported, not fatal, matching
// a deployment where a host simply fails to come back.
func (m *mesh) Recover(i int) error {
	n, err := m.buildNode(i, m.addrs[i], m.peersFor(i))
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: recover node %d: %v\n", i, err)
		return nil
	}
	m.mu.Lock()
	m.nodes[i] = n
	m.mu.Unlock()
	m.recoveries.Add(1)
	return nil
}

func (m *mesh) Subscribe(i int, tp topic.Topic) { _ = m.node(i).Subscribe(tp) }

func (m *mesh) Unsubscribe(i int, tp topic.Topic) { m.node(i).Unsubscribe(tp) }

// drain folds the queued deliveries into l.
func (m *mesh) drain(l *netsim.Ledger) {
	m.mu.Lock()
	in := m.inbox
	m.inbox = nil
	m.mu.Unlock()
	for _, d := range in {
		l.Deliver(d.Event, d.Node, d.At)
	}
	published, inTime, _ := l.Totals()
	m.published.Store(int64(published))
	m.inTime.Store(int64(inTime))
}

// drive runs gen's ops on the mesh in wall time, through drv, folding
// deliveries into drv's ledger l before each op.
func (m *mesh) drive(drv *netsim.Driver, l *netsim.Ledger, gen workload.Generator) error {
	for op, ok := gen.Next(); ok; op, ok = gen.Next() {
		time.Sleep(time.Until(m.start.Add(op.At)))
		m.drain(l)
		if err := drv.Apply(op, sim.At(time.Since(m.start))); err != nil {
			return err
		}
	}
	return nil
}

// settle drains deliveries until their count stops moving (or a hard
// cap): events published near the end are still spreading, and the
// ratio should measure the protocol rather than the harness's patience
// — race-instrumented or loaded runs legitimately take longer.
func (m *mesh) settle(l *netsim.Ledger) {
	last := int64(-1)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(300 * time.Millisecond) {
		m.drain(l)
		got := m.inTime.Load()
		if got == last {
			return
		}
		last = got
	}
}

// totals sums protocol and wire counters across live nodes plus the
// retired accumulator, so crashed instances keep counting.
func (m *mesh) totals() (pubsub.Stats, pubsub.TransportStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, w := m.retiredProto, m.retiredWire
	for _, n := range m.nodes {
		if n != nil {
			p = p.Add(n.Stats())
			w = w.Add(n.TransportStats())
		}
	}
	return p, w
}

// newMesh binds n nodes on ephemeral loopback sockets (addresses must
// be known before wiring), then applies the circulant topology: the
// whole visible set under static membership, forward seeds only under
// dynamic, where the reverse arcs are learned from heartbeat datagram
// sources. The mesh's clock starts now.
func newMesh(cfg meshCfg, n int, visibility float64) (*mesh, error) {
	m := &mesh{cfg: cfg, start: time.Now(), nodes: make([]*pubsub.Node, n), addrs: make([]string, n)}
	m.visible, m.forward = circulant(n, visibility)
	for i := range m.nodes {
		node, err := m.buildNode(i, "127.0.0.1:0", nil)
		if err != nil {
			m.closeAll()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		m.nodes[i] = node
		m.addrs[i] = node.LocalAddr()
	}
	for i, node := range m.nodes {
		for _, p := range m.peersFor(i) {
			if err := node.AddPeer(p); err != nil {
				m.closeAll()
				return nil, err
			}
		}
	}
	return m, nil
}

func (m *mesh) closeAll() {
	m.mu.Lock()
	nodes := append([]*pubsub.Node(nil), m.nodes...)
	m.mu.Unlock()
	for _, n := range nodes {
		if n != nil {
			n.Close()
		}
	}
}

func run() int {
	var (
		nodes    = flag.Int("nodes", 50, "number of in-process UDP nodes")
		duration = flag.Duration("duration", 10*time.Second, "measurement window")
		warmup   = flag.Duration("warmup", time.Second, "discovery warm-up before measurement")
		subs     = flag.Float64("subscribers", 1.0, "fraction subscribed to the event topic")
		wkld     = flag.String("workload", "poisson", "traffic generator (see -list)")
		rate     = flag.Float64("rate", 20, "publication rate in events/s (flash-crowd: base rate)")
		peak     = flag.Float64("peak", 100, "flash-crowd peak rate in events/s")
		spread   = flag.Int("spread", 0, "publish across N sibling subtopics (0/1 = the event topic itself)")
		zipf     = flag.Float64("zipf", 0, "Zipf(s) topic popularity skew (0 = uniform; needs -spread > 1)")
		validity = flag.Duration("validity", 60*time.Second, "event validity period")
		seed     = flag.Int64("seed", 1, "workload + sim seed")
		hb       = flag.Duration("hb", 200*time.Millisecond, "heartbeat period (lower = more datagrams/s)")
		vis      = flag.Float64("visibility", 1.0,
			"fraction of the mesh each node sees (circulant ring topology; 1 = full mesh, lower = multi-hop epidemic repair)")
		membership = flag.String("membership", "static",
			"roster mode: static (full visible roster wired up front) | dynamic (forward seeds + LearnPeers + suspicion eviction)")
		suspicion = flag.Duration("suspicion", 2*time.Second,
			"dynamic membership: evict peers silent for this long (several heartbeat periods)")
		churn = flag.Float64("churn", 0,
			"fraction of the roster crashed per churn wave (0 = no churn; uses the churn-nodes generator)")
		churnWaves = flag.Int("churn-waves", 2, "number of churn waves across the measurement window")
		churnDown  = flag.Duration("churn-down", 5*time.Second,
			"downtime before a crashed node recovers with empty state (negative = never)")
		check = flag.Bool("check", false,
			"assert the soak: nonzero deliveries, zero decode errors, delivery ratio within -band of the sim prediction (exit 1 on failure)")
		band        = flag.Float64("band", 0.35, "allowed |real - sim| delivery-ratio gap under -check")
		minDPS      = flag.Float64("min-dps", 0, "under -check, minimum sustained datagrams/s (0 = don't assert)")
		list        = flag.Bool("list", false, "list registered traffic generators and exit")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /metrics.json, /healthz, /flight and pprof on this address for the run (e.g. 127.0.0.1:0; the bound address is printed)")
		flight      = flag.Int("flight", 256, "per-node flight recorder capacity (0 = off); dump over /flight?node=N or on -check failure")
		jsonOut     = flag.String("json", "", "write the machine-readable final report to this file as JSON")
		progress    = flag.Duration("progress", 5*time.Second, "print a live progress line every interval (0 = off)")
	)
	flag.Parse()
	// The -workload table, built from the rate flags: -list prints
	// exactly these generators and nothing else is accepted.
	topics := workload.TopicModel{Spread: *spread, ZipfS: *zipf}
	traffic := []workload.Spec{
		{Name: "poisson", Params: workload.PoissonParams{Rate: *rate, Validity: *validity, Topics: topics}},
		{Name: "flash-crowd", Params: workload.FlashCrowdParams{BaseRate: *rate, PeakRate: *peak, Validity: *validity, Topics: topics}},
	}
	if *list {
		for _, s := range traffic {
			d, _ := workload.LookupWorkload(s.Name)
			fmt.Printf("%-14s %s\n", s.Name, d.Description)
		}
		return 0
	}
	if *nodes < 2 {
		fmt.Fprintln(os.Stderr, "loadgen: need at least 2 nodes")
		return 2
	}
	if *vis <= 0 || *vis > 1 {
		fmt.Fprintln(os.Stderr, "loadgen: -visibility must be in (0,1]")
		return 2
	}
	dynamic := false
	switch *membership {
	case "static":
	case "dynamic":
		dynamic = true
	default:
		fmt.Fprintf(os.Stderr, "loadgen: unsupported membership %q (static | dynamic)\n", *membership)
		return 2
	}
	if *churn < 0 || *churn > 1 {
		fmt.Fprintln(os.Stderr, "loadgen: -churn must be in [0,1]")
		return 2
	}

	// The op stream spec — one description, two executors: the real mesh
	// below and the netsim mirror. With churn the traffic generator is
	// mixed with crash/recover waves; the stagger scales with the window
	// so short CI runs still fit their waves.
	var spec workload.Spec
	var names []string
	for _, s := range traffic {
		if s.Name == *wkld {
			spec = s
		}
		names = append(names, s.Name)
	}
	if spec.IsZero() {
		fmt.Fprintf(os.Stderr, "loadgen: unsupported workload %q (%s)\n", *wkld, strings.Join(names, " | "))
		return 2
	}
	if *churn > 0 {
		spec = workload.Spec{Name: "mix", Params: workload.MixParams{Parts: []workload.Spec{
			spec,
			{Name: "churn-nodes", Params: workload.NodeChurnParams{
				Waves:    *churnWaves,
				Fraction: *churn,
				Stagger:  *duration / 10,
				Downtime: *churnDown,
			}},
		}}}
	}
	if err := workload.CheckParams(spec.Name, spec.Params); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 2
	}

	eventTopic := topic.MustParse(".soak.events")
	decoyTopic := topic.MustParse(".soak.decoy")
	// The mirror's rule: an anonymous publication with no subscriber to
	// draw is skipped on both sides.
	numSubs := int(float64(*nodes)*(*subs) + 0.5)
	roster := make([]int, numSubs)
	for i := range roster {
		roster[i] = i
	}

	var tun pubsub.UDPTuning
	if dynamic {
		tun = pubsub.UDPTuning{LearnPeers: true, Suspicion: *suspicion}
	}
	ms, err := newMesh(meshCfg{
		hb: *hb, tun: tun, flight: *flight,
		subs: numSubs, topic: eventTopic, decoy: decoyTopic,
	}, *nodes, *vis)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 2
	}
	defer ms.closeAll()

	// Observability: per-node flight recorders (armed in buildNode),
	// every node's counters in one registry, and an optional HTTP
	// listener for live scrapes and flight dumps. Registration is
	// per-instance; recovered instances keep the original instance's
	// registration (the registry is first-wins), so scrape series stay
	// stable across churn even though a recovered node's counters
	// restart — the totals in the final report use mesh.totals, which
	// does account churn.
	reg := obs.NewRegistry()
	reg.CounterFunc("repro_loadgen_published_total",
		"events published by the harness", func() uint64 { return uint64(ms.published.Load()) })
	reg.CounterFunc("repro_loadgen_delivered_total",
		"in-time deliveries scored across the mesh", func() uint64 { return uint64(ms.inTime.Load()) })
	reg.GaugeFunc("repro_loadgen_nodes",
		"mesh size", func() float64 { return float64(*nodes) })
	reg.GaugeFunc("repro_loadgen_nodes_up",
		"nodes currently up (mesh size minus crashed)", func() float64 {
			return float64(int64(*nodes) - ms.crashes.Load() + ms.recoveries.Load())
		})
	for _, n := range ms.nodes {
		n.RegisterMetrics(reg)
	}
	if *metricsAddr != "" {
		mux := obs.NewMux(reg)
		mux.HandleFunc("/flight", func(w http.ResponseWriter, r *http.Request) {
			i, err := strconv.Atoi(r.URL.Query().Get("node"))
			if err != nil || i < 0 || i >= *nodes {
				http.Error(w, fmt.Sprintf("usage: /flight?node=<0..%d>", *nodes-1), http.StatusBadRequest)
				return
			}
			n := ms.node(i)
			if n == nil {
				http.Error(w, fmt.Sprintf("node %d is down (churn)", i), http.StatusNotFound)
				return
			}
			if err := n.WriteFlight(w); err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
			}
		})
		srv, err := obs.Serve(*metricsAddr, mux)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: metrics: %v\n", err)
			return 2
		}
		defer srv.Close()
		// The bound address line is machine-readable on purpose: tests
		// and scripts bind :0 and scrape whatever port came back.
		fmt.Printf("metrics: http://%s/metrics (pprof under /debug/pprof/)\n", srv.Addr())
	}

	// The generator the mirror runs, with the mirror's parameters; its
	// stream also draws the anonymous publishers (see the package doc).
	rng := sim.NewStream(*seed)
	gen, err := workload.Build(spec.Name, spec.Params, workload.Env{
		Nodes:      *nodes,
		Rand:       rng,
		Warmup:     *warmup,
		Measure:    *duration,
		EventTopic: eventTopic,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 2
	}

	fmt.Printf("loadgen: %d nodes (%d subscribers), visibility %.2f (%s membership), %s + %s %s workload, hb %s, churn %.2f\n",
		*nodes, numSubs, *vis, *membership, *warmup, *duration, *wkld, *hb, *churn)

	start := ms.start
	end := start.Add(*warmup + *duration)
	stopProgress := func() {}
	if *progress > 0 {
		done := make(chan struct{})
		var once sync.Once
		stopProgress = func() { once.Do(func() { close(done) }) }
		go func() {
			tick := time.NewTicker(*progress)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					_, w := ms.totals()
					fmt.Fprintf(os.Stderr, "progress: t=%-6s published %d  delivered %d  datagrams %d  drops send-ring %d kernel-recv %d  churn %d/%d\n",
						time.Since(start).Round(time.Second), ms.published.Load(), ms.inTime.Load(),
						w.DatagramsSent, w.Dropped, w.RecvDropped, ms.crashes.Load(), ms.recoveries.Load())
				}
			}
		}()
	}
	defer stopProgress()
	// Throughput, CPU and message counters cover the measurement window
	// only: baselines are snapshotted once warm-up ends, and the netsim
	// mirror runs after the window closes.
	time.Sleep(time.Until(start.Add(*warmup)))
	baseProto, baseWire := ms.totals()
	measureStart, cpuStart := time.Now(), processCPU()

	led := netsim.NewLedger(*nodes, roster, false)
	if err := ms.drive(netsim.NewDriver(ms, led, eventTopic, rng), led, gen); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 2
	}
	time.Sleep(time.Until(end))
	ms.settle(led)
	cpu := (processCPU() - cpuStart).Seconds()

	proto, wire := ms.totals()
	proto = proto.Sub(baseProto)
	wire = wire.Sub(baseWire)
	elapsed := time.Since(measureStart).Seconds()
	crashes, recoveries := int(ms.crashes.Load()), int(ms.recoveries.Load())

	published, gotSum, eligSum := led.Totals()
	realRatio := 0.0
	if eligSum > 0 {
		realRatio = float64(gotSum) / float64(eligSum)
	}
	lat := led.Latency()

	protoMsgs := proto.HeartbeatsSent + proto.IDListsSent + proto.EventMsgsSent
	msgsPerDelivery := math.Inf(1)
	if gotSum > 0 {
		msgsPerDelivery = float64(protoMsgs) / float64(gotSum)
	}
	dps := float64(wire.DatagramsSent) / elapsed
	// The ROADMAP's real-path headline: datagrams per CPU-second of the
	// whole process (protocol, transport and harness alike).
	dpcs := 0.0
	if cpu > 0 {
		dpcs = float64(wire.DatagramsSent) / cpu
	}

	fmt.Printf("real:  published %d  delivered %d/%d (ratio %.3f)\n", published, gotSum, eligSum, realRatio)
	fmt.Printf("real:  proto msgs %d (%.1f per delivery)  datagrams %.0f/s (%.0f per CPU-second)  batches %d  mmsg sends %d\n",
		protoMsgs, msgsPerDelivery, dps, dpcs, wire.Batches, wire.MmsgSends)
	fmt.Printf("real:  latency ms p50 %.1f  p90 %.1f  p99 %.1f  (n=%d)\n",
		lat.Quantile(0.50)*1e3, lat.Quantile(0.90)*1e3, lat.Quantile(0.99)*1e3, lat.N())
	// Receive drops are the kernel's count of datagrams that found a
	// node's socket buffer full (0 off the Linux batched path).
	fmt.Printf("real:  drops send-ring %d kernel-recv %d  decode errs %d  send errs %d\n",
		wire.Dropped, wire.RecvDropped, wire.DecodeErrors, wire.SendErrors)
	if dynamic || crashes > 0 {
		fmt.Printf("real:  membership peers learned %d  evicted %d  crashes %d  recoveries %d\n",
			wire.PeersLearned, wire.PeersEvicted, crashes, recoveries)
	}

	// The matching simulation: same roster, same workload stream spec,
	// same heartbeat tuning, full radio connectivity standing in for the
	// loopback mesh (the partial-visibility gap between the two is part
	// of what the reported ratio_gap measures).
	simRes, err := netsim.Run(netsim.Scenario{
		Name:  "loadgen-mirror",
		Nodes: *nodes,
		Seed:  *seed,
		Protocol: netsim.FrugalSpec(netsim.CoreTuning{
			HBDelay: *hb, HBLowerBound: *hb, HBUpperBound: *hb,
		}),
		Mobility:           netsim.MobilitySpec{Kind: netsim.StaticNodes, Area: geo.NewRect(200, 200)},
		MAC:                mac.DefaultConfig(339), // diag(200,200) < 339 m: everyone hears everyone
		EventTopic:         eventTopic,
		DecoyTopic:         decoyTopic,
		SubscriberFraction: *subs,
		Workload:           netsim.WorkloadSpec{Name: spec.Name, Params: spec.Params},
		Warmup:             *warmup,
		Measure:            *duration,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: sim mirror: %v\n", err)
		return 2
	}
	simRatio := simRes.Reliability()
	fmt.Printf("sim:   delivery ratio %.3f  events/process %.1f  latency ms p50 %.1f p99 %.1f\n",
		simRatio, simRes.EventsSentPerProcess(),
		simRes.Latency.Quantile(0.50)*1e3, simRes.Latency.Quantile(0.99)*1e3)
	fmt.Printf("diff:  |real - sim| delivery ratio = %.3f\n", math.Abs(realRatio-simRatio))
	stopProgress()

	rep := report{
		Nodes:           *nodes,
		Subscribers:     numSubs,
		Workload:        *wkld,
		Visibility:      *vis,
		Membership:      *membership,
		ChurnFraction:   *churn,
		Crashes:         crashes,
		Recoveries:      recoveries,
		WarmupSeconds:   warmup.Seconds(),
		MeasureSeconds:  duration.Seconds(),
		Published:       published,
		Delivered:       gotSum,
		Eligible:        eligSum,
		RealRatio:       realRatio,
		SimRatio:        simRatio,
		RatioGap:        math.Abs(realRatio - simRatio),
		ProtoMsgs:       protoMsgs,
		DatagramsPerSec: dps,
		DatagramsPerCPU: dpcs,
		Batches:         wire.Batches,
		MmsgSends:       wire.MmsgSends,
		MmsgRecvs:       wire.MmsgRecvs,
		PeersLearned:    wire.PeersLearned,
		PeersEvicted:    wire.PeersEvicted,
		LatencyMsP50:    lat.Quantile(0.50) * 1e3,
		LatencyMsP90:    lat.Quantile(0.90) * 1e3,
		LatencyMsP99:    lat.Quantile(0.99) * 1e3,
		SendDrops:       wire.Dropped,
		RecvDrops:       wire.RecvDropped,
		DecodeErrors:    wire.DecodeErrors,
		SendErrors:      wire.SendErrors,
	}
	var checkFailure string
	if *check {
		switch gap := rep.RatioGap; {
		case published == 0 || gotSum == 0:
			checkFailure = fmt.Sprintf("no deliveries (published %d, delivered %d)", published, gotSum)
		case wire.DecodeErrors != 0:
			checkFailure = fmt.Sprintf("%d decode errors on the wire", wire.DecodeErrors)
		case gap > *band:
			checkFailure = fmt.Sprintf("delivery ratio %.3f vs sim %.3f: gap %.3f > band %.3f", realRatio, simRatio, gap, *band)
		case *minDPS > 0 && dps < *minDPS:
			checkFailure = fmt.Sprintf("throughput %.0f datagrams/s < required %.0f", dps, *minDPS)
		case dynamic && wire.PeersLearned == 0:
			checkFailure = "dynamic membership never learned a peer from a datagram source"
		case *churn > 0 && crashes == 0:
			checkFailure = "churn requested but no crash wave executed (window too short for the stagger?)"
		case *churn > 0 && *churnDown >= 0 && recoveries == 0:
			checkFailure = "churned nodes never recovered"
		case dynamic && *churn > 0 && *churnDown > *suspicion && wire.PeersEvicted == 0:
			checkFailure = "downtime exceeded the suspicion window but no peer was evicted"
		}
		rep.Check = &checkReport{Passed: checkFailure == "", Failure: checkFailure}
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: report: %v\n", err)
		return 2
	}
	blob = append(blob, '\n')
	if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, blob, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: report: %v\n", err)
			return 2
		}
	}
	if *check && checkFailure != "" {
		// Failures must be diagnosable from CI logs alone: the message,
		// the full report, and a recent-history flight dump all land on
		// stderr (plus the report file when -json is set).
		fmt.Fprintf(os.Stderr, "loadgen: CHECK FAILED: %s\n", checkFailure)
		if *jsonOut != "" {
			fmt.Fprintf(os.Stderr, "loadgen: full report (also at %s):\n%s", *jsonOut, blob)
		} else {
			fmt.Fprintf(os.Stderr, "loadgen: full report:\n%s", blob)
		}
		if *flight > 0 {
			if n := ms.node(0); n != nil {
				fmt.Fprintln(os.Stderr, "loadgen: flight recorder, node 0:")
				_ = n.WriteFlight(os.Stderr)
			}
		}
		return 1
	}
	if *check {
		fmt.Println("loadgen: CHECK OK")
	}
	return 0
}

// report is the -json machine-readable run summary; the CI soak asserts
// against it instead of scraping the human-oriented stdout lines.
type report struct {
	Nodes           int          `json:"nodes"`
	Subscribers     int          `json:"subscribers"`
	Workload        string       `json:"workload"`
	Visibility      float64      `json:"visibility"`
	Membership      string       `json:"membership"`
	ChurnFraction   float64      `json:"churn_fraction"`
	Crashes         int          `json:"crashes"`
	Recoveries      int          `json:"recoveries"`
	WarmupSeconds   float64      `json:"warmup_seconds"`
	MeasureSeconds  float64      `json:"measure_seconds"`
	Published       int          `json:"published"`
	Delivered       int          `json:"delivered"`
	Eligible        int          `json:"eligible"`
	RealRatio       float64      `json:"real_delivery_ratio"`
	SimRatio        float64      `json:"sim_delivery_ratio"`
	RatioGap        float64      `json:"ratio_gap"`
	ProtoMsgs       uint64       `json:"proto_msgs"`
	DatagramsPerSec float64      `json:"datagrams_per_second"`
	DatagramsPerCPU float64      `json:"datagrams_per_cpu_second"`
	Batches         uint64       `json:"batches"`
	MmsgSends       uint64       `json:"mmsg_sends"`
	MmsgRecvs       uint64       `json:"mmsg_recvs"`
	PeersLearned    uint64       `json:"peers_learned"`
	PeersEvicted    uint64       `json:"peers_evicted"`
	LatencyMsP50    float64      `json:"latency_ms_p50"`
	LatencyMsP90    float64      `json:"latency_ms_p90"`
	LatencyMsP99    float64      `json:"latency_ms_p99"`
	SendDrops       uint64       `json:"send_drops"`
	RecvDrops       uint64       `json:"recv_drops"`
	DecodeErrors    uint64       `json:"decode_errors"`
	SendErrors      uint64       `json:"send_errors"`
	Check           *checkReport `json:"check,omitempty"`
}

// checkReport records the -check verdict inside the JSON report.
type checkReport struct {
	Passed  bool   `json:"passed"`
	Failure string `json:"failure,omitempty"`
}
