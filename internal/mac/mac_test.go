package mac

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/geo"
	"repro/internal/sim"
)

// fixedLocator places nodes at immutable positions.
type fixedLocator map[event.NodeID]geo.Point

func (l fixedLocator) Position(id event.NodeID, _ sim.Time) geo.Point { return l[id] }

type rxLog struct {
	frames []Frame
	times  []sim.Time
}

func attach(m *Medium, eng *sim.Engine, id event.NodeID) *rxLog {
	log := &rxLog{}
	m.Attach(id, func(f Frame) {
		log.frames = append(log.frames, f)
		log.times = append(log.times, eng.Now())
	})
	return log
}

func hb(from event.NodeID) event.Message { return event.Heartbeat{From: from} }

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"default", func(*Config) {}, true},
		{"zero range", func(c *Config) { c.Range = 0 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig(300)
			tt.mut(&cfg)
			if err := cfg.Validate(); (err == nil) != tt.ok {
				t.Fatalf("Validate = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestAirtime(t *testing.T) {
	// 400 B payload + 28 B header at 2 Mbps = 1712 us + 192 us preamble.
	got := airtime(400)
	want := 192*time.Microsecond + 1712*time.Microsecond
	if got != want {
		t.Fatalf("Airtime(400) = %v, want %v", got, want)
	}
	if airtime(0) <= preamble {
		t.Fatal("empty frame still carries header airtime")
	}
}

func TestDeliveryWithinRange(t *testing.T) {
	eng := sim.New(1)
	loc := fixedLocator{1: geo.Pt(0, 0), 2: geo.Pt(100, 0), 3: geo.Pt(1000, 0)}
	m := New(eng, DefaultConfig(300), loc)
	p1 := m.Attach(1, nil)
	log2 := attach(m, eng, 2)
	log3 := attach(m, eng, 3)

	p1.Broadcast(hb(1), 50)
	eng.Run()

	if len(log2.frames) != 1 {
		t.Fatalf("in-range receiver got %d frames, want 1", len(log2.frames))
	}
	if log2.frames[0].From != 1 || log2.frames[0].AppBytes != 50 {
		t.Fatalf("frame = %+v", log2.frames[0])
	}
	if len(log3.frames) != 0 {
		t.Fatal("out-of-range receiver got a frame")
	}
	if c := p1.Counters(); c.FramesSent != 1 || c.AppBytesSent != 50 || c.MACBytesSent != 78 {
		t.Fatalf("sender counters = %+v", c)
	}
}

func TestDeliveryDelayIsAirtimePlusBackoff(t *testing.T) {
	eng := sim.New(1)
	loc := fixedLocator{1: geo.Pt(0, 0), 2: geo.Pt(10, 0)}
	cfg := DefaultConfig(300)
	m := New(eng, cfg, loc)
	p1 := m.Attach(1, nil)
	log2 := attach(m, eng, 2)

	p1.Broadcast(hb(1), 50)
	eng.Run()

	if len(log2.times) != 1 {
		t.Fatalf("got %d frames", len(log2.times))
	}
	minT := sim.Time(0).Add(difs + airtime(50))
	maxT := minT.Add(cwSlots * slotTime)
	if log2.times[0] < minT || log2.times[0] > maxT {
		t.Fatalf("delivered at %v, want within [%v,%v]", log2.times[0], minT, maxT)
	}
}

func TestSelfDoesNotReceive(t *testing.T) {
	eng := sim.New(1)
	loc := fixedLocator{1: geo.Pt(0, 0)}
	m := New(eng, DefaultConfig(300), loc)
	var got int
	p := m.Attach(1, func(Frame) { got++ })
	p.Broadcast(hb(1), 10)
	eng.Run()
	if got != 0 {
		t.Fatal("sender received own frame")
	}
}

func TestCarrierSenseSerializesNeighbors(t *testing.T) {
	// Two senders in carrier-sense range both reach receiver 3. With CSMA
	// they should (almost always) serialize; allow the rare same-slot
	// collision by trying seeds until clean. Both frames must arrive.
	eng := sim.New(3)
	loc := fixedLocator{1: geo.Pt(0, 0), 2: geo.Pt(50, 0), 3: geo.Pt(25, 50)}
	m := New(eng, DefaultConfig(300), loc)
	p1 := m.Attach(1, nil)
	p2 := m.Attach(2, nil)
	log3 := attach(m, eng, 3)

	p1.Broadcast(hb(1), 400)
	p2.Broadcast(hb(2), 400)
	eng.Run()

	if len(log3.frames) != 2 {
		t.Fatalf("receiver got %d frames, want 2 (CSMA serialization)", len(log3.frames))
	}
	if log3.frames[0].From == log3.frames[1].From {
		t.Fatal("same sender twice")
	}
}

func TestHiddenTerminalCollision(t *testing.T) {
	// A(0) and C cannot sense each other (range 340) and transmit at the
	// same instant. With C at 600 both reach B(300), which loses both
	// frames. With C just beyond the range of B, C neither reaches nor
	// interferes at B: sensing, reception and interference share one
	// radius, so B receives A's frame cleanly.
	cases := []struct {
		name     string
		c        geo.Point
		wantRx   int
		wantLost uint64
	}{
		{"interferer in range", geo.Pt(600, 0), 0, 2},
		{"interferer beyond range", geo.Pt(300+340+1, 0), 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New(1)
			loc := fixedLocator{1: geo.Pt(0, 0), 2: tc.c, 3: geo.Pt(300, 0)}
			m := New(eng, DefaultConfig(340), loc)
			m.cw = 1 // deterministic back-off: both start together
			pa := m.Attach(1, nil)
			pc := m.Attach(2, nil)
			logB := attach(m, eng, 3)

			pa.Broadcast(hb(1), 400)
			pc.Broadcast(hb(2), 400)
			eng.Run()

			if len(logB.frames) != tc.wantRx {
				t.Fatalf("B received %d frames, want %d", len(logB.frames), tc.wantRx)
			}
			if tc.wantRx == 1 && logB.frames[0].From != 1 {
				t.Fatalf("B received a frame from %v, want A's", logB.frames[0].From)
			}
			if got := m.ports[m.rank[3]].Counters(); got.FramesLost != tc.wantLost {
				t.Fatalf("FramesLost = %d, want %d", got.FramesLost, tc.wantLost)
			}
			// The senders, unaware, still count their transmissions.
			if pa.Counters().FramesSent != 1 || pc.Counters().FramesSent != 1 {
				t.Fatal("senders should have transmitted")
			}
		})
	}
}

func TestHalfDuplexLoss(t *testing.T) {
	// Both nodes transmit simultaneously in mutual range (forced by
	// a one-slot contention window): neither can receive the other's
	// frame.
	eng := sim.New(1)
	loc := fixedLocator{1: geo.Pt(0, 0), 2: geo.Pt(100, 0)}
	m := New(eng, DefaultConfig(340), loc)
	m.cw = 1
	var got1, got2 int
	p1 := m.Attach(1, func(Frame) { got1++ })
	p2 := m.Attach(2, func(Frame) { got2++ })

	p1.Broadcast(hb(1), 400)
	p2.Broadcast(hb(2), 400)
	eng.Run()

	if got1 != 0 || got2 != 0 {
		t.Fatalf("half-duplex nodes received frames: %d, %d", got1, got2)
	}
}

func TestQueueFIFO(t *testing.T) {
	eng := sim.New(1)
	loc := fixedLocator{1: geo.Pt(0, 0), 2: geo.Pt(10, 0)}
	m := New(eng, DefaultConfig(300), loc)
	p1 := m.Attach(1, nil)
	log2 := attach(m, eng, 2)

	for i := 0; i < 5; i++ {
		p1.Broadcast(event.IDList{From: 1, IDs: []event.ID{{Lo: uint64(i)}}}, 16)
	}
	eng.Run()

	if len(log2.frames) != 5 {
		t.Fatalf("got %d frames, want 5", len(log2.frames))
	}
	for i, f := range log2.frames {
		l := f.Msg.(event.IDList)
		if l.IDs[0].Lo != uint64(i) {
			t.Fatalf("frame %d out of order: %v", i, l.IDs[0].Lo)
		}
	}
}

func TestAttachTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	eng := sim.New(1)
	m := New(eng, DefaultConfig(300), fixedLocator{})
	m.Attach(1, nil)
	m.Attach(1, nil)
}

func TestBusySenderDefers(t *testing.T) {
	eng := sim.New(5)
	loc := fixedLocator{1: geo.Pt(0, 0), 2: geo.Pt(50, 0), 3: geo.Pt(100, 0)}
	m := New(eng, DefaultConfig(300), loc)
	p1 := m.Attach(1, nil)
	p2 := m.Attach(2, nil)
	log3 := attach(m, eng, 3)

	p1.Broadcast(hb(1), 1400) // long frame occupies the channel
	// Node 2 tries while 1 is (very likely) still on air.
	eng.After(300*time.Microsecond, func() { p2.Broadcast(hb(2), 50) })
	eng.Run()

	if len(log3.frames) != 2 {
		t.Fatalf("got %d frames, want 2", len(log3.frames))
	}
	if p2.Counters().Defers == 0 {
		t.Fatal("second sender should have sensed a busy channel")
	}
}

func TestManyNodesDeterminism(t *testing.T) {
	run := func() []uint64 {
		eng := sim.New(77)
		loc := fixedLocator{}
		for i := event.NodeID(0); i < 20; i++ {
			loc[i] = geo.Pt(float64(i)*40, 0)
		}
		m := New(eng, DefaultConfig(200), loc)
		ports := make([]*Port, 20)
		for i := event.NodeID(0); i < 20; i++ {
			ports[i] = m.Attach(i, nil)
		}
		for i := range ports {
			i := i
			eng.After(time.Duration(i)*100*time.Microsecond, func() {
				ports[i].Broadcast(hb(event.NodeID(i)), 100)
			})
		}
		eng.Run()
		out := make([]uint64, 0, 40)
		for _, p := range ports {
			c := p.Counters()
			out = append(out, c.FramesReceived, c.FramesLost)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic MAC at counter %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// movingLocator drifts every node along +x at 2 m/s so periodic index
// refreshes actually relocate nodes across cell boundaries.
type movingLocator map[event.NodeID]geo.Point

func (l movingLocator) Position(id event.NodeID, at sim.Time) geo.Point {
	p := l[id]
	return geo.Pt(p.X+2*at.Seconds(), p.Y)
}

// TestBroadcastAllocationFlat enforces the allocation-flat contract
// (see ARCHITECTURE.md "Performance contracts") where CI can see it
// fail: once the pools and scratch buffers are warm, a steady-state
// broadcast — contention, airtime, delivery, index refreshes with
// moving nodes — must not allocate. The roster moves so the
// IndexGrid.Relocate path (cell-boundary re-bucketing) is exercised,
// not just the static fast path.
func TestBroadcastAllocationFlat(t *testing.T) {
	eng := sim.New(1)
	const n = 120
	base := make(movingLocator)
	for i := event.NodeID(0); i < n; i++ {
		base[i] = geo.Pt(float64(i%12)*350, float64(i/12)*350)
	}
	cfg := DefaultConfig(400)
	cfg.SpeedBounded = true
	cfg.MaxSpeed = 2
	m := New(eng, cfg, base)
	ports := make([]*Port, n)
	msgs := make([]event.Message, n)
	for i := event.NodeID(0); i < n; i++ {
		ports[i] = m.Attach(i, func(Frame) {})
		msgs[i] = event.Heartbeat{From: i}
	}
	i := 0
	send := func() {
		ports[i%n].Broadcast(msgs[i%n], 50)
		eng.Run()
		i++
	}
	for k := 0; k < 4*n; k++ { // warm pools, scratch buffers and buckets
		send()
	}
	if allocs := testing.AllocsPerRun(400, send); allocs > 0.05 {
		t.Fatalf("steady-state broadcast allocates %.2f allocs/op, want 0", allocs)
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

// TestFinishDenseAllocationFlat pins the per-frame receive path at
// metro density (440 vehicles/km^2, 100 m range: ~14 receivers per
// frame) with what the city workloads have and
// TestBroadcastAllocationFlat lacks: 16 transmitters contending at the
// same instant, so hidden terminals overlap and the per-frame
// interferer list is not empty (the warm-up fails the test if no frame
// was lost to one). One run is one such round of 16 frames over moving
// nodes (staleness margin on the receiver query, periodic index
// refreshes); it must not allocate.
func TestFinishDenseAllocationFlat(t *testing.T) {
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
	cfg := DefaultConfig(100)
	cfg.SpeedBounded, cfg.MaxSpeed = true, 14
	cfg.Bounds = geo.NewRect(side, side)
	m := New(eng, cfg, loc)
	ports := make([]*Port, n)
	msgs := make([]event.Message, n)
	for i := range ports {
		ports[i] = m.Attach(event.NodeID(i), func(Frame) {})
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
		t.Fatal("no frame lost to interference in the warm-up: the interferer path is not exercised")
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("steady-state round of %d contending frames allocates %.0f times, want 0", burst, allocs)
	}
}

// TestWithinMatchesHypot holds the squared-distance range check to the
// Hypot comparison it replaced, verdict for verdict: on random pairs, on
// pairs placed on the rim and stepped ulp by ulp either side of it, and
// on the exact axis and 3-4-5 rims.
func TestWithinMatchesHypot(t *testing.T) {
	check := func(a, b geo.Point, r float64) {
		t.Helper()
		if got, want := within(a, b, r), a.Dist(b) <= r; got != want {
			t.Fatalf("within(%v, %v, %v) = %v, Dist = %.17g says %v", a, b, r, got, a.Dist(b), want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		r := []float64{0.5, 44, 100, 250, 1e4}[rng.Intn(5)]
		a := geo.Point{X: rng.Float64() * 5000, Y: rng.Float64() * 5000}
		// Random pairs spread over twice the range...
		check(a, geo.Point{X: a.X + (rng.Float64()*4-2)*r, Y: a.Y + (rng.Float64()*4-2)*r}, r)
		// ...and pairs placed on the rim, then nudged a few ulps either
		// way, where only Hypot can tell.
		sin, cos := math.Sincos(rng.Float64() * 2 * math.Pi)
		b := geo.Point{X: a.X + r*cos, Y: a.Y + r*sin}
		for k := 0; k < 4; k++ {
			check(a, b, r)
			check(a, geo.Point{X: math.Nextafter(b.X, math.Inf(1)), Y: b.Y}, r)
			check(a, geo.Point{X: b.X, Y: math.Nextafter(b.Y, math.Inf(-1))}, r)
			b.X = math.Nextafter(b.X, a.X) // walk inwards
		}
	}
	for _, r := range []float64{1, 100, 250} {
		origin := geo.Point{}
		for _, b := range []geo.Point{{X: r}, {Y: -r}, {X: 0.6 * r, Y: 0.8 * r}} {
			check(origin, b, r)
			check(origin, b, math.Nextafter(r, 0))
			check(origin, b, math.Nextafter(r, math.Inf(1)))
			check(origin, geo.Point{X: math.Nextafter(b.X, math.Inf(1)), Y: b.Y}, r)
			check(origin, geo.Point{X: math.Nextafter(b.X, math.Inf(-1)), Y: b.Y}, r)
		}
	}
	check(geo.Point{}, geo.Point{}, 0) // r*r == 0 is still exact at distance 0
}

// TestPruneNeverDropsAnOverlapper holds prune's airtime-bounded
// retention to its contract: after every engine step, each transmission
// record that has left live ends no later than the start of every record
// still on air (a frame started later is on air right after its own
// step). The traffic mixes 40-4000 B frames, and the first long frame
// comes after a run of short ones, so maxAir grows mid-run and records
// pruned under the smaller bound sit next to frames sent under the larger.
func TestPruneNeverDropsAnOverlapper(t *testing.T) {
	const (
		nodes = 40
		quiet = 300 * time.Millisecond // short frames only until then
	)
	rng := rand.New(rand.NewSource(3))
	loc := fixedLocator{}
	for i := event.NodeID(0); i < nodes; i++ {
		loc[i] = geo.Pt(rng.Float64()*900, rng.Float64()*900)
	}
	eng := sim.New(5)
	m := New(eng, DefaultConfig(300), loc)
	ports := make([]*Port, nodes)
	for i := range ports {
		ports[i] = m.Attach(event.NodeID(i), nil)
	}
	for i := range ports {
		var tick func()
		tick = func() {
			size := 40 + rng.Intn(360)
			if eng.Now() >= sim.At(quiet) {
				size = 40 + rng.Intn(3961)
			}
			ports[i].Broadcast(event.Heartbeat{From: event.NodeID(i)}, size)
			eng.After(5*time.Millisecond+time.Duration(rng.Intn(int(40*time.Millisecond))), tick)
		}
		eng.After(time.Duration(rng.Intn(int(10*time.Millisecond))), tick)
	}
	eng.At(sim.At(quiet), func() { ports[0].Broadcast(event.Heartbeat{From: 0}, 4000) })

	type record struct {
		t *transmission
		v transmission
	}
	var (
		prev, cur   []record
		droppedEnd  sim.Time // latest end of any record that left live
		earlyAir    sim.Time // maxAir before the first long frame
		drops, late int      // records dropped, and of those after maxAir grew
		present     = map[*transmission]bool{}
		limit       = sim.At(1500 * time.Millisecond)
	)
	for eng.Now() < limit && eng.Step() {
		now := eng.Now()
		if now < sim.At(quiet) {
			earlyAir = m.maxAir
		}
		clear(present)
		for _, tx := range m.live[m.liveHead:] {
			present[tx] = true
		}
		for _, r := range prev {
			if present[r.t] && *r.t == r.v {
				continue
			}
			droppedEnd = max(droppedEnd, r.v.end)
			drops++
			if m.maxAir > earlyAir {
				late++
			}
		}
		cur = cur[:0]
		for _, tx := range m.live[m.liveHead:] {
			if tx.end > now && tx.start < droppedEnd {
				t.Fatalf("at %v: a pruned record ended at %v, after the start %v of a frame on air until %v (maxAir %v)",
					now, droppedEnd, tx.start, tx.end, m.maxAir)
			}
			cur = append(cur, record{tx, *tx})
		}
		prev, cur = cur, prev
	}
	if m.maxAir <= earlyAir || late == 0 || drops == late {
		t.Fatalf("traffic did not grow maxAir mid-run with prunes on both sides: maxAir %v then %v, %d drops, %d after the growth",
			earlyAir, m.maxAir, drops, late)
	}
}
