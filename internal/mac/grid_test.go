package mac

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/sim"
)

// modelLocator adapts mobility models to the medium.
type modelLocator []mobility.Model

func (l modelLocator) Position(id event.NodeID, at sim.Time) geo.Point {
	return l[id].Position(at)
}

// station is a node's port on either medium.
type station interface {
	Broadcast(msg event.Message, appBytes int)
	Counters() Counters
}

// attachFunc attaches a node to a medium.
type attachFunc func(id event.NodeID, rx func(Frame)) station

// mediumFunc builds a medium on an engine. gridMedium and
// referenceMedium build the medium under test and its roster-walk
// oracle (refMedium).
type mediumFunc func(eng *sim.Engine, cfg Config, loc Locator) attachFunc

func gridMedium(eng *sim.Engine, cfg Config, loc Locator) attachFunc {
	m := New(eng, cfg, loc)
	return func(id event.NodeID, rx func(Frame)) station { return m.Attach(id, rx) }
}

func referenceMedium(eng *sim.Engine, cfg Config, loc Locator) attachFunc {
	m := newRefMedium(eng, cfg, loc)
	return func(id event.NodeID, rx func(Frame)) station { return m.Attach(id, rx) }
}

var media = []struct {
	name string
	new  mediumFunc
}{{"grid", gridMedium}, {"reference", referenceMedium}}

// runTrafficLog drives a seeded multi-node broadcast storm over moving
// nodes on the medium newMedium builds and returns the full
// delivery/counter log. Everything derives from fixed seeds, so the grid
// medium and the reference must produce identical logs if the grid path
// is exact.
//
// The traffic is partly reactive: a receiver answers a periodic frame on
// a coin from its own seeded stream, from inside the medium's receiver
// loop. The receivers of one frame then contend from the same instant,
// so same-slot replies collide (half-duplex at the repliers, hidden
// terminals beyond them). The run must record losses and carrier-sense
// defers, or the comparison would check nothing.
func runTrafficLog(t *testing.T, newMedium mediumFunc, cfg Config, nodes int, dur time.Duration) []string {
	t.Helper()
	eng := sim.New(99)
	models := make(modelLocator, nodes)
	for i := range models {
		models[i] = mobility.NewWaypoint(mobility.WaypointConfig{
			Area:     geo.NewRect(1500, 1500),
			MinSpeed: 1,
			MaxSpeed: 40,
		}, rand.New(rand.NewSource(int64(i)+1)))
	}
	attach := newMedium(eng, cfg, models)
	ports := make([]station, nodes)
	var log []string
	for i := 0; i < nodes; i++ {
		id := event.NodeID(i)
		replies := rand.New(rand.NewSource(int64(i) + 2000))
		ports[i] = attach(id, func(f Frame) {
			log = append(log, fmt.Sprintf("%v rx %d<-%d %T", eng.Now(), id, f.From, f.Msg))
			if _, periodic := f.Msg.(event.Heartbeat); periodic && replies.Intn(4) == 0 {
				ports[id].Broadcast(event.IDList{From: id}, 20+replies.Intn(80))
			}
		})
	}
	// Every node broadcasts on its own jittered period; dense enough for
	// carrier-sense defers, collisions and hidden terminals to occur.
	for i := 0; i < nodes; i++ {
		i := i
		rng := rand.New(rand.NewSource(int64(i) + 1000))
		var tick func()
		tick = func() {
			ports[i].Broadcast(event.Heartbeat{From: event.NodeID(i)}, 40+rng.Intn(400))
			eng.After(20*time.Millisecond+time.Duration(rng.Intn(int(80*time.Millisecond))), tick)
		}
		eng.After(time.Duration(rng.Intn(int(10*time.Millisecond))), tick)
	}
	eng.RunUntil(sim.At(dur))
	var sum Counters
	for i, p := range ports {
		c := p.Counters()
		log = append(log, fmt.Sprintf("node %d counters %+v", i, c))
		sum = sum.Add(c)
	}
	if sum.FramesLost == 0 || sum.Defers == 0 {
		t.Fatalf("traffic too light to compare: %d frames lost, %d defers", sum.FramesLost, sum.Defers)
	}
	return log
}

// compareMedia runs the same traffic on the grid medium and on the
// reference and requires identical logs.
func compareMedia(t *testing.T, cfg Config, nodes int, dur time.Duration) {
	t.Helper()
	ref := runTrafficLog(t, referenceMedium, cfg, nodes, dur)
	grid := runTrafficLog(t, gridMedium, cfg, nodes, dur)
	if len(ref) < 100 {
		t.Fatalf("scenario too quiet to be meaningful: %d log entries", len(ref))
	}
	if len(ref) != len(grid) {
		t.Fatalf("log lengths differ: reference %d vs grid %d", len(ref), len(grid))
	}
	for i := range ref {
		if ref[i] != grid[i] {
			t.Fatalf("logs diverge at entry %d:\n  reference: %s\n  grid:      %s",
				i, ref[i], grid[i])
		}
	}
}

// TestGridMatchesFullScanMobile is the load-bearing equivalence test:
// with moving nodes and a declared speed bound, grid-indexed delivery
// must match the full-roster reference frame-for-frame — same
// receptions at the same instants, same loss/defer counters.
func TestGridMatchesFullScanMobile(t *testing.T) {
	cfg := DefaultConfig(300)
	cfg.SpeedBounded = true
	cfg.MaxSpeed = 40
	compareMedia(t, cfg, 40, 3*time.Second)
}

// TestGridMatchesFullScanShadowing repeats the equivalence under a
// probabilistic channel, where exactness additionally requires the
// medium's RNG draw sequence to line up with the reference's.
func TestGridMatchesFullScanShadowing(t *testing.T) {
	cfg := DefaultConfig(300)
	cfg.SpeedBounded = true
	cfg.MaxSpeed = 40
	cfg.Receives = func(d, u float64) bool {
		if d > 250 {
			return u < 0.3
		}
		return u < 0.9
	}
	compareMedia(t, cfg, 30, 2*time.Second)
}

// TestGridMatchesFullScanUnbounded drops the speed promise: the medium
// must fall back to per-instant re-bucketing and stay exact.
func TestGridMatchesFullScanUnbounded(t *testing.T) {
	compareMedia(t, DefaultConfig(300), 25, 2*time.Second)
}

// TestGridHiddenTerminal pins the interference path through the tx
// grid: two transmitters out of carrier-sense range of each other, both
// in range of a middle receiver, transmitting concurrently — the
// receiver must lose both frames, on the grid medium and on the
// reference. In the second placement the grid's 300 m cells start at
// x = 0, so each transmitter's cell lies wholly outside the other's
// Range disc: only the 2*Range interferer disc finds the collision.
func TestGridHiddenTerminal(t *testing.T) {
	placements := []struct {
		xs     [3]float64
		bounds geo.Rect
	}{
		{[3]float64{0, 290, 580}, geo.Rect{}},
		{[3]float64{290, 580, 870}, geo.NewRect(900, 1)},
	}
	for _, pl := range placements {
		for _, md := range media {
			eng := sim.New(1)
			cfg := DefaultConfig(300)
			cfg.SpeedBounded = true // static
			cfg.Bounds = pl.bounds
			pos := modelLocator{
				mobility.Static{P: geo.Pt(pl.xs[0], 0)},
				mobility.Static{P: geo.Pt(pl.xs[1], 0)},
				mobility.Static{P: geo.Pt(pl.xs[2], 0)},
			}
			attach := md.new(eng, cfg, pos)
			received := 0
			a := attach(0, nil)
			mid := attach(1, func(Frame) { received++ })
			c := attach(2, nil)
			a.Broadcast(event.Heartbeat{From: 0}, 400)
			c.Broadcast(event.Heartbeat{From: 2}, 400)
			eng.Run()
			if received != 0 {
				t.Fatalf("%v %s: middle node received %d frames through a collision", pl.xs, md.name, received)
			}
			if got := mid.Counters().FramesLost; got != 2 {
				t.Fatalf("%v %s: middle node lost %d frames, want 2", pl.xs, md.name, got)
			}
		}
	}
}

// TestReceiversMatchSortedCandidates pins the receiver-order contract:
// whatever the roster size, relative to the bitset's 64-rank words and
// 4096-rank summary words, receivers returns exactly the grid's
// candidates sorted by attach rank — empty, local and whole-roster
// queries alike.
func TestReceiversMatchSortedCandidates(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 4095, 4096, 4097, 50000} {
		rng := rand.New(rand.NewSource(int64(n)))
		const r = 100.0
		side := r * math.Sqrt(float64(n)) / 2
		loc := make(fixedLocator, n)
		for i := 0; i < n; i++ {
			loc[event.NodeID(i)] = geo.Pt(rng.Float64()*side, rng.Float64()*side)
		}
		for _, rangeM := range []float64{r, 2 * side} {
			m := New(sim.New(1), DefaultConfig(rangeM), loc)
			for i := 0; i < n; i++ {
				m.Attach(event.NodeID(i), nil)
			}
			queries := []geo.Point{geo.Pt(-10*side-1e4, -10*side-1e4)} // nobody in range
			for q := 0; q < 20; q++ {
				queries = append(queries, geo.Pt(rng.Float64()*side, rng.Float64()*side))
			}
			for _, pos := range queries {
				got := slices.Clone(m.receivers(&transmission{pos: pos}))
				want := m.nodeGrid.AppendWithin(pos, m.cfg.Range+m.margin, nil)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d range=%v at %v: receivers (%d ranks) differ from the sorted candidates (%d)",
						n, rangeM, pos, len(got), len(want))
				}
			}
			if slices.ContainsFunc(m.rankBits, func(w uint64) bool { return w != 0 }) ||
				slices.ContainsFunc(m.rankSum, func(w uint64) bool { return w != 0 }) {
				t.Fatalf("n=%d: rank bitset not cleared after the walk", n)
			}
		}
	}
}
