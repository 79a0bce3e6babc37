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

// runTrafficLog drives a seeded multi-node broadcast storm over moving
// nodes and returns the full delivery/counter log. Everything derives
// from fixed seeds, so two runs differing only in Config.FullScan must
// produce identical logs if the grid path is exact. lost is the roster's
// FramesLost total, for tests that need collisions to have happened.
func runTrafficLog(t *testing.T, cfg Config, nodes int, dur time.Duration) (log []string, lost uint64) {
	t.Helper()
	eng := sim.New(99)
	models := make(modelLocator, nodes)
	for i := range models {
		models[i] = mobility.NewWaypoint(mobility.WaypointConfig{
			Area:     geo.NewRect(1500, 1500),
			MinSpeed: 1,
			MaxSpeed: 40,
			Pause:    500 * time.Millisecond,
		}, rand.New(rand.NewSource(int64(i)+1)))
	}
	m := New(eng, cfg, models)
	ports := make([]*Port, nodes)
	for i := 0; i < nodes; i++ {
		id := event.NodeID(i)
		ports[i] = m.Attach(id, func(f Frame) {
			log = append(log, fmt.Sprintf("%v rx %d<-%d", eng.Now(), id, f.From))
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
	for i, p := range ports {
		c := p.Counters()
		log = append(log, fmt.Sprintf("node %d counters %+v", i, c))
		lost += c.FramesLost
	}
	return log, lost
}

func compareLogs(t *testing.T, scan, grid []string) {
	t.Helper()
	if len(scan) != len(grid) {
		t.Fatalf("log lengths differ: full-scan %d vs grid %d", len(scan), len(grid))
	}
	for i := range scan {
		if scan[i] != grid[i] {
			t.Fatalf("logs diverge at entry %d:\n  full-scan: %s\n  grid:      %s",
				i, scan[i], grid[i])
		}
	}
}

// TestGridMatchesFullScanMobile is the load-bearing equivalence test:
// with moving nodes and a declared speed bound, grid-indexed delivery
// must match the full-roster reference frame-for-frame — same
// receptions at the same instants, same loss/defer counters.
func TestGridMatchesFullScanMobile(t *testing.T) {
	base := DefaultConfig(300)
	base.SpeedBounded = true
	base.MaxSpeed = 40

	scanCfg := base
	scanCfg.FullScan = true
	scan, _ := runTrafficLog(t, scanCfg, 40, 3*time.Second)
	grid, _ := runTrafficLog(t, base, 40, 3*time.Second)
	if len(scan) < 100 {
		t.Fatalf("scenario too quiet to be meaningful: %d log entries", len(scan))
	}
	compareLogs(t, scan, grid)
}

// TestGridMatchesFullScanShadowing repeats the equivalence under a
// probabilistic channel, where exactness additionally requires the
// medium's RNG draw sequence to line up between the two paths.
func TestGridMatchesFullScanShadowing(t *testing.T) {
	base := DefaultConfig(300)
	base.SpeedBounded = true
	base.MaxSpeed = 40
	base.ReceiveProb = func(d float64) float64 {
		if d > 250 {
			return 0.3
		}
		return 0.9
	}

	scanCfg := base
	scanCfg.FullScan = true
	scan, _ := runTrafficLog(t, scanCfg, 30, 2*time.Second)
	grid, _ := runTrafficLog(t, base, 30, 2*time.Second)
	compareLogs(t, scan, grid)
}

// TestGridMatchesFullScanUnbounded drops the speed promise: the medium
// must fall back to per-instant re-bucketing and stay exact.
func TestGridMatchesFullScanUnbounded(t *testing.T) {
	base := DefaultConfig(300)

	scanCfg := base
	scanCfg.FullScan = true
	scan, _ := runTrafficLog(t, scanCfg, 25, 2*time.Second)
	grid, _ := runTrafficLog(t, base, 25, 2*time.Second)
	compareLogs(t, scan, grid)
}

// TestGridHiddenTerminal pins the interference path through the tx
// grid: two transmitters out of carrier-sense range of each other, both
// in range of a middle receiver, transmitting concurrently — the
// receiver must lose both frames, with and without the grid.
func TestGridHiddenTerminal(t *testing.T) {
	for _, fullScan := range []bool{false, true} {
		eng := sim.New(1)
		cfg := DefaultConfig(300)
		cfg.SpeedBounded = true // static
		cfg.FullScan = fullScan
		pos := modelLocator{
			mobility.Static{P: geo.Pt(0, 0)},
			mobility.Static{P: geo.Pt(290, 0)},
			mobility.Static{P: geo.Pt(580, 0)},
		}
		m := New(eng, cfg, pos)
		received := 0
		a := m.Attach(0, nil)
		mid := m.Attach(1, func(Frame) { received++ })
		c := m.Attach(2, nil)
		a.Broadcast(event.Heartbeat{From: 0}, 400)
		c.Broadcast(event.Heartbeat{From: 2}, 400)
		eng.Run()
		if received != 0 {
			t.Fatalf("fullScan=%v: middle node received %d frames through a collision", fullScan, received)
		}
		if got := mid.Counters().FramesLost; got != 2 {
			t.Fatalf("fullScan=%v: middle node lost %d frames, want 2", fullScan, got)
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
