package sim

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// refEngine is the pre-wheel reference scheduler: a flat slice popped by
// linear minimum scan over (at, seq). Deliberately brute-force — it is
// the executable specification the wheel engine is diffed against.
type refEngine struct {
	now   Time
	seq   uint64
	items []*refItem
}

type refItem struct {
	at      Time
	seq     uint64
	fn      func()
	stopped bool
	done    bool // popped: fired or discarded
}

// refTimer is the reference's Timer: a handle that Stop cancels and
// Reset re-arms, with the Engine's return values.
type refTimer struct {
	r  *refEngine
	it *refItem
}

func (t *refTimer) Stop() bool {
	if t.it.done || t.it.stopped {
		return false
	}
	t.it.stopped = true
	return true
}

func (t *refTimer) Reset(d time.Duration) bool {
	pending := t.Stop()
	t.it = t.r.At(t.r.now.Add(d), t.it.fn)
	return pending
}

func (r *refEngine) At(at Time, fn func()) *refItem {
	if at < r.now {
		at = r.now
	}
	it := &refItem{at: at, seq: r.seq, fn: fn}
	r.seq++
	r.items = append(r.items, it)
	return it
}

func (r *refEngine) Step() bool {
	for {
		best := -1
		for i, it := range r.items {
			if best < 0 || it.at < r.items[best].at ||
				(it.at == r.items[best].at && it.seq < r.items[best].seq) {
				best = i
			}
		}
		if best < 0 {
			return false
		}
		it := r.items[best]
		r.items = append(r.items[:best], r.items[best+1:]...)
		it.done = true
		if it.stopped {
			continue
		}
		r.now = it.at
		it.fn()
		return true
	}
}

func (r *refEngine) Run() {
	for r.Step() {
	}
}

// delays spans the interesting ranges: sub-tick, level boundaries (64^l
// ticks at 2^14 ns per tick), the top levels 6-8 and the last
// representable instants (a sum past MaxInt64 wraps negative and is
// clamped to now, in the wheel and the reference alike).
var scriptDelays = []time.Duration{
	0, 1, 100 * time.Nanosecond,
	16 * time.Microsecond, 17 * time.Microsecond, // tick boundary
	time.Millisecond, 1048*time.Microsecond + 576*time.Nanosecond, // level 0/1 boundary ~2^20 ns
	50 * time.Millisecond, 67 * time.Millisecond, 68 * time.Millisecond, // level 1/2 boundary ~2^26 ns
	time.Second, 4 * time.Second, 5 * time.Second, // level 2/3 boundary ~2^32 ns
	5 * time.Minute, 286 * time.Minute, // level 3/4 boundary ~2^38 ns
	24 * time.Hour, 305 * time.Hour, 306 * time.Hour, // level 4/5 boundary ~2^44 ns
	14 * 24 * time.Hour, 1000 * 24 * time.Hour, // levels 6 and 7 (5/6 boundary ~2^50 ns, 6/7 ~2^56 ns)
	1 << 62, math.MaxInt64 - 1, math.MaxInt64, // level 8 (7/8 boundary ~2^62 ns) and the edge of Time
}

// traceEntry is one fired callback in a script replay: which event and
// when.
type traceEntry struct {
	id int
	at Time
}

// TestWheelMatchesReference diffs the wheel engine against the
// brute-force reference on randomized schedules covering every level
// boundary, nested scheduling, FIFO ties and cancellations.
func TestWheelMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		wheelTrace := runWheelScript(t, seed)
		refTrace := runRefScript(t, seed)
		if len(wheelTrace) != len(refTrace) {
			t.Fatalf("seed %d: wheel fired %d callbacks, reference %d",
				seed, len(wheelTrace), len(refTrace))
		}
		for i := range wheelTrace {
			if wheelTrace[i] != refTrace[i] {
				t.Fatalf("seed %d: divergence at event %d: wheel %+v, reference %+v",
					seed, i, wheelTrace[i], refTrace[i])
			}
		}
	}
}

// scriptActions precomputes the script deterministically so both
// engines replay the identical workload: action i fires as event id i
// and schedules children with fixed delays; stops reference pending
// handles by id.
type scriptAction struct {
	children []time.Duration
	stops    []int // ids of earlier-scheduled events to stop when this fires
}

func buildScript(seed int64, n int) []scriptAction {
	rng := rand.New(rand.NewSource(seed))
	actions := make([]scriptAction, n)
	for i := range actions {
		k := rng.Intn(4)
		for c := 0; c < k; c++ {
			actions[i].children = append(actions[i].children,
				scriptDelays[rng.Intn(len(scriptDelays))])
		}
		if rng.Intn(3) == 0 {
			actions[i].stops = append(actions[i].stops, rng.Intn(n))
		}
	}
	return actions
}

const scriptLen = 400

func runWheelScript(t *testing.T, seed int64) []traceEntry {
	t.Helper()
	e := New(seed)
	actions := buildScript(seed, scriptLen)
	timers := make(map[int]*Timer)
	var trace []traceEntry
	next := 0
	var fire func(id int)
	schedule := func(d time.Duration) {
		if next >= scriptLen {
			return
		}
		id := next
		next++
		timers[id] = e.After(d, func() { fire(id) })
	}
	fire = func(id int) {
		trace = append(trace, traceEntry{id: id, at: e.Now()})
		for _, d := range actions[id].children {
			schedule(d)
		}
		for _, s := range actions[id].stops {
			if tm := timers[s]; tm != nil {
				tm.Stop()
			}
		}
	}
	schedule(0)
	schedule(time.Second)
	schedule(30 * 24 * time.Hour)
	e.Run()
	return trace
}

func runRefScript(t *testing.T, seed int64) []traceEntry {
	t.Helper()
	e := &refEngine{}
	actions := buildScript(seed, scriptLen)
	handles := make(map[int]*refItem)
	var trace []traceEntry
	next := 0
	var fire func(id int)
	schedule := func(d time.Duration) {
		if next >= scriptLen {
			return
		}
		id := next
		next++
		handles[id] = e.At(e.now.Add(d), func() { fire(id) })
	}
	fire = func(id int) {
		trace = append(trace, traceEntry{id: id, at: e.now})
		for _, d := range actions[id].children {
			schedule(d)
		}
		for _, s := range actions[id].stops {
			if h := handles[s]; h != nil {
				h.stopped = true
			}
		}
	}
	schedule(0)
	schedule(time.Second)
	schedule(30 * 24 * time.Hour)
	e.Run()
	return trace
}

// TestWheelFarFutureInOrder pins a level no simulated run reaches:
// timers 20 and 400 days out (level 6) fire, in order, interleaved
// with near-term work, and Stop works on a resident there.
func TestWheelFarFutureInOrder(t *testing.T) {
	e := New(1)
	var fired []int
	far := 20 * 24 * time.Hour
	e.After(far, func() { fired = append(fired, 2) })
	e.After(far+time.Nanosecond, func() { fired = append(fired, 3) })
	stopped := e.After(far+2*time.Nanosecond, func() { fired = append(fired, 99) })
	e.After(time.Second, func() { fired = append(fired, 1) })
	veryFar := e.After(400*24*time.Hour, func() { fired = append(fired, 4) })
	if e.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", e.Pending())
	}
	if !stopped.Stop() {
		t.Fatal("Stop on level-6 resident timer failed")
	}
	_ = veryFar
	e.Run()
	want := []int{1, 2, 3, 4}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	if e.Now() != At(400*24*time.Hour) {
		t.Fatalf("Now = %v", e.Now())
	}
}

// TestWheelStopResidentEveryLevel stops one timer resident at each
// wheel level; none may fire, and the remaining timers still fire in
// order.
func TestWheelStopResidentEveryLevel(t *testing.T) {
	e := New(1)
	delays := []time.Duration{
		30 * time.Microsecond, // level 0
		10 * time.Millisecond, // level 1
		2 * time.Second,       // level 2
		30 * time.Minute,      // level 3
		2 * 24 * time.Hour,    // level 4 or 5
		40 * 24 * time.Hour,   // level 6
		3000 * 24 * time.Hour, // level 7
		1 << 62,               // level 8
	}
	var fired []time.Duration
	var stops []*Timer
	for _, d := range delays {
		d := d
		stops = append(stops, e.After(d, func() { t.Errorf("stopped timer at %v fired", d) }))
		e.After(d+time.Microsecond, func() { fired = append(fired, d) })
	}
	for i, tm := range stops {
		if !tm.Stop() {
			t.Fatalf("Stop %d failed", i)
		}
		if tm.Stop() {
			t.Fatalf("double Stop %d reported true", i)
		}
	}
	if got := e.Pending(); got != len(delays) {
		t.Fatalf("Pending = %d, want %d", got, len(delays))
	}
	e.Run()
	if len(fired) != len(delays) {
		t.Fatalf("fired %d callbacks, want %d", len(fired), len(delays))
	}
	for i := range delays {
		if fired[i] != delays[i] {
			t.Fatalf("firing order %v, want %v", fired, delays)
		}
	}
}

// TestWheelPendingParity walks a random schedule and checks Pending
// against the reference count after every operation.
func TestWheelPendingParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := New(7)
	var timers []*Timer
	live := 0
	for i := 0; i < 2000; i++ {
		switch rng.Intn(3) {
		case 0, 1:
			d := scriptDelays[rng.Intn(len(scriptDelays))]
			timers = append(timers, e.After(d, func() {}))
			live++
		case 2:
			if len(timers) == 0 {
				continue
			}
			tm := timers[rng.Intn(len(timers))]
			if tm.Stop() {
				live--
			}
		}
		if e.Pending() != live {
			t.Fatalf("op %d: Pending = %d, want %d", i, e.Pending(), live)
		}
	}
	for e.Step() {
		live--
		if e.Pending() != live {
			t.Fatalf("drain: Pending = %d, want %d", e.Pending(), live)
		}
	}
	if live != 0 {
		t.Fatalf("after drain live = %d", live)
	}
}

// TestWheelRunUntilTickBoundaries pins RunUntil behavior when the limit
// falls inside a tick whose slot has already been drained for peeking.
func TestWheelRunUntilTickBoundaries(t *testing.T) {
	e := New(1)
	var fired []Time
	record := func() { fired = append(fired, e.Now()) }
	e.At(At(100*time.Microsecond), record)
	e.At(At(100*time.Microsecond+300*time.Nanosecond), record)
	e.At(At(5*time.Second), record)
	e.RunUntil(At(100 * time.Microsecond))
	if len(fired) != 1 {
		t.Fatalf("fired %v, want exactly the 100us callback", fired)
	}
	// Schedule into the just-peeked region: must still fire in order.
	e.At(At(100*time.Microsecond+100*time.Nanosecond), record)
	e.RunUntil(At(time.Second))
	want := []Time{
		At(100 * time.Microsecond),
		At(100*time.Microsecond + 100*time.Nanosecond),
		At(100*time.Microsecond + 300*time.Nanosecond),
	}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want the 5s callback", e.Pending())
	}
}

// TestScheduleNoHandle covers the pooled fire-and-forget path.
func TestScheduleNoHandle(t *testing.T) {
	e := New(1)
	count := 0
	for i := 0; i < 100; i++ {
		e.ScheduleAfter(time.Duration(i)*time.Millisecond, func() { count++ })
	}
	e.Schedule(At(time.Hour), func() { count++ })
	e.Run()
	if count != 101 {
		t.Fatalf("count = %d", count)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d", e.Pending())
	}
}

// TestWheelMaxTime schedules at the far edge of representable time.
func TestWheelMaxTime(t *testing.T) {
	e := New(1)
	ran := false
	e.At(Time(math.MaxInt64), func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("max-time callback never fired")
	}
	if e.Now() != Time(math.MaxInt64) {
		t.Fatalf("Now = %v", e.Now())
	}
}
