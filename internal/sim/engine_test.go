package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeConversions(t *testing.T) {
	tests := []struct {
		name string
		t    Time
		secs float64
	}{
		{"zero", 0, 0},
		{"one second", Second, 1},
		{"half second", 500 * Millisecond, 0.5},
		{"minute", Minute, 60},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.t.Seconds(); got != tt.secs {
				t.Errorf("Seconds() = %v, want %v", got, tt.secs)
			}
			if got := Seconds(tt.secs); got != tt.t {
				t.Errorf("Seconds(%v) = %v, want %v", tt.secs, got, tt.t)
			}
		})
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Seconds(1)
	t1 := t0.Add(500 * time.Millisecond)
	if want := Seconds(1.5); t1 != want {
		t.Fatalf("Add = %v, want %v", t1, want)
	}
	if d := t1.Sub(t0); d != 500*time.Millisecond {
		t.Fatalf("Sub = %v, want 500ms", d)
	}
	if !(t0 < t1) {
		t.Fatal("instants out of order")
	}
}

func TestEngineOrdering(t *testing.T) {
	e := New(1)
	var order []int
	e.After(3*time.Second, func() { order = append(order, 3) })
	e.After(1*time.Second, func() { order = append(order, 1) })
	e.After(2*time.Second, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != Seconds(3) {
		t.Fatalf("Now = %v, want 3s", e.Now())
	}
}

func TestEngineFIFOTies(t *testing.T) {
	e := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Second, func() { order = append(order, i) })
	}
	e.Run()
	if !sort.IntsAreSorted(order) {
		t.Fatalf("equal-time callbacks ran out of order: %v", order)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := New(1)
	var fired []Time
	e.After(time.Second, func() {
		fired = append(fired, e.Now())
		e.After(time.Second, func() {
			fired = append(fired, e.Now())
		})
	})
	e.Run()
	if len(fired) != 2 || fired[0] != Seconds(1) || fired[1] != Seconds(2) {
		t.Fatalf("fired = %v", fired)
	}
}

func TestEnginePastClamp(t *testing.T) {
	e := New(1)
	var at Time
	e.After(time.Second, func() {
		e.At(0, func() { at = e.Now() }) // in the past: clamps to now
	})
	e.Run()
	if at != Seconds(1) {
		t.Fatalf("past-scheduled callback ran at %v, want 1s", at)
	}
}

func TestTimerStop(t *testing.T) {
	e := New(1)
	ran := false
	tm := e.After(time.Second, func() { ran = true })
	if !tm.Stop() {
		t.Fatal("first Stop should report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	e.Run()
	if ran {
		t.Fatal("stopped timer fired")
	}
	if !tm.stopped {
		t.Fatal("stopped should be true")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	e := New(1)
	tm := e.After(time.Second, func() {})
	e.Run()
	if tm.Stop() {
		t.Fatal("Stop after fire should report false")
	}
}

func TestNilTimerStop(t *testing.T) {
	var tm *Timer
	if tm.Stop() {
		t.Fatal("nil timer Stop should report false")
	}
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	var fired []int
	e.After(1*time.Second, func() { fired = append(fired, 1) })
	e.After(5*time.Second, func() { fired = append(fired, 5) })
	e.RunUntil(Seconds(3))
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired = %v, want [1]", fired)
	}
	if e.Now() != Seconds(3) {
		t.Fatalf("Now = %v, want 3s", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.RunUntil(Seconds(10))
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want both", fired)
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	e := New(1)
	ran := false
	e.At(Seconds(3), func() { ran = true })
	e.RunUntil(Seconds(3))
	if !ran {
		t.Fatal("callback at the limit should run")
	}
}

func TestHalt(t *testing.T) {
	e := New(1)
	count := 0
	for i := 1; i <= 5; i++ {
		e.At(Seconds(float64(i)), func() {
			count++
			if count == 2 {
				e.Halt()
			}
		})
	}
	e.Run()
	if count != 2 {
		t.Fatalf("count = %d, want 2 (halted)", count)
	}
	e.Run() // resume
	if count != 5 {
		t.Fatalf("count = %d, want 5 after resume", count)
	}
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nil callback")
		}
	}()
	New(1).After(time.Second, nil)
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		e := New(seed)
		rng := e.NewRand()
		var draws []int64
		var tick func()
		tick = func() {
			draws = append(draws, rng.Int63n(1000))
			if len(draws) < 20 {
				e.After(time.Duration(rng.Intn(100))*time.Millisecond, tick)
			}
		}
		e.After(0, tick)
		e.Run()
		return draws
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestNewRandIndependentStreams(t *testing.T) {
	e := New(7)
	r1, r2 := e.NewRand(), e.NewRand()
	same := true
	for i := 0; i < 10; i++ {
		if r1.Int63() != r2.Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("derived RNG streams are identical")
	}
}

// Property: the engine never runs callbacks out of time order, regardless of
// the insertion pattern.
func TestQueueOrderingProperty(t *testing.T) {
	f := func(delaysMs []uint16, seed int64) bool {
		if len(delaysMs) == 0 {
			return true
		}
		e := New(seed)
		var fired []Time
		for _, d := range delaysMs {
			e.After(time.Duration(d)*time.Millisecond, func() {
				fired = append(fired, e.Now())
			})
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delaysMs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestPendingCountsLiveCallbacks pins Pending's semantics: it counts
// live (scheduled, unfired, unstopped) callbacks only, independent of
// whether the heap has compacted stopped entries away yet.
func TestPendingCountsLiveCallbacks(t *testing.T) {
	e := New(1)
	var timers []*Timer
	ran := 0
	for i := 0; i < 10; i++ {
		timers = append(timers, e.After(time.Duration(i+1)*time.Second, func() { ran++ }))
	}
	if e.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", e.Pending())
	}
	for i := 0; i < 4; i++ {
		timers[i].Stop()
	}
	if e.Pending() != 6 {
		t.Fatalf("Pending after 4 stops = %d, want 6 (stopped timers must not count)", e.Pending())
	}
	timers[0].Stop() // double-stop must not double-count
	if e.Pending() != 6 {
		t.Fatalf("Pending after double stop = %d, want 6", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending after drain = %d, want 0", e.Pending())
	}
	if ran != 6 {
		t.Fatalf("%d callbacks ran, want 6", ran)
	}
}

// TestStoppedTimerCompaction exercises the lazy heap compaction: when
// stopped entries exceed half the queue the engine drops them eagerly
// instead of carrying them until they pop, and the surviving callbacks
// still run in order.
func TestStoppedTimerCompaction(t *testing.T) {
	e := New(1)
	const n = 4 * compactMin
	var timers []*Timer
	for i := 0; i < n; i++ {
		timers = append(timers, e.After(time.Duration(i+1)*time.Millisecond, func() {}))
	}
	// Stop three quarters: crosses the stopped > live threshold.
	for i := 0; i < n; i++ {
		if i%4 != 0 {
			timers[i].Stop()
		}
	}
	if got := e.Pending(); got != n/4 {
		t.Fatalf("Pending = %d, want %d", got, n/4)
	}
	// Compaction must have physically discarded entries, not just
	// relabeled them.
	if e.count > n/2 {
		t.Fatalf("store holds %d entries after mass stop, want compaction below %d", e.count, n/2)
	}
	var fired []Time
	for e.Step() {
		fired = append(fired, e.Now())
	}
	if len(fired) != n/4 {
		t.Fatalf("fired %d callbacks, want %d", len(fired), n/4)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("callbacks out of order after compaction: %v", fired)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending after drain = %d", e.Pending())
	}
}

// TestCompactionBelowThresholdLeavesQueue pins the laziness: small
// queues and minority-stopped queues are not compacted (the pop path
// discards those), so Stop stays O(1) in the common case.
func TestCompactionBelowThresholdLeavesQueue(t *testing.T) {
	e := New(1)
	var timers []*Timer
	ran := 0
	for i := 0; i < compactMin/2; i++ {
		timers = append(timers, e.After(time.Duration(i+1)*time.Millisecond, func() { ran++ }))
	}
	for _, tm := range timers {
		tm.Stop()
	}
	if e.count != compactMin/2 {
		t.Fatalf("small store compacted eagerly: resident=%d", e.count)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
	e.Run()
	if ran != 0 {
		t.Fatal("stopped callbacks ran")
	}
}

func TestExecutedCounter(t *testing.T) {
	e := New(1)
	ran := 0
	for i := 0; i < 4; i++ {
		e.After(time.Duration(i)*time.Second, func() { ran++ })
	}
	stopped := e.After(10*time.Second, func() { ran++ })
	stopped.Stop()
	e.Run()
	if ran != 4 {
		t.Fatalf("%d callbacks ran, want 4", ran)
	}
}
