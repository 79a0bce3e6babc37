package sim

import (
	"math/rand"
	"testing"
	"time"
)

// resetAction is what one firing of a periodic task does to another
// task besides re-arming itself: nothing, re-arm it d from now
// (cancelling a pending run) or stop it.
type resetAction struct {
	kind   int // 0 nothing, 1 re-arm target, 2 stop target
	target int
	d      time.Duration
}

const resetTasks, resetRounds = 8, 12

// resetScript runs resetTasks periodic tasks, each firing at most
// resetRounds times, whose firings also re-arm and stop one another as
// the seed dictates. With reset set a task keeps one Timer and re-arms
// it with Reset; otherwise every arming is Stop plus a new After, the
// way periodic tasks were written before Reset. It returns the trace and
// how many re-arms cancelled a pending run.
func resetScript(seed int64, reset bool) (trace []traceEntry, cancelled int) {
	rng := rand.New(rand.NewSource(seed))
	// Periods span every level up to 7; re-arms use every delay.
	periods := make([]time.Duration, resetTasks)
	for i := range periods {
		periods[i] = scriptDelays[rng.Intn(len(scriptDelays)-3)]
	}
	var script [resetTasks][resetRounds]resetAction
	for i := range script {
		for r := range script[i] {
			script[i][r] = resetAction{kind: rng.Intn(3), target: rng.Intn(resetTasks), d: scriptDelays[rng.Intn(len(scriptDelays))]}
		}
	}

	e := New(seed)
	timers := make([]*Timer, resetTasks)
	fired := make([]int, resetTasks)
	var fire func(i int)
	arm := func(i int, d time.Duration) {
		if reset && timers[i] != nil {
			if timers[i].Reset(d) {
				cancelled++
			}
			return
		}
		timers[i].Stop()
		timers[i] = e.After(d, func() { fire(i) })
	}
	fire = func(i int) {
		trace = append(trace, traceEntry{id: i, at: e.Now()})
		if fired[i] == resetRounds { // re-armed by another task after its last round
			return
		}
		a := script[i][fired[i]]
		fired[i]++
		switch a.kind {
		case 1:
			arm(a.target, a.d)
		case 2:
			timers[a.target].Stop()
		}
		if fired[i] < resetRounds {
			arm(i, periods[i])
		}
	}
	for i := range timers {
		arm(i, periods[i])
	}
	e.Run()
	return trace, cancelled
}

// TestResetMatchesAfter runs the same periodic-task script on two
// engines, one re-arming with Reset and one with After: the (id, at)
// traces must be equal, across every wheel level the periods reach.
func TestResetMatchesAfter(t *testing.T) {
	total := 0
	for seed := int64(1); seed <= 60; seed++ {
		a, cancelled := resetScript(seed, true)
		b, _ := resetScript(seed, false)
		total += cancelled
		if len(a) != len(b) {
			t.Fatalf("seed %d: Reset fired %d callbacks, After %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: divergence at firing %d: Reset %+v, After %+v", seed, i, a[i], b[i])
			}
		}
	}
	if total == 0 {
		t.Fatal("no Reset cancelled a pending run: the script does not cover it")
	}
}

func TestTimerReset(t *testing.T) {
	e := New(1)
	var at []Time
	tm := e.After(time.Second, func() { at = append(at, e.Now()) })
	if !tm.Reset(2 * time.Second) {
		t.Fatal("Reset of a pending timer should report true")
	}
	e.Run()
	if len(at) != 1 || at[0] != Time(2*time.Second) {
		t.Fatalf("re-armed timer ran at %v, want once at 2s", at)
	}
	if tm.Reset(time.Second) {
		t.Fatal("Reset of a fired timer should report false")
	}
	if !tm.Stop() || !tm.stopped {
		t.Fatal("Stop of the re-armed timer should report true")
	}
	if tm.Reset(time.Second) {
		t.Fatal("Reset after Stop should report false")
	}
	if tm.stopped {
		t.Fatal("Reset after Stop should clear stopped")
	}
	if e.Pending() != 1 {
		t.Fatalf("%d callbacks pending after Reset, want 1", e.Pending())
	}
	e.Run()
	if len(at) != 2 || at[1] != Time(3*time.Second) {
		t.Fatalf("timer re-armed after Stop ran at %v, want a second run at 3s", at)
	}
}

// TestResetAllocs pins Reset at zero allocations once the engine's item
// pool and the wheel slots it cycles through are warm: a periodic task
// re-arming itself from its callback, as the protocols' tasks do, and a
// re-arm that cancels a pending run. The warm-up covers every slot the
// two delays land in (10 s is a level-3 slot of about 4.3 s; 64 of them
// rotate in 275 s), since a slot's first append grows its array.
func TestResetAllocs(t *testing.T) {
	e := New(1)
	var tick *Timer
	tick = e.After(time.Second, func() { tick.Reset(time.Second) })
	other := e.After(10*time.Second, func() {})
	step := func() {
		other.Reset(10 * time.Second)
		e.Step()
	}
	for i := 0; i < 2000; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("Reset allocates %v times per period once warm, want 0", allocs)
	}
}

// TestScheduleStepAllocs pins the handle-free path at zero allocations
// once the item arena is warm: callbacks that re-schedule themselves
// with ScheduleAfter, as the MAC's contention rounds do, fired by Step.
// The warm-up lets both periods visit every wheel slot they land in.
func TestScheduleStepAllocs(t *testing.T) {
	e := New(1)
	var slow, fast func()
	slow = func() { e.ScheduleAfter(time.Second, slow) }
	fast = func() { e.ScheduleAfter(7*time.Millisecond, fast) }
	e.ScheduleAfter(time.Second, slow)
	e.ScheduleAfter(0, fast)
	step := func() { e.Step() }
	for i := 0; i < 100000; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("ScheduleAfter plus Step allocates %v times once warm, want 0", allocs)
	}
}
