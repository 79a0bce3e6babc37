package sim

import (
	"math/rand"
	"time"
)

// Engine is a single-threaded discrete-event simulator.
//
// All scheduled callbacks run on the goroutine that calls Run, RunUntil or
// Step; the engine itself is not safe for concurrent use. Callbacks may
// schedule further work. Scheduling a callback in the past clamps it to the
// current instant.
//
// Pending callbacks live in one item arena and are filed by int32 index
// in a hierarchical timer wheel whose nine levels span the whole Time
// range (see wheel.go), so the wheel, the ready buffer and the free list
// hold no pointers and move without write barriers. Fired and cancelled
// entries are recycled through the free list, so steady-state Schedule
// and Timer.Reset allocate nothing (At and After allocate the returned
// handle). Firing order is exactly ascending (at, seq): FIFO
// among callbacks scheduled for the same instant.
type Engine struct {
	now  Time
	seq  uint64 // next tie-breaker: FIFO among equal instants
	halt bool
	rng  *rand.Rand

	// items is the arena every index below refers to. It may move when
	// it grows, so no *item is held across a schedule.
	items []item
	wheel wheel

	// ready holds the items due at or before wheel.cur, sorted by
	// (at, seq); readyPos is the consumed prefix. New items landing at
	// or before the current tick are merge-inserted here.
	ready    []int32
	readyPos int

	scratch []int32 // cascade reuse buffer
	free    []int32 // recycled items

	// count is the number of resident items — scheduled and not yet
	// fired or physically discarded, including stopped ones; stopped
	// counts entries cancelled via Timer.Stop but not yet removed. When
	// stopped entries outnumber live ones the store is compacted (see
	// maybeCompact), so churn-heavy runs that stop timers en masse do
	// not grow it monotonically.
	count   int
	stopped int
}

// item is a scheduled callback. Items are pooled: gen increments on
// every recycle so stale Timer handles cannot cancel a reused entry.
type item struct {
	at      Time
	seq     uint64 // tie-breaker: FIFO among equal times
	fn      func()
	stopped bool
	gen     uint32
}

// New returns an engine whose clock starts at the epoch and whose
// randomness derives entirely from seed.
func New(seed int64) *Engine {
	return &Engine{rng: NewStream(seed)}
}

// Now returns the current instant of the simulation clock.
func (e *Engine) Now() Time { return e.now }

// NewRand derives an independent RNG stream from the engine seed. Like
// the engine's own, it comes from NewStream, the repository's one RNG
// constructor.
func (e *Engine) NewRand() *rand.Rand {
	return NewStream(e.rng.Int63())
}

// Timer is a handle to a scheduled callback, which Reset re-arms.
type Timer struct {
	e       *Engine
	idx     int32
	fn      func()
	gen     uint32
	stopped bool
}

// Stop cancels the timer if it has not fired. It reports whether the call
// prevented the callback from running. Stopping a nil or already-fired
// timer is a no-op returning false.
func (t *Timer) Stop() bool {
	if t == nil || t.e == nil || t.stopped {
		return false
	}
	it := &t.e.items[t.idx]
	if it.gen != t.gen || it.stopped {
		return false
	}
	it.stopped = true
	t.stopped = true
	t.e.stopped++
	t.e.maybeCompact()
	return true
}

// Reset re-arms the callback to run d from now, cancelling a pending
// run, and reports whether it did. It files the callback as After would
// here, so no firing order changes, and allocates nothing once warm.
func (t *Timer) Reset(d time.Duration) bool {
	pending := t.Stop()
	i := t.e.schedule(t.e.now.Add(d), t.fn)
	t.idx, t.gen, t.stopped = i, t.e.items[i].gen, false
	return pending
}

// At schedules fn to run at instant at (clamped to now if in the past) and
// returns a cancellable handle.
func (e *Engine) At(at Time, fn func()) *Timer {
	i := e.schedule(at, fn)
	return &Timer{e: e, idx: i, fn: fn, gen: e.items[i].gen}
}

// After schedules fn to run d from now. Negative d behaves like zero.
func (e *Engine) After(d time.Duration, fn func()) *Timer {
	return e.At(e.now.Add(d), fn)
}

// Schedule is At without the cancellation handle: the hot-path variant
// for fire-and-forget work (MAC contention rounds, workload pumps). It
// allocates nothing once the engine's item pool is warm.
func (e *Engine) Schedule(at Time, fn func()) { e.schedule(at, fn) }

// ScheduleAfter is After without the cancellation handle.
func (e *Engine) ScheduleAfter(d time.Duration, fn func()) {
	e.schedule(e.now.Add(d), fn)
}

// schedule files fn at at and returns its arena index.
func (e *Engine) schedule(at Time, fn func()) int32 {
	if fn == nil {
		panic("sim: nil callback")
	}
	if at < e.now {
		at = e.now
	}
	var i int32
	if n := len(e.free); n > 0 {
		i = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		i = int32(len(e.items))
		e.items = append(e.items, item{})
	}
	it := &e.items[i]
	it.at, it.seq, it.fn = at, e.seq, fn
	e.seq++
	e.enqueue(i, at)
	return i
}

// recycle returns a fired or discarded item to the pool, bumping its
// generation so outstanding Timer handles go stale.
func (e *Engine) recycle(i int32) {
	it := &e.items[i]
	it.fn = nil
	it.stopped = false
	it.gen++
	e.free = append(e.free, i)
}

// enqueue files item i, due at at: merge into the ready buffer when due
// at or before the current tick, otherwise into the wheel.
func (e *Engine) enqueue(i int32, at Time) {
	e.count++
	if tickOf(at) <= e.wheel.cur {
		e.readyInsert(i)
		return
	}
	e.wheel.place(i, at)
}

// less orders items by (at, seq): time order, FIFO among equals.
func (e *Engine) less(a, b int32) bool {
	x, y := &e.items[a], &e.items[b]
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

// readyInsert merge-inserts into the unconsumed tail of the ready
// buffer, preserving (at, seq) order. A freshly scheduled item carries
// the largest seq, so its slot is always at or after readyPos.
func (e *Engine) readyInsert(i int32) {
	lo, hi := e.readyPos, len(e.ready)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.less(e.ready[mid], i) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	e.ready = append(e.ready, 0)
	copy(e.ready[lo+1:], e.ready[lo:])
	e.ready[lo] = i
}

// advance moves the wheel to the next occupied instant and refills the
// ready buffer with every item due at that tick, in (at, seq) order. It
// reports false when nothing is pending. The loop only returns once no
// wheel slot shares the chosen tick, so a cascade that lands items at
// the boundary cannot shadow a level-0 slot due at the same instant.
func (e *Engine) advance() bool {
	e.ready = e.ready[:0]
	e.readyPos = 0
	for {
		start, lvl := e.wheel.nextWindow()
		if len(e.ready) > 0 && start > e.wheel.cur {
			// Everything due at the current tick is collected and
			// nothing else shares it.
			return true
		}
		if lvl < 0 {
			return false // wheel empty
		}
		if lvl == 0 {
			// A level-0 window is a single tick: its slot holds exactly
			// the items due at that tick. Cascade leftovers already in
			// ready always share the tick (start == cur then), so the
			// full buffer is re-sorted after the append.
			e.wheel.cur = start
			e.ready = e.wheel.drain(0, start&slotMask, e.ready)
			e.sortItems(e.ready)
			return true
		}
		// A coarser window opens next: advance to its boundary and
		// cascade its slot down to finer levels, then rescan. Items due
		// exactly at the boundary tick go straight to ready.
		e.wheel.cur = start
		idx := (start >> (lvl * slotBits)) & slotMask
		e.scratch = e.wheel.drain(lvl, idx, e.scratch[:0])
		for _, i := range e.scratch {
			if at := e.items[i].at; tickOf(at) <= e.wheel.cur {
				e.readyInsert(i)
			} else {
				e.wheel.place(i, at)
			}
		}
	}
}

// Halt stops the currently running Run/RunUntil loop after the current
// callback returns. Pending events remain queued.
func (e *Engine) Halt() { e.halt = true }

// Pending returns the number of live queued callbacks: scheduled, not
// yet fired and not stopped. Stopped timers never count, whether they
// have been physically discarded yet or not.
func (e *Engine) Pending() int { return e.count - e.stopped }

// compactMin is the resident count below which stopped entries are left
// for the pop path to discard: sweeping a tiny store buys nothing.
const compactMin = 64

// maybeCompact physically removes stopped entries once they outnumber
// the live ones. Cost is O(resident) against the O(resident) space the
// stopped entries would otherwise occupy until naturally drained —
// churn-heavy runs (mass Protocol.Stop on crashes, suppression storms)
// would otherwise grow the store monotonically.
func (e *Engine) maybeCompact() {
	if e.count < compactMin || e.stopped*2 <= e.count {
		return
	}
	drop := func(s []int32) []int32 {
		kept := s[:0]
		for _, i := range s {
			if e.items[i].stopped {
				e.count--
				e.recycle(i)
				continue
			}
			kept = append(kept, i)
		}
		return kept
	}
	tail := drop(e.ready[e.readyPos:])
	e.ready = e.ready[:e.readyPos+len(tail)]
	for l := 0; l < wheelLevels; l++ {
		for m := e.wheel.occ[l]; m != 0; m &= m - 1 {
			idx := trailingIdx(m)
			slot := drop(e.wheel.slots[l][idx])
			e.wheel.slots[l][idx] = slot
			if len(slot) == 0 {
				e.wheel.clear(l, idx)
			}
		}
	}
	e.stopped = 0
}

// Step runs the single earliest pending callback, advancing the clock to
// its instant. It reports whether any callback ran.
func (e *Engine) Step() bool {
	for {
		for e.readyPos < len(e.ready) {
			i := e.ready[e.readyPos]
			e.readyPos++
			e.count--
			it := &e.items[i]
			if it.stopped {
				e.stopped--
				e.recycle(i)
				continue
			}
			// Copied out first: fn may schedule, and the arena may move.
			at, fn := it.at, it.fn
			e.recycle(i)
			e.now = at
			fn()
			return true
		}
		if !e.advance() {
			return false
		}
	}
}

// Run executes callbacks until the queue is empty or Halt is called.
func (e *Engine) Run() {
	e.halt = false
	for !e.halt && e.Step() {
	}
}

// RunUntil executes all callbacks scheduled at or before limit, then
// advances the clock to limit. Callbacks scheduled later stay queued.
func (e *Engine) RunUntil(limit Time) {
	e.halt = false
	for !e.halt {
		next, ok := e.peek()
		if !ok || next > limit {
			break
		}
		e.Step()
	}
	if e.now < limit {
		e.now = limit
	}
}

// peek returns the instant of the earliest live callback, discarding
// stopped entries it walks past.
func (e *Engine) peek() (Time, bool) {
	for {
		for e.readyPos < len(e.ready) {
			i := e.ready[e.readyPos]
			if it := &e.items[i]; !it.stopped {
				return it.at, true
			}
			e.readyPos++
			e.count--
			e.stopped--
			e.recycle(i)
		}
		if !e.advance() {
			return 0, false
		}
	}
}
