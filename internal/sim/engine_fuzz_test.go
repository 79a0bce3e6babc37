package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// opEngine is what an op program drives: the wheel engine or the
// reference, behind the same calls. Handles are numbered in the order
// after creates them.
type opEngine interface {
	now() Time
	after(d time.Duration, fn func())
	schedule(d time.Duration, fn func())
	stop(h int) bool
	reset(h int, d time.Duration) bool
	handles() int
	step() bool
}

type wheelOps struct {
	e      *Engine
	timers []*Timer
}

func (w *wheelOps) now() Time                           { return w.e.Now() }
func (w *wheelOps) after(d time.Duration, fn func())    { w.timers = append(w.timers, w.e.After(d, fn)) }
func (w *wheelOps) schedule(d time.Duration, fn func()) { w.e.ScheduleAfter(d, fn) }
func (w *wheelOps) stop(h int) bool                     { return w.timers[h].Stop() }
func (w *wheelOps) reset(h int, d time.Duration) bool   { return w.timers[h].Reset(d) }
func (w *wheelOps) handles() int                        { return len(w.timers) }
func (w *wheelOps) step() bool                          { return w.e.Step() }

type refOps struct {
	r      *refEngine
	timers []*refTimer
}

func (o *refOps) now() Time { return o.r.now }
func (o *refOps) after(d time.Duration, fn func()) {
	o.timers = append(o.timers, &refTimer{r: o.r, it: o.r.At(o.r.now.Add(d), fn)})
}
func (o *refOps) schedule(d time.Duration, fn func()) { o.r.At(o.r.now.Add(d), fn) }
func (o *refOps) stop(h int) bool                     { return o.timers[h].Stop() }
func (o *refOps) reset(h int, d time.Duration) bool   { return o.timers[h].Reset(d) }
func (o *refOps) handles() int                        { return len(o.timers) }
func (o *refOps) step() bool                          { return o.r.Step() }

// Op codes of a program. Every callback, and the start, runs one group:
// a count byte (mod 6) of ops, each an op byte (mod opKinds) and its
// argument bytes.
const (
	opAfter    = iota // delay: After, keeping the handle
	opSchedule        // delay: ScheduleAfter, no handle
	opStop            // handle: Stop
	opReset           // handle, delay: Reset
	opBurst           // delay: burstLen Afters over four delays, then Stop three delays' worth
	opKinds
)

const (
	// burstLen is enough for one burst to make the engine compact.
	burstLen = compactMin + 16
	// maxOpItems caps the callbacks a program schedules, which bounds
	// the reference's quadratic scan.
	maxOpItems = 2000
)

// opEvent is one observable outcome: a callback firing ('f', its id) or
// a Stop or Reset result ('s', 'r', the handle).
type opEvent struct {
	kind byte
	id   int
	at   Time
	ok   bool
}

// replayOps runs prog on eng and returns what happened, calling check
// after every step.
func replayOps(prog []byte, eng opEngine, check func()) []opEvent {
	var trace []opEvent
	pos, ids := 0, 0
	next := func() (int, bool) {
		if pos >= len(prog) {
			return 0, false
		}
		pos++
		return int(prog[pos-1]), true
	}
	delay := func(b int) time.Duration { return scriptDelays[b%len(scriptDelays)] }
	var group func()
	fire := func(id int) func() {
		return func() {
			trace = append(trace, opEvent{kind: 'f', id: id, at: eng.now(), ok: true})
			group()
		}
	}
	group = func() {
		n, ok := next()
		for k := n % 6; ok && k > 0; k-- {
			var op, a, b int
			if op, ok = next(); !ok {
				return
			}
			if a, ok = next(); !ok {
				return
			}
			switch op % opKinds {
			case opAfter, opSchedule:
				if ids == maxOpItems {
					continue
				}
				if op%opKinds == opAfter {
					eng.after(delay(a), fire(ids))
				} else {
					eng.schedule(delay(a), fire(ids))
				}
				ids++
			case opStop:
				if h := eng.handles(); h > 0 {
					trace = append(trace, opEvent{kind: 's', id: a % h, at: eng.now(), ok: eng.stop(a % h)})
				}
			case opReset:
				if b, ok = next(); !ok {
					return
				}
				if h := eng.handles(); h > 0 {
					trace = append(trace, opEvent{kind: 'r', id: a % h, at: eng.now(), ok: eng.reset(a%h, delay(b))})
				}
			case opBurst:
				if ids+burstLen > maxOpItems {
					continue
				}
				// Stopping one delay at a time lets the compaction
				// empty whole slots and levels.
				first := eng.handles()
				for j := 0; j < burstLen; j++ {
					eng.after(delay(a+j%4), fire(ids))
					ids++
				}
				for c := 1; c < 4; c++ {
					for h := first + c; h < first+burstLen; h += 4 {
						trace = append(trace, opEvent{kind: 's', id: h, at: eng.now(), ok: eng.stop(h)})
					}
				}
			}
		}
	}
	group()
	for eng.step() {
		check()
	}
	return trace
}

// wheelInvariants reports how the wheel's bookkeeping disagrees with its
// slots: a slot's occupancy bit must be set iff it holds an item, and a
// level's mask bit iff any of its slots does.
func wheelInvariants(w *wheel) error {
	for l := range w.slots {
		var occ uint64
		for idx, s := range w.slots[l] {
			if len(s) > 0 {
				occ |= 1 << idx
			}
		}
		if occ != w.occ[l] {
			return fmt.Errorf("level %d: occupancy %#x, slots hold %#x", l, w.occ[l], occ)
		}
		if got := w.lvls>>l&1 == 1; got != (occ != 0) {
			return fmt.Errorf("level %d: mask bit %v with occupancy %#x", l, got, occ)
		}
	}
	return nil
}

// scriptProgram encodes buildScript(seed, n) as an op program: an
// action's children become After ops and its stops Stop ops, so the
// corpus starts from the schedules TestWheelMatchesReference replays.
func scriptProgram(seed int64, n int) []byte {
	idx := make(map[time.Duration]byte)
	for i, d := range scriptDelays {
		if _, ok := idx[d]; !ok {
			idx[d] = byte(i)
		}
	}
	prog := []byte{3, opAfter, 0, opAfter, idx[time.Second], opAfter, idx[14*24*time.Hour]}
	for _, a := range buildScript(seed, n) {
		prog = append(prog, byte(len(a.children)+len(a.stops)))
		for _, d := range a.children {
			prog = append(prog, opAfter, idx[d])
		}
		for _, s := range a.stops {
			prog = append(prog, opStop, byte(s))
		}
	}
	return prog
}

// FuzzEngineMatchesReference requires the wheel engine and the
// brute-force reference to fire the same callbacks at the same instants
// and to answer every Stop and Reset alike, over programs that stop and
// re-arm handles after they fired (when a new item holds their arena
// index) and stop enough at once to compact the store. It also checks
// the wheel's occupancy and level masks after every step.
func FuzzEngineMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(scriptProgram(seed, 120))
	}
	f.Add([]byte{
		4, opBurst, 10, opAfter, 0, opReset, 0, 3, opStop, 1,
		3, opStop, 0, opReset, 2, 9, opBurst, 11,
		5, opAfter, 1, opStop, 0, opReset, 0, 0, opSchedule, 4, opReset, 81, 6,
		2, opStop, 160, opReset, 3, 12,
	})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		prog := make([]byte, 400)
		rng.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		w := &wheelOps{e: New(1)}
		got := replayOps(prog, w, func() {
			if err := wheelInvariants(&w.e.wheel); err != nil {
				t.Fatalf("after firing at %v: %v", w.e.Now(), err)
			}
		})
		want := replayOps(prog, &refOps{r: &refEngine{}}, func() {})
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Fatalf("divergence at event %d: wheel %+v, reference %+v", i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("wheel recorded %d events, reference %d", len(got), len(want))
		}
	})
}
